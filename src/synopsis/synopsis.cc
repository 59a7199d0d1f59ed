#include "src/synopsis/synopsis.h"

#include <algorithm>
#include <cmath>

#include "src/common/string_util.h"
#include "src/tuple/serde.h"

namespace datatriage::synopsis {

std::string_view SynopsisTypeToString(SynopsisType type) {
  switch (type) {
    case SynopsisType::kGridHistogram:
      return "grid_histogram";
    case SynopsisType::kMHist:
      return "mhist";
    case SynopsisType::kAlignedMHist:
      return "aligned_mhist";
    case SynopsisType::kReservoirSample:
      return "reservoir_sample";
    case SynopsisType::kAviHistogram:
      return "avi_histogram";
    case SynopsisType::kExact:
      return "exact";
  }
  return "?";
}

void AggAccumulator::Add(double value, double weight) {
  if (weight <= 0) return;
  count += weight;
  sum += value * weight;
  min = std::min(min, value);
  max = std::max(max, value);
}

void AggAccumulator::MergeFrom(const AggAccumulator& other) {
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

namespace {

Status CheckSameType(const Synopsis& lhs, const Synopsis& rhs,
                     const char* op) {
  if (lhs.type() == rhs.type()) return Status::OK();
  return Status::InvalidArgument(
      StringPrintf("cannot %s %s with %s", op,
                   std::string(SynopsisTypeToString(lhs.type())).c_str(),
                   std::string(SynopsisTypeToString(rhs.type())).c_str()));
}

}  // namespace

Result<SynopsisPtr> Synopsis::UnionAllWith(const Synopsis& other,
                                           OpStats* stats) const {
  DT_RETURN_IF_ERROR(CheckSameType(*this, other, "union"));
  if (other.schema_.num_fields() != schema_.num_fields()) {
    return Status::InvalidArgument(StringPrintf(
        "cannot union %s synopses of arity %zu and %zu",
        std::string(SynopsisTypeToString(type())).c_str(),
        schema_.num_fields(), other.schema_.num_fields()));
  }
  return DoUnionAll(other, stats);
}

Result<SynopsisPtr> Synopsis::EquiJoinWith(
    const Synopsis& other, const std::vector<std::pair<size_t, size_t>>& keys,
    OpStats* stats) const {
  DT_RETURN_IF_ERROR(CheckSameType(*this, other, "join"));
  for (const auto& [l, r] : keys) {
    if (l >= schema_.num_fields() || r >= other.schema_.num_fields()) {
      return Status::OutOfRange(StringPrintf(
          "join key (%zu, %zu) out of range for arities %zu and %zu", l, r,
          schema_.num_fields(), other.schema_.num_fields()));
    }
  }
  // Column names may collide across sides; uniquify with a side prefix.
  Schema joined_schema;
  for (const Field& f : schema_.fields()) {
    DT_RETURN_IF_ERROR(joined_schema.AddField(Field{"l." + f.name, f.type}));
  }
  for (const Field& f : other.schema_.fields()) {
    DT_RETURN_IF_ERROR(joined_schema.AddField(Field{"r." + f.name, f.type}));
  }
  return DoEquiJoin(other, keys, std::move(joined_schema), stats);
}

Result<SynopsisPtr> Synopsis::ProjectColumns(
    const std::vector<size_t>& indices, const std::vector<std::string>& names,
    OpStats* stats) const {
  if (indices.size() != names.size()) {
    return Status::InvalidArgument(StringPrintf(
        "projection has %zu indices but %zu names", indices.size(),
        names.size()));
  }
  Schema projected_schema;
  for (size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= schema_.num_fields()) {
      return Status::OutOfRange(
          StringPrintf("projection index %zu out of range for arity %zu",
                       indices[i], schema_.num_fields()));
    }
    DT_RETURN_IF_ERROR(projected_schema.AddField(
        Field{names[i], schema_.field(indices[i]).type}));
  }
  return DoProject(indices, std::move(projected_schema), stats);
}

Result<GroupedEstimate> Synopsis::EstimateGroups(
    const std::vector<size_t>& group_columns,
    const std::vector<size_t>& agg_columns) const {
  for (size_t g : group_columns) {
    if (g >= schema_.num_fields()) {
      return Status::OutOfRange(
          StringPrintf("group column %zu out of range for arity %zu", g,
                       schema_.num_fields()));
    }
  }
  for (size_t a : agg_columns) {
    if (a != kCountOnlyColumn && a >= schema_.num_fields()) {
      return Status::OutOfRange(
          StringPrintf("aggregate column %zu out of range for arity %zu", a,
                       schema_.num_fields()));
    }
  }
  return DoEstimateGroups(group_columns, agg_columns);
}

BucketGroupWalk::BucketGroupWalk(const Schema& schema,
                                 const std::vector<size_t>& group_columns,
                                 const std::vector<size_t>& agg_columns)
    : group_columns_(group_columns),
      agg_columns_(agg_columns),
      points_(group_columns.size()),
      cursor_(group_columns.size()) {
  for (size_t g : group_columns) {
    integral_.push_back(schema.field(g).type == FieldType::kInt64);
  }
  for (size_t a : agg_columns) {
    agg_group_dim_.push_back(static_cast<size_t>(
        std::find(group_columns.begin(), group_columns.end(), a) -
        group_columns.begin()));
  }
  key_.resize(group_columns.size());
}

void BucketGroupWalk::Spread(const double* lo, const double* hi,
                             const double* mid, double count) {
  double num_points = 1.0;
  for (size_t d = 0; d < group_columns_.size(); ++d) {
    const size_t g = group_columns_[d];
    std::vector<double>& points = points_[d];
    points.clear();
    if (integral_[d]) {
      const int64_t first = static_cast<int64_t>(std::ceil(lo[g]));
      const int64_t last = static_cast<int64_t>(std::ceil(hi[g])) - 1;
      for (int64_t v = first; v <= last; ++v) {
        points.push_back(static_cast<double>(v));
      }
      if (points.empty()) points.push_back(lo[g]);
    } else {
      points.push_back(mid[g]);
    }
    num_points *= static_cast<double>(points.size());
  }
  const double weight = count / num_points;

  std::fill(cursor_.begin(), cursor_.end(), size_t{0});
  while (true) {
    for (size_t d = 0; d < key_.size(); ++d) {
      const double v = points_[d][cursor_[d]];
      key_[d] = integral_[d] ? Value::Int64(static_cast<int64_t>(v))
                             : Value::Double(v);
    }
    // Look up before copying the key, so a point of a group seen before
    // allocates nothing.
    auto it = groups_.lower_bound(key_);
    if (it == groups_.end() || groups_.key_comp()(key_, it->first)) {
      it = groups_.emplace_hint(
          it, key_, std::vector<AggAccumulator>(agg_columns_.size()));
    }
    for (size_t a = 0; a < agg_columns_.size(); ++a) {
      if (agg_columns_[a] == kCountOnlyColumn) {
        it->second[a].count += weight;
        continue;
      }
      const size_t d = agg_group_dim_[a];
      it->second[a].Add(
          d < key_.size() ? points_[d][cursor_[d]] : mid[agg_columns_[a]],
          weight);
    }
    // Advance the cartesian-product cursor; all combinations visited
    // (at once for the empty group-by's single global group) ends it.
    size_t d = 0;
    for (; d < cursor_.size(); ++d) {
      if (++cursor_[d] < points_[d].size()) break;
      cursor_[d] = 0;
    }
    if (d == cursor_.size()) break;
  }
}

Status Synopsis::CheckNumericSchema(const Schema& schema) {
  for (const Field& f : schema.fields()) {
    if (!IsNumericType(f.type)) {
      return Status::InvalidArgument(
          "synopses support only numeric columns; column '" + f.name +
          "' has type " + std::string(FieldTypeToString(f.type)));
    }
  }
  return Status::OK();
}

Status Synopsis::CheckCellWidth(const char* family, double cell_width) {
  if (!std::isfinite(cell_width) || cell_width <= 0) {
    return Status::InvalidArgument(StringPrintf(
        "%s cell_width must be finite and > 0, got %g", family,
        cell_width));
  }
  return Status::OK();
}

Result<Tuple> Synopsis::LoadRow(serde::Reader* reader) const {
  DT_ASSIGN_OR_RETURN(Tuple row, LoadTuple(reader));
  if (row.size() != schema_.num_fields()) {
    return Status::InvalidArgument(StringPrintf(
        "snapshot: %s row has %zu value(s), schema has %zu",
        std::string(SynopsisTypeToString(type())).c_str(), row.size(),
        schema_.num_fields()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row.value(i).is_numeric()) {
      return Status::InvalidArgument(StringPrintf(
          "snapshot: %s row value %zu is not numeric",
          std::string(SynopsisTypeToString(type())).c_str(), i));
    }
  }
  return row;
}

std::string Synopsis::DebugString() const {
  return StringPrintf("%s over [%s]: ~%.1f tuples in %zu cells",
                      std::string(SynopsisTypeToString(type())).c_str(),
                      schema_.ToString().c_str(), TotalCount(),
                      SizeInCells());
}

}  // namespace datatriage::synopsis
