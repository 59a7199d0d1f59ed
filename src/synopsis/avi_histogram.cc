#include "src/synopsis/avi_histogram.h"

#include <algorithm>
#include <cmath>

#include "src/common/mem_accounting.h"
#include "src/common/serde.h"

namespace datatriage::synopsis {

namespace {

/// Collects the column indices a predicate references.
void CollectColumns(const plan::BoundExpr& expr, std::vector<size_t>* out) {
  switch (expr.kind()) {
    case plan::BoundExpr::Kind::kColumn:
      out->push_back(expr.column_index());
      return;
    case plan::BoundExpr::Kind::kLiteral:
      return;
    case plan::BoundExpr::Kind::kUnary:
      CollectColumns(*expr.lhs(), out);
      return;
    case plan::BoundExpr::Kind::kBinary:
      CollectColumns(*expr.lhs(), out);
      CollectColumns(*expr.rhs(), out);
      return;
  }
}

}  // namespace

Result<SynopsisPtr> AviHistogram::Make(Schema schema,
                                       const AviHistogramConfig& config) {
  DT_RETURN_IF_ERROR(CheckNumericSchema(schema));
  if (config.cell_width <= 0) {
    return Status::InvalidArgument("AVI histogram cell_width must be > 0");
  }
  return SynopsisPtr(new AviHistogram(std::move(schema), config));
}

int64_t AviHistogram::CellCoord(double value) const {
  return static_cast<int64_t>(std::floor(value / config_.cell_width));
}

double AviHistogram::ValuesPerCell() const {
  return std::max(1.0, std::round(config_.cell_width));
}

double AviHistogram::CellMidpoint(int64_t coord) const {
  return (static_cast<double>(coord) + 0.5) * config_.cell_width;
}

double AviHistogram::MarginalMean(size_t dim) const {
  if (total_count_ <= 0) return 0.0;
  double weighted = 0;
  for (const auto& [coord, mass] : marginals_[dim]) {
    weighted += CellMidpoint(coord) * mass;
  }
  return weighted / total_count_;
}

void AviHistogram::Insert(const Tuple& tuple) {
  DT_CHECK_EQ(tuple.size(), schema_.num_fields());
  for (size_t d = 0; d < tuple.size(); ++d) {
    marginals_[d][CellCoord(tuple.value(d).AsDouble())] += 1.0;
  }
  total_count_ += 1.0;
}

size_t AviHistogram::SizeInCells() const {
  size_t cells = 0;
  for (const auto& marginal : marginals_) cells += marginal.size();
  return cells;
}

size_t AviHistogram::MemoryBytes() const {
  // One map per dimension plus one node per occupied marginal cell
  // (int64 coordinate + double count).
  return mem::kSynopsisBaseBytes +
         marginals_.size() * mem::kVectorHeaderBytes +
         SizeInCells() * (mem::kMapNodeBytes + 16);
}

SynopsisPtr AviHistogram::Clone() const {
  auto clone =
      std::unique_ptr<AviHistogram>(new AviHistogram(schema_, config_));
  clone->marginals_ = marginals_;
  clone->total_count_ = total_count_;
  return clone;
}

Result<SynopsisPtr> AviHistogram::DoUnionAll(const Synopsis& other,
                                             OpStats* stats) const {
  const auto& rhs = static_cast<const AviHistogram&>(other);
  if (rhs.config_.cell_width != config_.cell_width) {
    return Status::InvalidArgument("union of incompatible AVI histograms");
  }
  auto result =
      std::unique_ptr<AviHistogram>(new AviHistogram(schema_, config_));
  result->marginals_ = marginals_;
  result->total_count_ = total_count_ + rhs.total_count_;
  int64_t work = 0;
  for (size_t d = 0; d < marginals_.size(); ++d) {
    for (const auto& [coord, mass] : rhs.marginals_[d]) {
      result->marginals_[d][coord] += mass;
      ++work;
    }
  }
  if (stats != nullptr) stats->work += work;
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> AviHistogram::DoEquiJoin(
    const Synopsis& other, const std::vector<std::pair<size_t, size_t>>& keys,
    Schema joined_schema, OpStats* stats) const {
  const auto& rhs = static_cast<const AviHistogram&>(other);
  if (rhs.config_.cell_width != config_.cell_width) {
    return Status::InvalidArgument("AVI cell widths differ");
  }
  const size_t ldims = schema_.num_fields();
  auto result = std::unique_ptr<AviHistogram>(
      new AviHistogram(std::move(joined_schema), config_));

  if (total_count_ <= 0 || rhs.total_count_ <= 0) {
    return SynopsisPtr(std::move(result));
  }

  // Expected matches under AVI: each key pair contributes an independent
  // matching probability; the matched key mass distribution is the
  // normalized per-cell product of the two marginals.
  int64_t work = 0;
  double match_probability = 1.0;
  std::vector<std::map<int64_t, double>> key_distributions;
  for (const auto& [lk, rk] : keys) {
    std::map<int64_t, double> matched;
    double mass = 0;
    for (const auto& [coord, lmass] : marginals_[lk]) {
      ++work;
      auto it = rhs.marginals_[rk].find(coord);
      if (it == rhs.marginals_[rk].end()) continue;
      const double m = (lmass / total_count_) *
                       (it->second / rhs.total_count_) / ValuesPerCell();
      matched[coord] = m;
      mass += m;
    }
    match_probability *= mass;
    key_distributions.push_back(std::move(matched));
  }
  const double result_total =
      total_count_ * rhs.total_count_ * match_probability;
  if (result_total <= 0) {
    if (stats != nullptr) stats->work += work;
    return SynopsisPtr(std::move(result));
  }
  result->total_count_ = result_total;

  // Non-key marginals keep their shape, rescaled to the result total
  // (independence again). Key marginals take the matched distribution.
  auto scale_into = [&](const std::map<int64_t, double>& source,
                        double source_total, size_t dim) {
    for (const auto& [coord, mass] : source) {
      result->marginals_[dim][coord] +=
          mass / source_total * result_total;
      ++work;
    }
  };
  std::vector<bool> left_is_key(ldims, false);
  std::vector<bool> right_is_key(rhs.schema_.num_fields(), false);
  for (size_t k = 0; k < keys.size(); ++k) {
    left_is_key[keys[k].first] = true;
    right_is_key[keys[k].second] = true;
    double mass = 0;
    for (const auto& [coord, m] : key_distributions[k]) mass += m;
    if (mass <= 0) continue;
    // Both output key columns share the matched distribution.
    for (const auto& [coord, m] : key_distributions[k]) {
      result->marginals_[keys[k].first][coord] += m / mass * result_total;
      result->marginals_[ldims + keys[k].second][coord] +=
          m / mass * result_total;
      ++work;
    }
  }
  for (size_t d = 0; d < ldims; ++d) {
    if (!left_is_key[d]) scale_into(marginals_[d], total_count_, d);
  }
  for (size_t d = 0; d < rhs.schema_.num_fields(); ++d) {
    if (!right_is_key[d]) {
      scale_into(rhs.marginals_[d], rhs.total_count_, ldims + d);
    }
  }
  if (stats != nullptr) stats->work += work;
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> AviHistogram::DoProject(
    const std::vector<size_t>& indices, Schema projected_schema,
    OpStats* stats) const {
  auto result = std::unique_ptr<AviHistogram>(
      new AviHistogram(std::move(projected_schema), config_));
  result->marginals_.clear();
  for (size_t i : indices) result->marginals_.push_back(marginals_[i]);
  result->total_count_ = total_count_;
  if (stats != nullptr) {
    stats->work += static_cast<int64_t>(indices.size());
  }
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> AviHistogram::Filter(const plan::BoundExpr& predicate,
                                         OpStats* stats) const {
  std::vector<size_t> columns;
  CollectColumns(predicate, &columns);
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()),
                columns.end());
  if (columns.size() > 1) {
    return Status::Unimplemented(
        "AVI histograms factor per column and cannot apply multi-column "
        "predicates");
  }
  auto result =
      std::unique_ptr<AviHistogram>(new AviHistogram(schema_, config_));
  if (columns.empty()) {
    // Constant predicate: keep everything or nothing.
    std::vector<Value> stub(schema_.num_fields(), Value::Double(0.0));
    if (predicate.EvaluatesToTrue(Tuple(stub))) {
      result->marginals_ = marginals_;
      result->total_count_ = total_count_;
    }
    return SynopsisPtr(std::move(result));
  }
  const size_t dim = columns[0];
  if (dim >= schema_.num_fields()) {
    return Status::OutOfRange("predicate column out of range");
  }
  // Evaluate the predicate at each cell midpoint of the referenced
  // column, with unreferenced columns stubbed at their marginal means.
  std::vector<Value> stub;
  for (size_t d = 0; d < schema_.num_fields(); ++d) {
    stub.push_back(Value::Double(MarginalMean(d)));
  }
  double kept_mass = 0;
  std::map<int64_t, double> kept_marginal;
  int64_t work = 0;
  for (const auto& [coord, mass] : marginals_[dim]) {
    ++work;
    stub[dim] = Value::Double(CellMidpoint(coord));
    if (predicate.EvaluatesToTrue(Tuple(stub))) {
      kept_marginal[coord] = mass;
      kept_mass += mass;
    }
  }
  if (kept_mass > 0 && total_count_ > 0) {
    const double scale = kept_mass / total_count_;
    result->total_count_ = kept_mass;
    for (size_t d = 0; d < schema_.num_fields(); ++d) {
      if (d == dim) {
        result->marginals_[d] = kept_marginal;
        continue;
      }
      for (const auto& [coord, mass] : marginals_[d]) {
        result->marginals_[d][coord] = mass * scale;
        ++work;
      }
    }
  }
  if (stats != nullptr) stats->work += work;
  return SynopsisPtr(std::move(result));
}

Result<GroupedEstimate> AviHistogram::DoEstimateGroups(
    const std::vector<size_t>& group_columns,
    const std::vector<size_t>& agg_columns) const {
  GroupedEstimate groups;
  if (total_count_ <= 0) return groups;
  if (group_columns.empty()) {
    auto [it, inserted] = groups.try_emplace(std::vector<Value>{});
    it->second.resize(agg_columns.size());
    for (size_t a = 0; a < agg_columns.size(); ++a) {
      if (agg_columns[a] == kCountOnlyColumn) {
        it->second[a].count += total_count_;
      } else {
        it->second[a].Add(MarginalMean(agg_columns[a]), total_count_);
      }
    }
    return groups;
  }

  // Enumerate integer points per group dimension, weighting by the
  // product of marginal shares (AVI).
  std::vector<std::vector<std::pair<Value, double>>> per_dim;
  for (size_t g : group_columns) {
    std::vector<std::pair<Value, double>> points;
    const bool integral = schema_.field(g).type == FieldType::kInt64;
    for (const auto& [coord, mass] : marginals_[g]) {
      if (integral) {
        const int64_t lo = static_cast<int64_t>(
            std::ceil(coord * config_.cell_width));
        const int64_t hi = static_cast<int64_t>(std::ceil(
                               (coord + 1) * config_.cell_width)) -
                           1;
        const double n = std::max<double>(1.0, hi - lo + 1.0);
        for (int64_t v = lo; v <= hi; ++v) {
          points.emplace_back(Value::Int64(v), mass / n / total_count_);
        }
      } else {
        points.emplace_back(Value::Double(CellMidpoint(coord)),
                            mass / total_count_);
      }
    }
    per_dim.push_back(std::move(points));
  }
  std::vector<size_t> cursor(per_dim.size(), 0);
  while (true) {
    std::vector<Value> key;
    double share = 1.0;
    for (size_t d = 0; d < per_dim.size(); ++d) {
      if (per_dim[d].empty()) {
        share = 0;
        break;
      }
      key.push_back(per_dim[d][cursor[d]].first);
      share *= per_dim[d][cursor[d]].second;
    }
    const double weight = share * total_count_;
    if (weight > 0) {
      auto [it, inserted] = groups.try_emplace(std::move(key));
      if (inserted) it->second.resize(agg_columns.size());
      for (size_t a = 0; a < agg_columns.size(); ++a) {
        if (agg_columns[a] == kCountOnlyColumn) {
          it->second[a].count += weight;
          continue;
        }
        double value = MarginalMean(agg_columns[a]);
        for (size_t d = 0; d < group_columns.size(); ++d) {
          if (group_columns[d] == agg_columns[a]) {
            value = per_dim[d][cursor[d]].first.AsDouble();
            break;
          }
        }
        it->second[a].Add(value, weight);
      }
    }
    size_t d = 0;
    for (; d < cursor.size(); ++d) {
      if (per_dim[d].empty()) break;
      if (++cursor[d] < per_dim[d].size()) break;
      cursor[d] = 0;
    }
    if (d == cursor.size() || per_dim[d].empty()) break;
  }
  return groups;
}

double AviHistogram::EstimatePointCount(const Tuple& point) const {
  DT_CHECK_EQ(point.size(), schema_.num_fields());
  if (total_count_ <= 0) return 0.0;
  double estimate = total_count_;
  for (size_t d = 0; d < point.size(); ++d) {
    auto it = marginals_[d].find(CellCoord(point.value(d).AsDouble()));
    if (it == marginals_[d].end()) return 0.0;
    double share = it->second / total_count_;
    if (schema_.field(d).type == FieldType::kInt64) {
      share /= ValuesPerCell();
    }
    estimate *= share;
  }
  return estimate;
}

void AviHistogram::SaveState(serde::Writer* writer) const {
  writer->WriteDouble(config_.cell_width);
  writer->WriteU64(marginals_.size());
  for (const auto& marginal : marginals_) {
    writer->WriteU64(marginal.size());
    for (const auto& [coord, mass] : marginal) {
      writer->WriteI64(coord);
      writer->WriteDouble(mass);
    }
  }
  writer->WriteDouble(total_count_);
}

Status AviHistogram::LoadState(serde::Reader* reader) {
  DT_ASSIGN_OR_RETURN(config_.cell_width, reader->ReadDouble());
  DT_ASSIGN_OR_RETURN(const uint64_t dims, reader->ReadCount(8));
  marginals_.assign(dims, {});
  for (uint64_t d = 0; d < dims; ++d) {
    DT_ASSIGN_OR_RETURN(const uint64_t cells, reader->ReadCount(16));
    for (uint64_t i = 0; i < cells; ++i) {
      DT_ASSIGN_OR_RETURN(const int64_t coord, reader->ReadI64());
      DT_ASSIGN_OR_RETURN(const double mass, reader->ReadDouble());
      marginals_[d].emplace(coord, mass);
    }
  }
  DT_ASSIGN_OR_RETURN(total_count_, reader->ReadDouble());
  return Status::OK();
}

}  // namespace datatriage::synopsis
