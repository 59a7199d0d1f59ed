#include "src/synopsis/reservoir_sample.h"

#include "src/common/serde.h"
#include "src/tuple/serde.h"

namespace datatriage::synopsis {

Result<SynopsisPtr> ReservoirSample::Make(
    Schema schema, const ReservoirSampleConfig& config) {
  DT_RETURN_IF_ERROR(CheckNumericSchema(schema));
  if (config.capacity == 0) {
    return Status::InvalidArgument("reservoir capacity must be > 0");
  }
  return SynopsisPtr(new ReservoirSample(std::move(schema), config));
}

double ReservoirSample::ScaleFactor() const {
  if (materialized_) return 1.0;  // weights already scaled
  if (seen_ <= static_cast<int64_t>(config_.capacity)) return 1.0;
  return static_cast<double>(seen_) / static_cast<double>(rows_.size());
}

void ReservoirSample::Insert(const Tuple& tuple) {
  DT_CHECK(!materialized_) << "Insert into a materialized op result";
  DT_CHECK_EQ(tuple.size(), schema_.num_fields());
  ++seen_;
  if (rows_.size() < config_.capacity) {
    row_bytes_ += mem::TupleBytes(tuple) + mem::kWeightedRowBytes;
    rows_.push_back(WeightedRow{tuple, 1.0});
    return;
  }
  // Vitter's algorithm R: replace a random victim with probability k/n.
  const int64_t slot = rng_.UniformInt(0, seen_ - 1);
  if (slot < static_cast<int64_t>(config_.capacity)) {
    WeightedRow& victim = rows_[static_cast<size_t>(slot)];
    row_bytes_ -= mem::TupleBytes(victim.tuple);
    row_bytes_ += mem::TupleBytes(tuple);
    victim = WeightedRow{tuple, 1.0};
  }
}

void ReservoirSample::RecomputeMemoryBytes() {
  row_bytes_ = mem::kSynopsisBaseBytes;
  for (const WeightedRow& r : rows_) {
    row_bytes_ += mem::TupleBytes(r.tuple) + mem::kWeightedRowBytes;
  }
}

double ReservoirSample::TotalCount() const {
  if (!materialized_) return static_cast<double>(seen_);
  double total = 0;
  for (const WeightedRow& r : rows_) total += r.weight;
  return total;
}

std::vector<WeightedRow> ReservoirSample::ScaledRows() const {
  std::vector<WeightedRow> scaled = rows_;
  const double factor = ScaleFactor();
  if (factor != 1.0) {
    for (WeightedRow& r : scaled) r.weight *= factor;
  }
  return scaled;
}

SynopsisPtr ReservoirSample::Clone() const {
  ReservoirSampleConfig config = config_;
  // The PRNG cannot be copied mid-stream; derive a distinct but
  // deterministic continuation seed.
  config.seed = config_.seed ^ (0x5bd1e995ULL * (seen_ + 1));
  auto clone = std::unique_ptr<ReservoirSample>(
      new ReservoirSample(schema_, config));
  clone->materialized_ = materialized_;
  clone->seen_ = seen_;
  clone->rows_ = rows_;
  clone->row_bytes_ = row_bytes_;
  return clone;
}

Result<SynopsisPtr> ReservoirSample::DoUnionAll(const Synopsis& other,
                                                OpStats* stats) const {
  const auto& rhs = static_cast<const ReservoirSample&>(other);
  auto result = std::unique_ptr<ReservoirSample>(
      new ReservoirSample(schema_, config_));
  result->materialized_ = true;
  result->rows_ = ScaledRows();
  std::vector<WeightedRow> other_rows = rhs.ScaledRows();
  result->rows_.insert(result->rows_.end(), other_rows.begin(),
                       other_rows.end());
  result->RecomputeMemoryBytes();
  if (stats != nullptr) {
    stats->work += static_cast<int64_t>(result->rows_.size());
  }
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> ReservoirSample::DoEquiJoin(
    const Synopsis& other, const std::vector<std::pair<size_t, size_t>>& keys,
    Schema joined_schema, OpStats* stats) const {
  const auto& rhs = static_cast<const ReservoirSample&>(other);
  auto result = std::unique_ptr<ReservoirSample>(
      new ReservoirSample(std::move(joined_schema), config_));
  result->materialized_ = true;
  const std::vector<WeightedRow> left = ScaledRows();
  const std::vector<WeightedRow> right = rhs.ScaledRows();
  int64_t work = 0;
  for (const WeightedRow& l : left) {
    for (const WeightedRow& r : right) {
      ++work;
      bool match = true;
      for (const auto& [lk, rk] : keys) {
        if (!(l.tuple.value(lk) == r.tuple.value(rk))) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      // Each surviving pair was sampled with probability (k1/n1)(k2/n2);
      // the product of the scale-inflated weights is the unbiased
      // Horvitz-Thompson estimate.
      result->rows_.push_back(
          WeightedRow{l.tuple.Concat(r.tuple), l.weight * r.weight});
    }
  }
  result->RecomputeMemoryBytes();
  if (stats != nullptr) stats->work += work;
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> ReservoirSample::DoProject(
    const std::vector<size_t>& indices, Schema projected_schema,
    OpStats* stats) const {
  auto result = std::unique_ptr<ReservoirSample>(
      new ReservoirSample(std::move(projected_schema), config_));
  result->materialized_ = true;
  for (const WeightedRow& r : ScaledRows()) {
    result->rows_.push_back(
        WeightedRow{r.tuple.Project(indices), r.weight});
  }
  result->RecomputeMemoryBytes();
  if (stats != nullptr) stats->work += static_cast<int64_t>(rows_.size());
  return SynopsisPtr(std::move(result));
}

Result<SynopsisPtr> ReservoirSample::Filter(const plan::BoundExpr& predicate,
                                            OpStats* stats) const {
  auto result = std::unique_ptr<ReservoirSample>(
      new ReservoirSample(schema_, config_));
  result->materialized_ = true;
  for (const WeightedRow& r : ScaledRows()) {
    if (predicate.EvaluatesToTrue(r.tuple)) result->rows_.push_back(r);
  }
  result->RecomputeMemoryBytes();
  if (stats != nullptr) stats->work += static_cast<int64_t>(rows_.size());
  return SynopsisPtr(std::move(result));
}

Result<GroupedEstimate> ReservoirSample::DoEstimateGroups(
    const std::vector<size_t>& group_columns,
    const std::vector<size_t>& agg_columns) const {
  GroupedEstimate groups;
  for (const WeightedRow& r : ScaledRows()) {
    std::vector<Value> key;
    key.reserve(group_columns.size());
    for (size_t g : group_columns) key.push_back(r.tuple.value(g));
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) it->second.resize(agg_columns.size());
    for (size_t a = 0; a < agg_columns.size(); ++a) {
      if (agg_columns[a] == kCountOnlyColumn) {
        it->second[a].count += r.weight;
      } else {
        it->second[a].Add(r.tuple.value(agg_columns[a]).AsDouble(),
                          r.weight);
      }
    }
  }
  return groups;
}

double ReservoirSample::EstimatePointCount(const Tuple& point) const {
  double total = 0;
  for (const WeightedRow& r : ScaledRows()) {
    if (r.tuple == point) total += r.weight;
  }
  return total;
}

void ReservoirSample::SaveState(serde::Writer* writer) const {
  writer->WriteU64(config_.capacity);
  writer->WriteU64(config_.seed);
  serde::SaveRngEngine(writer, rng_.engine());
  writer->WriteBool(materialized_);
  writer->WriteI64(seen_);
  writer->WriteU64(rows_.size());
  for (const WeightedRow& r : rows_) {
    SaveTuple(writer, r.tuple);
    writer->WriteDouble(r.weight);
  }
}

Status ReservoirSample::LoadState(serde::Reader* reader) {
  DT_ASSIGN_OR_RETURN(const uint64_t capacity, reader->ReadU64());
  config_.capacity = capacity;
  DT_ASSIGN_OR_RETURN(config_.seed, reader->ReadU64());
  DT_RETURN_IF_ERROR(serde::LoadRngEngine(reader, &rng_.engine()));
  DT_ASSIGN_OR_RETURN(materialized_, reader->ReadBool());
  DT_ASSIGN_OR_RETURN(seen_, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(const uint64_t num_rows, reader->ReadCount(16));
  rows_.clear();
  rows_.reserve(num_rows);
  for (uint64_t i = 0; i < num_rows; ++i) {
    WeightedRow r;
    DT_ASSIGN_OR_RETURN(r.tuple, LoadTuple(reader));
    DT_ASSIGN_OR_RETURN(r.weight, reader->ReadDouble());
    rows_.push_back(std::move(r));
  }
  RecomputeMemoryBytes();
  return Status::OK();
}

}  // namespace datatriage::synopsis
