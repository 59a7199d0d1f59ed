#ifndef DATATRIAGE_SYNOPSIS_RESERVOIR_SAMPLE_H_
#define DATATRIAGE_SYNOPSIS_RESERVOIR_SAMPLE_H_

#include <vector>

#include "src/common/mem_accounting.h"
#include "src/common/random.h"
#include "src/synopsis/synopsis.h"

namespace datatriage::synopsis {

struct ReservoirSampleConfig {
  /// Sample capacity (Vitter's algorithm R).
  size_t capacity = 64;
  /// Seed for the replacement decisions.
  uint64_t seed = 1;
};

/// Uniform-sample synopsis: keeps up to `capacity` tuples via reservoir
/// sampling and scales each by n/k at estimation time. Joining scaled
/// samples is unbiased but high-variance (the sampling-over-joins problem
/// of Chaudhuri et al., cited in paper Sec. 2) — it exists as the
/// sampling baseline for the synopsis-type ablation (DESIGN.md A1).
///
/// Algebra results (unions, joins, projections of samples) are no longer
/// reservoirs; they become materialized weighted-row sets carried by the
/// same class with sampling disabled.
class ReservoirSample final : public Synopsis {
 public:
  static Result<SynopsisPtr> Make(Schema schema,
                                  const ReservoirSampleConfig& config);

  SynopsisType type() const override {
    return SynopsisType::kReservoirSample;
  }

  void Insert(const Tuple& tuple) override;
  double TotalCount() const override;
  size_t SizeInCells() const override { return rows_.size(); }
  size_t MemoryBytes() const override { return row_bytes_; }
  SynopsisPtr Clone() const override;

  Result<SynopsisPtr> Filter(const plan::BoundExpr& predicate,
                             OpStats* stats) const override;
  double EstimatePointCount(const Tuple& point) const override;

  void SaveState(serde::Writer* writer) const override;
  Status LoadState(serde::Reader* reader) override;

  /// Stored rows with their current scaled weights.
  std::vector<WeightedRow> ScaledRows() const;

  int64_t tuples_seen() const { return seen_; }

 private:
  Result<SynopsisPtr> DoUnionAll(const Synopsis& other,
                                 OpStats* stats) const override;
  Result<SynopsisPtr> DoEquiJoin(
      const Synopsis& other,
      const std::vector<std::pair<size_t, size_t>>& keys,
      Schema joined_schema, OpStats* stats) const override;
  Result<SynopsisPtr> DoProject(const std::vector<size_t>& indices,
                                Schema projected_schema,
                                OpStats* stats) const override;
  Result<GroupedEstimate> DoEstimateGroups(
      const std::vector<size_t>& group_columns,
      const std::vector<size_t>& agg_columns) const override;

  ReservoirSample(Schema schema, const ReservoirSampleConfig& config)
      : Synopsis(std::move(schema)), config_(config), rng_(config.seed) {}

  /// Scale factor mapping stored base weights to population estimates.
  double ScaleFactor() const;

  /// Rebuilds row_bytes_ from rows_; algebra builders call this once on
  /// their result, Insert maintains it incrementally.
  void RecomputeMemoryBytes();

  ReservoirSampleConfig config_;
  Rng rng_;
  /// True once this instance holds op results instead of a live sample.
  bool materialized_ = false;
  int64_t seen_ = 0;
  std::vector<WeightedRow> rows_;
  size_t row_bytes_ = mem::kSynopsisBaseBytes;
};

}  // namespace datatriage::synopsis

#endif  // DATATRIAGE_SYNOPSIS_RESERVOIR_SAMPLE_H_
