#ifndef DATATRIAGE_SYNOPSIS_MHIST_H_
#define DATATRIAGE_SYNOPSIS_MHIST_H_

#include <vector>

#include "src/synopsis/synopsis.h"

namespace datatriage::synopsis {

struct MHistConfig {
  /// Bucket budget for the MAXDIFF build.
  size_t max_buckets = 64;
  /// When true, split boundaries snap to multiples of `alignment_step` —
  /// the constrained variant the paper proposes in Sec. 8.1 to avoid the
  /// quadratic bucket blowup of unaligned joins.
  bool aligned = false;
  double alignment_step = 4.0;
};

/// MHIST multidimensional histogram built with the MAXDIFF heuristic
/// (Poosala & Ioannidis), the paper's more accurate but slower synopsis.
///
/// Buckets are axis-aligned hyperrectangles [lo, hi) with a tuple count
/// under a per-bucket uniformity assumption. Tuples accumulate in a buffer
/// and the histogram is built lazily on first use; algebra results carry
/// materialized buckets directly.
///
/// Joining two MHISTs intersects bucket ranges on the key dimensions.
/// When bucket boundaries do not line up, each overlapping pair yields a
/// distinct output bucket — the quadratic blowup the paper observed
/// (Sec. 5.2.2); the work accounting makes that cost visible to the
/// engine's virtual-time model and to benchmark E1/Fig. 6.
class MHist final : public Synopsis {
 public:
  static Result<SynopsisPtr> Make(Schema schema, const MHistConfig& config);

  SynopsisType type() const override {
    return config_.aligned ? SynopsisType::kAlignedMHist
                           : SynopsisType::kMHist;
  }

  void Insert(const Tuple& tuple) override;
  double TotalCount() const override { return total_count_; }
  size_t SizeInCells() const override;
  size_t MemoryBytes() const override;
  SynopsisPtr Clone() const override;

  Result<SynopsisPtr> Filter(const plan::BoundExpr& predicate,
                             OpStats* stats) const override;
  double EstimatePointCount(const Tuple& point) const override;

  void SaveState(serde::Writer* writer) const override;
  Status LoadState(serde::Reader* reader) override;

  struct Bucket {
    std::vector<double> lo;  // inclusive
    std::vector<double> hi;  // exclusive
    double count = 0.0;
  };

  /// Built buckets (triggers the lazy MAXDIFF build).
  const std::vector<Bucket>& buckets() const;

  const MHistConfig& config() const { return config_; }

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

  MHist(Schema schema, const MHistConfig& config)
      : Synopsis(std::move(schema)), config_(config) {}

  /// Runs the MAXDIFF build over buffered tuples if not yet built.
  /// Returns the work expended (0 if already built).
  int64_t EnsureBuilt() const;

  /// Number of integer lattice points of `bucket` along dimension `dim`
  /// (>= 1; used for uniformity-based estimates on integer columns).
  double PointsAlong(const Bucket& bucket, size_t dim) const;

  /// Model bytes of one bucket (two boundary vectors + count).
  size_t BucketModelBytes() const;

  /// Rebuilds state_bytes_ from buffer_/buckets_. Buckets only count
  /// once the lazy buffer is gone (built_ && buffer_.empty()), so a
  /// const-read EnsureBuilt never changes MemoryBytes() — see the
  /// Synopsis::MemoryBytes contract.
  void RecomputeMemoryBytes();

  MHistConfig config_;
  // Build inputs (sampling mode).
  std::vector<Tuple> buffer_;
  // Built or materialized buckets.
  mutable bool built_ = false;
  mutable std::vector<Bucket> buckets_;
  double total_count_ = 0.0;
  size_t state_bytes_ = 0;
};

}  // namespace datatriage::synopsis

#endif  // DATATRIAGE_SYNOPSIS_MHIST_H_
