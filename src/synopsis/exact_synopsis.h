#ifndef DATATRIAGE_SYNOPSIS_EXACT_SYNOPSIS_H_
#define DATATRIAGE_SYNOPSIS_EXACT_SYNOPSIS_H_

#include <vector>

#include "src/common/mem_accounting.h"
#include "src/synopsis/synopsis.h"

namespace datatriage::synopsis {

/// Lossless "synopsis": a weighted multiset of the actual tuples. Never
/// used for load shedding (it is as expensive as the data); it exists so
/// tests can verify the algebraic identity the Data Triage rewrite rests
/// on (paper Eq. 1: S = S_noisy − S+ + S−): running the shadow plan with
/// ExactSynopsis must reproduce the dropped query results exactly.
class ExactSynopsis final : public Synopsis {
 public:
  /// `vectorized_exec` routes EstimateGroups and EquiJoinWith through the
  /// column-at-a-time kernels (whole-column hashing, hash join instead of
  /// nested loops). Results — including floating-point accumulation order
  /// and reported OpStats work — are byte-identical either way; the flag
  /// is propagated to every synopsis derived from this one.
  static Result<SynopsisPtr> Make(Schema schema,
                                  bool vectorized_exec = true);

  SynopsisType type() const override { return SynopsisType::kExact; }

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

  const std::vector<WeightedRow>& rows() const { return rows_; }
  void AddRow(Tuple tuple, double weight);

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

  ExactSynopsis(Schema schema, bool vectorized_exec)
      : Synopsis(std::move(schema)), vectorized_(vectorized_exec) {}

  /// Column-at-a-time EstimateGroups (validated arguments, rows_ not
  /// empty): gathers the referenced columns as promoted doubles, hashes
  /// whole columns, and accumulates per aggregate in row order —
  /// byte-identical to the row-at-a-time staging.
  GroupedEstimate EstimateGroupsVectorized(
      const std::vector<size_t>& group_columns,
      const std::vector<size_t>& agg_columns) const;

  /// Rebuilds row_bytes_ from rows_; algebra builders call this once on
  /// their result instead of paying a per-row increment.
  void RecomputeMemoryBytes();

  std::vector<WeightedRow> rows_;
  size_t row_bytes_ = mem::kSynopsisBaseBytes;
  bool vectorized_ = true;
};

}  // namespace datatriage::synopsis

#endif  // DATATRIAGE_SYNOPSIS_EXACT_SYNOPSIS_H_
