#ifndef DATATRIAGE_ENGINE_MERGE_H_
#define DATATRIAGE_ENGINE_MERGE_H_

#include <vector>

#include "src/common/mem_accounting.h"
#include "src/common/result.h"
#include "src/exec/relation.h"
#include "src/plan/binder.h"
#include "src/synopsis/synopsis.h"

namespace datatriage::engine {

/// Column bookkeeping for merging exact results with shadow estimates
/// (paper Fig. 2's "Merge" stage / Sec. 8.1: "we merged these streams by
/// merging the aggregates computed from a SQL GROUP BY statement with
/// approximate aggregates computed from synopses").
struct AggregationSpec {
  /// Grouping columns, as indices into the SPJ core's output schema.
  std::vector<size_t> group_columns;
  /// One entry per aggregate: its input column in the SPJ schema, or
  /// synopsis::kCountOnlyColumn for COUNT(*).
  std::vector<size_t> agg_columns;
};

/// Derives the spec from a bound aggregate query.
Result<AggregationSpec> MakeAggregationSpec(const plan::BoundQuery& query);

/// Aggregates exact SPJ rows into per-group accumulators, mirroring what
/// Synopsis::EstimateGroups produces for the shadow side so the two merge
/// additively. With `vectorized` the rows are converted to a column batch
/// and handed to the BatchView overload below; the result is
/// byte-identical (same hashes, same per-group accumulation order), so
/// the flag affects speed only. Without it, a row-at-a-time loop runs:
/// the reference the columnar kernel is tested against.
///
/// When `account` is set, the transient group table and accumulator
/// arena are charged to Component::kMergeState for the duration of the
/// call. The charge sequence is a fixed model over (slot count, group
/// count) — both identical across executor modes — so accounting stays
/// byte-equivalent under the exec-mode-flip oracle; vectorized-only
/// transients (hash/column buffers) are deliberately not charged.
synopsis::GroupedEstimate AccumulateExact(
    const exec::Relation& spj_rows, const AggregationSpec& spec,
    bool vectorized = false, mem::SessionAccount* account = nullptr);

/// The columnar accumulate kernel: groups and accumulates the rows
/// `spj_view` selects, in selection order, straight from the vectorized
/// executor's output (VectorEvaluator::EvaluateView), so no SPJ row is
/// materialized. The result and the kMergeState charge sequence are
/// byte-identical to the Relation overload over `spj_view.ToRelation()`.
/// String cells are read through the view's borrowed pointers: whatever
/// owns them (the evaluator's provider) must outlive the call.
synopsis::GroupedEstimate AccumulateExact(const exec::BatchView& spj_view,
                                          const AggregationSpec& spec,
                                          mem::SessionAccount* account);

/// Adds `src`'s accumulators into `dst` group-wise.
void MergeGroupedEstimates(synopsis::GroupedEstimate* dst,
                           const synopsis::GroupedEstimate& src);

/// Renders accumulators as output rows shaped like the query's aggregate
/// output (group values first, then one value per aggregate, in the bound
/// order). With `exact_types` the aggregate values take the query's
/// declared types (COUNT -> INTEGER, ...); otherwise they are doubles,
/// since merged estimates are fractional. Groups whose total weight is
/// ~zero are omitted.
Result<exec::Relation> BuildAggregateRows(
    const synopsis::GroupedEstimate& groups, const plan::BoundQuery& query,
    const AggregationSpec& spec, bool exact_types);

}  // namespace datatriage::engine

#endif  // DATATRIAGE_ENGINE_MERGE_H_
