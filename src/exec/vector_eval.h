#ifndef DATATRIAGE_EXEC_VECTOR_EVAL_H_
#define DATATRIAGE_EXEC_VECTOR_EVAL_H_

#include <map>
#include <memory>

#include "src/common/result.h"
#include "src/exec/column_batch.h"
#include "src/exec/evaluator.h"
#include "src/exec/relation.h"
#include "src/plan/logical_plan.h"

namespace datatriage::exec {

/// Column-major plan evaluator: the batch-at-a-time counterpart of
/// Evaluator. Operators exchange BatchViews (shared column batches plus
/// selection vectors) instead of RelationViews; filters and predicates run
/// as tight loops over typed arrays producing selection vectors, equijoins
/// hash whole key columns at once into FlatTable, and grouped aggregation
/// accumulates into a flat per-(group, aggregate) arena.
///
/// Contract: for any plan and inputs, the result Relation and the ExecStats
/// are byte-for-byte identical to Evaluator's — same rows, same row order,
/// same timestamps, same counter values. Every kernel reproduces the scalar
/// semantics exactly (double promotion in hashes/comparisons, FlatTable
/// slot-order outputs, FP accumulation in row-arrival order); rows the
/// kernels cannot vectorize (mixed-type "exception" columns, string
/// expressions inside arithmetic) fall back to per-row Value evaluation
/// within the same operator, never to a different answer.
///
/// The evaluator borrows from `*inputs` (string cells in scan batches point
/// into provider tuples), so it must not outlive the provider.
class VectorEvaluator {
 public:
  /// With a non-null `pool`, join and aggregate kernels split inputs of
  /// at least `parallel_min_rows` rows into morsels across the pool's
  /// threads; the deterministic central merge keeps the byte-identity
  /// contract above intact (DESIGN.md §16.2).
  explicit VectorEvaluator(const RelationProvider* inputs,
                           TaskPool* pool = nullptr,
                           size_t parallel_min_rows = 0)
      : inputs_(inputs),
        pool_(pool),
        parallel_min_rows_(parallel_min_rows) {}

  VectorEvaluator(const VectorEvaluator&) = delete;
  VectorEvaluator& operator=(const VectorEvaluator&) = delete;

  /// Evaluates `plan`; the result's column order matches plan.schema().
  Result<Relation> Evaluate(const plan::LogicalPlan& plan);

  /// Evaluates `plan` without materializing its output: the view's
  /// selected rows, in order, are exactly the rows Evaluate returns, and
  /// stats() is charged identically. The view's string cells may borrow
  /// from the provider's tuples, so `*inputs` must outlive every use of
  /// the view (the view itself keeps its batches alive, not the
  /// provider).
  Result<BatchView> EvaluateView(const plan::LogicalPlan& plan);

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats(); }

 private:
  Result<BatchView> EvaluateScan(const plan::LogicalPlan& plan);

  const RelationProvider* inputs_;
  TaskPool* pool_;
  size_t parallel_min_rows_;
  ExecStats stats_;
  /// Row→column conversion happens once per scanned channel per
  /// evaluation, at the window-buffer boundary; plans that scan the same
  /// channel twice (differential rewrites) share the batch.
  std::map<ChannelKey, std::shared_ptr<const ColumnBatch>> scan_cache_;
};

/// The vectorized operator kernels, the batch-at-a-time mirror of
/// `namespace scalar` in evaluator.h. Each takes fully-evaluated child
/// BatchViews, charges `stats` exactly as the scalar kernel does, and
/// returns the operator's output view without materializing rows. Exposed
/// so per-operator benchmarks (and future pipeline stages) can drive one
/// kernel over prebuilt batches; VectorEvaluator is a thin dispatcher
/// over these.
namespace vectorized {

BatchView Filter(const plan::LogicalPlan& plan, const BatchView& input,
                 ExecStats* stats);
BatchView Project(const plan::LogicalPlan& plan, const BatchView& input,
                  ExecStats* stats);
BatchView Compute(const plan::LogicalPlan& plan, const BatchView& input,
                  ExecStats* stats);
/// Join and Aggregate optionally run morsel-parallel: with a pool and an
/// input of at least `parallel_min_rows` rows, build/probe (join) and
/// group discovery (aggregate) split into fixed-size morsels whose
/// per-thread partial tables merge centrally in morsel order,
/// reproducing the serial kernel's bytes exactly (DESIGN.md §16.2).
/// Defaults keep both kernels single-threaded.
BatchView Join(const plan::LogicalPlan& plan, const BatchView& left,
               const BatchView& right, ExecStats* stats,
               TaskPool* pool = nullptr, size_t parallel_min_rows = 0);
BatchView UnionAll(const BatchView& left, const BatchView& right,
                   ExecStats* stats);
BatchView SetDifference(const BatchView& left, const BatchView& right,
                        ExecStats* stats);
Result<BatchView> Aggregate(const plan::LogicalPlan& plan,
                            const BatchView& input, ExecStats* stats,
                            TaskPool* pool = nullptr,
                            size_t parallel_min_rows = 0);

}  // namespace vectorized

}  // namespace datatriage::exec

#endif  // DATATRIAGE_EXEC_VECTOR_EVAL_H_
