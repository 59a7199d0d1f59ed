#ifndef DATATRIAGE_EXEC_EVALUATOR_H_
#define DATATRIAGE_EXEC_EVALUATOR_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/exec/relation.h"
#include "src/plan/logical_plan.h"

namespace datatriage::exec {

/// Work accounting for one plan evaluation, in abstract work units (one
/// unit ~ one tuple touched). The engine's virtual-time cost model converts
/// units to virtual seconds; benchmarks report them directly.
struct ExecStats {
  int64_t tuples_scanned = 0;
  int64_t tuples_output = 0;
  int64_t join_probes = 0;
  int64_t join_build_inserts = 0;
  int64_t comparisons = 0;

  int64_t TotalWork() const {
    return tuples_scanned + tuples_output + join_probes +
           join_build_inserts + comparisons;
  }

  ExecStats& operator+=(const ExecStats& other);
};

class TaskPool;

/// Executor dispatch options. The vectorized path (vector_eval.h) and the
/// scalar path are byte-for-byte interchangeable — same rows, same row
/// order, same ExecStats — so these options affect speed only, never
/// results. `min_rows` keeps tiny evaluations on the scalar path, where
/// the row→column conversion would dominate: vectorization engages only
/// when the provider holds at least that many input tuples in total.
struct EvalOptions {
  bool vectorized = false;
  size_t min_rows = 0;

  /// Helper pool for morsel-parallel join/aggregate kernels
  /// (task_pool.h); nullptr keeps every kernel single-threaded. Like
  /// `vectorized`, this trades nothing but speed: morsel partials merge
  /// in a deterministic order (DESIGN.md §16.2), so results, row order,
  /// and ExecStats stay byte-identical. Only meaningful together with
  /// `vectorized` — the scalar reference path never splits.
  TaskPool* pool = nullptr;
  /// Minimum rows a kernel input needs before it splits into morsels;
  /// smaller inputs run the serial vectorized loop, where partition +
  /// merge overhead would dominate. Purely a performance threshold.
  size_t parallel_min_rows = 0;
};

/// Evaluates a logical plan exactly over materialized inputs.
///
/// Joins use an open-addressing hash table (FlatTable) on the equijoin
/// keys, building on the smaller input; keyless joins fall back to
/// nested-loop cross products. Set difference uses multiset (monus)
/// semantics, matching the algebra in paper Sec. 3. Aggregation is a hash
/// group-by over the same table.
///
/// Internally operators exchange RelationViews: scans and filters pass
/// borrowed tuples, and only operators that create new rows (project,
/// compute, join, aggregate) own their output. Hash keys are (tuple
/// pointer, index list) views with precomputed hashes — no Value is
/// copied to build or probe a table.
///
/// This class is the reference scalar implementation; the column-major
/// executor in vector_eval.h reuses its operator kernels (the scalar::
/// functions below) for semantics it does not vectorize.
class Evaluator {
 public:
  explicit Evaluator(const RelationProvider* inputs) : inputs_(inputs) {}

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// Evaluates `plan`; the result's column order matches plan.schema().
  Result<Relation> Evaluate(const plan::LogicalPlan& plan);

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats(); }

 private:
  /// Dispatch used for operator inputs: results may borrow from the
  /// provider or from a child view's owned storage.
  Result<RelationView> EvaluateView(const plan::LogicalPlan& plan);

  Result<RelationView> EvaluateScan(const plan::LogicalPlan& plan);

  const RelationProvider* inputs_;
  ExecStats stats_;
};

/// The scalar operator kernels, shared between Evaluator and the
/// vectorized executor's fallback paths. Each takes fully-evaluated child
/// views, charges `stats` exactly as the tuple-at-a-time loop always has,
/// and returns the operator's output view.
namespace scalar {

RelationView Filter(const plan::LogicalPlan& plan, const RelationView& input,
                    ExecStats* stats);
RelationView Project(const plan::LogicalPlan& plan,
                     const RelationView& input, ExecStats* stats);
RelationView Compute(const plan::LogicalPlan& plan,
                     const RelationView& input, ExecStats* stats);
RelationView Join(const plan::LogicalPlan& plan, const RelationView& left,
                  const RelationView& right, ExecStats* stats);
RelationView UnionAll(RelationView left, RelationView right,
                      ExecStats* stats);
RelationView SetDifference(const RelationView& left,
                           const RelationView& right, ExecStats* stats);
Result<RelationView> Aggregate(const plan::LogicalPlan& plan,
                               const RelationView& input, ExecStats* stats);

}  // namespace scalar

/// The executor path rule: true when `plan` over `inputs` runs on the
/// column-major executor (vector_eval.h) — `options.vectorized`, no
/// pattern operator (MATCH has no vectorized kernel), and at least
/// `options.min_rows` input tuples in total. EvaluatePlan follows it, and
/// so must any caller that drives VectorEvaluator directly to keep the
/// batch output columnar.
bool UsesVectorizedPath(const plan::LogicalPlan& plan,
                        const RelationProvider& inputs,
                        const EvalOptions& options);

/// One-shot convenience wrapper. Runs the plan on the executor
/// UsesVectorizedPath picks and materializes the output rows; the output
/// is byte-identical either way.
Result<Relation> EvaluatePlan(const plan::LogicalPlan& plan,
                              const RelationProvider& inputs,
                              ExecStats* stats = nullptr,
                              const EvalOptions& options = EvalOptions());

}  // namespace datatriage::exec

#endif  // DATATRIAGE_EXEC_EVALUATOR_H_
