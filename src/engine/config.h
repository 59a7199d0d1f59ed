#ifndef DATATRIAGE_ENGINE_CONFIG_H_
#define DATATRIAGE_ENGINE_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/engine/cost_model.h"
#include "src/synopsis/factory.h"
#include "src/triage/drop_policy.h"
#include "src/triage/shedding_strategy.h"
#include "src/tuple/tuple.h"

namespace datatriage::engine {

/// Per-query triage configuration. One StreamServer can host sessions with
/// different configs; each session's queues, synopses, and drop-policy RNGs
/// are derived from its own config (see src/server/).
struct EngineConfig {
  triage::SheddingStrategy strategy =
      triage::SheddingStrategy::kDataTriage;
  synopsis::SynopsisConfig synopsis;
  /// Per-stream triage queue capacity, in tuples.
  size_t queue_capacity = 100;
  triage::DropPolicyKind drop_policy = triage::DropPolicyKind::kRandom;
  /// Candidate-sample size for the synergistic policy (paper Sec. 8.1);
  /// only used when drop_policy == kSynergistic, which in turn requires a
  /// synopsizing strategy.
  size_t synergistic_candidates = 4;
  CostModel cost_model;
  /// Seed for the drop policies (one forked Rng per stream queue).
  uint64_t seed = 1;

  /// Run window evaluations on the column-major batch executor
  /// (src/exec/vector_eval.h) instead of the tuple-at-a-time reference
  /// path. The two produce byte-identical results, timestamps, and
  /// ExecStats — this flag trades nothing but speed. Also applied to the
  /// exact-synopsis shadow algebra.
  bool vectorized_exec = true;
  /// Minimum total input rows per evaluation before the vectorized path
  /// engages; smaller windows stay scalar, where the row-to-column
  /// conversion would dominate. Requires vectorized_exec.
  size_t vectorized_min_rows = 0;

  /// Per-session state budget, in model bytes (src/common/mem_accounting.h);
  /// 0 (the default) disables enforcement. When the session's tracked
  /// state exceeds the budget, memory-triggered triage folds the coldest
  /// buffered window (LRU by tuple arrival time — never wall-clock) into
  /// its dropped synopsis, counting the shed tuples under
  /// `dropped.memory_shed`. Determinism is preserved: eviction depends
  /// only on the event subsequence and this config.
  size_t memory_budget_bytes = 0;
  /// Floor below which the budget is rejected by Validate() — a budget
  /// smaller than one window of typical state would thrash (64 KiB).
  static constexpr size_t kMinMemoryBudgetBytes = 64 * 1024;

  /// Checks the config's internal invariants, returning a specific error
  /// for the first violation found: a zero queue_capacity, the
  /// synergistic drop policy without a synopsizing strategy, or a zero
  /// synergistic candidate-sample size. Both Make() overloads call this
  /// before constructing an engine; call it directly to validate
  /// user-supplied configs up front.
  Status Validate() const;
};

/// Scheduling configuration of a server::StreamServer: the worker pool
/// and intra-session operator parallelism (DESIGN.md §16). Placement is
/// fixed: session `id` runs on worker `id % worker_threads` for its
/// whole life, so per-session output never depends on either knob.
struct SchedulerOptions {
  /// Number of worker threads session execution is scheduled across.
  /// 0 (the default) runs every session inline on the pushing thread —
  /// the fully serial mode, no threads created. With
  /// intra_session_threads <= 1 the pool is clamped to the session
  /// count (extra threads would only idle); with intra-session
  /// parallelism the full complement is kept — morsel helpers are the
  /// TaskPool's own threads, and spare scheduler workers overlap
  /// sessions' serial stretches.
  size_t worker_threads = 0;

  /// Threads cooperating on one session's join/aggregate kernels
  /// (morsel-style partitions with a deterministic central merge,
  /// DESIGN.md §16.2), *including* the worker running the session —
  /// so 0 and 1 both mean "no operator parallelism". Values > 1
  /// require worker_threads > 0: the helpers belong to the server's
  /// task pool, and the serial inline path has none.
  size_t intra_session_threads = 0;

  /// Checks the scheduler invariants, returning a specific error for
  /// the first violation: worker_threads beyond the 256 ceiling,
  /// intra_session_threads without a pool, or an intra-session fan-out
  /// beyond the 64 ceiling.
  Status Validate() const;
};

/// Execution options of a server::StreamServer (kept here with the other
/// config types so callers configure a deployment from one header).
struct StreamServerOptions {
  /// Scheduling: worker pool size and intra-session operator
  /// parallelism. See SchedulerOptions.
  SchedulerOptions scheduler;

  /// Server-wide state budget, in model bytes, split evenly across live
  /// sessions (each session enforces min(its own memory_budget_bytes,
  /// its share)); 0 disables the server-wide budget. The split is
  /// recomputed on register/unregister — a deterministic function of the
  /// serial API-call sequence, not of scheduling.
  size_t memory_budget_bytes = 0;

  /// Checks the options' invariants: the scheduler's own invariants
  /// (Validate() on SchedulerOptions) and a memory budget that is zero
  /// or at least the per-session floor.
  Status Validate() const;
};

/// One tuple arriving on a named stream; the tuple's timestamp is its
/// arrival time on the virtual clock. The name is the wire format of an
/// arrival — the ingest plane resolves it to an interned StreamId once at
/// the boundary, and everything downstream routes by id.
struct StreamEvent {
  std::string stream;
  Tuple tuple;
};

}  // namespace datatriage::engine

#endif  // DATATRIAGE_ENGINE_CONFIG_H_
