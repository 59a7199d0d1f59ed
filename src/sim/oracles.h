#ifndef DATATRIAGE_SIM_ORACLES_H_
#define DATATRIAGE_SIM_ORACLES_H_

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/virtual_time.h"
#include "src/engine/window_result.h"
#include "src/sim/scenario_gen.h"

namespace datatriage::sim {

/// One query's normalized run output, the unit every differential oracle
/// compares: results CSV, stats snapshot, and metrics+trace JSON are the
/// three byte-comparable projections of a session's observable state.
struct QueryRunOutput {
  std::string results_csv;
  engine::EngineStatsSnapshot snapshot;
  std::string metrics_json;
  std::vector<engine::WindowResult> results;
  /// Admission horizon stamped at registration (DESIGN.md Sec. 14):
  /// -inf for sessions registered up front, the next window boundary
  /// after the arrival clock for sessions registered mid-stream. The
  /// suffix-equivalence oracle feeds a solo server only events at or
  /// after this time.
  VirtualTime admit_from = -std::numeric_limits<double>::infinity();
};

/// Per-session outputs of one server run (indexed like scenario.queries).
/// Plane-level ("server" section) metrics are deliberately excluded:
/// worker gauges carry wall-clock readings, which are not deterministic
/// across worker counts by design.
struct ServerRunOutput {
  std::vector<QueryRunOutput> sessions;
  /// Sealed SnapshotSession bytes of session 0 taken immediately before
  /// event scenario.snapshot_at_event; empty when the scenario takes no
  /// snapshot. Must be byte-identical across worker counts (the snapshot
  /// is a pure function of the delivered subsequence).
  std::string session_snapshot;
};

/// Runs the scenario on a StreamServer with `worker_threads` workers
/// (0 = serial inline mode), honoring the scenario's push plan (batch
/// size, poison batch, mid-stream finish) and churn plan (mid-stream
/// registration, unregistration, and the session-0 snapshot point).
/// `install_faults` wires scenario.faults into the server before
/// registration.
Result<ServerRunOutput> RunOnServer(const SimScenario& scenario,
                                    size_t worker_threads,
                                    bool install_faults);

/// Oracle: two server runs are byte-identical per session (results CSV,
/// snapshot, metrics JSON). Used serial-vs-replay and serial-vs-parallel.
/// `compare_snapshots` additionally demands byte-identical session-0
/// snapshot bytes — on for replay/parallel comparisons, off when the two
/// runs legitimately serialize different configs (executor-mode flips).
Status CheckRunsEquivalent(const ServerRunOutput& a,
                           const ServerRunOutput& b,
                           std::string_view a_label,
                           std::string_view b_label,
                           bool compare_snapshots = true);

/// Oracle: the session-0 snapshot taken mid-run restores into a fresh
/// server (same catalog and fault plan, serial) that, fed the remaining
/// events of the pushed feed, finishes byte-identical to the donor
/// session's full run. No-op when the scenario took no snapshot.
Status CheckSnapshotRestore(const SimScenario& scenario,
                            const ServerRunOutput& base,
                            bool install_faults);

/// Oracle: Q co-hosted sessions = Q solo servers. Every hosted session
/// matches a one-session serial server running its query over its own
/// streams, cut to its churn envelope (admission horizon to
/// unregistration, which drains exactly like Finish), byte for byte.
/// `install_faults` must be what the server run used: faults are
/// functions of virtual time and per-session state, so a solo server
/// replays them exactly.
Status CheckSoloEquivalence(const SimScenario& scenario,
                            const ServerRunOutput& server_run,
                            bool install_faults);

/// Oracle: conservation invariants of one session — ingested = kept +
/// dropped, the drop-cause counters partition the dropped count, core
/// stats agree with the registry counters, and windows emit in strictly
/// increasing order at non-decreasing emit times.
Status CheckConservation(const QueryRunOutput& run);

/// Oracle: memory-accounting invariants of one session (DESIGN.md §15).
/// Always: every mem.<component>.bytes gauge reads 0 after Finish (each
/// charge had a matching release). When `budgeted`, additionally: the
/// enforcement self-check counters mem.boundary_over_budget and
/// mem.invariant_violations exist and are exactly 0.
Status CheckMemoryAccounting(const QueryRunOutput& run, bool budgeted);

/// Oracle: accuracy against the offline ideal evaluation, for queries
/// with AccuracyEligible(). Checks (a) the scenario run's merged-channel
/// RMS error vs the ideal is finite, and (b) an ideal solo run of the
/// same query (zero-cost model, queue larger than the feed) sheds
/// nothing and has exactly zero RMS error.
Status CheckAccuracy(const SimScenario& scenario, size_t query_index,
                     const QueryRunOutput& run);

/// Oracle for MATCH queries (no-op for others):
/// (a) Monotonicity — every exact match row the scenario run emitted
///     appears (with at least that multiplicity, per window) in an ideal
///     zero-shed run of the same query: shedding may lose matches but
///     can never invent one.
/// (b) When the scenario run shed nothing — zero tuples_dropped and zero
///     per-window drops — its match rows equal the ideal run's exactly.
/// (c) Utility-vs-random parity at zero shed: ideal runs under the
///     utility and random drop policies emit identical match rows (the
///     policies may only differ in *which* tuples they shed, never in
///     what the NFA computes over kept tuples).
Status CheckPattern(const SimScenario& scenario, size_t query_index,
                    const QueryRunOutput& run);

}  // namespace datatriage::sim

#endif  // DATATRIAGE_SIM_ORACLES_H_
