#ifndef DATATRIAGE_SERVER_SIM_FAULTS_H_
#define DATATRIAGE_SERVER_SIM_FAULTS_H_

#include <cstddef>
#include <cstdint>

#include "src/common/virtual_time.h"

namespace datatriage::server {

/// Deterministic fault injection for simulation testing (src/sim/,
/// DESIGN.md Sec. 12). A StreamServer under test takes one SimFaults via
/// SetSimFaults() *before* any RegisterQuery; the hooks fire at fixed
/// points of the ingest and task-scheduler paths. Every fault is a pure
/// function of virtual time and per-session state — never of wall-clock
/// or thread scheduling — so a faulted run stays byte-identical across
/// worker counts, which is exactly what lets the differential oracles
/// compare serial and parallel executions of the same faulted scenario.
struct SimFaults {
  // --- Ingest-plane faults (src/server/ingest.*, query_session.cc) ---

  /// Forced queue overflow ("zero-capacity window"): every arrival whose
  /// timestamp falls in [overflow_from, overflow_to) is shed at the
  /// queue boundary as if the triage queue were full with the arrival
  /// itself chosen as victim — it is synopsized or discarded by the
  /// session's normal shed path and counted under the dedicated
  /// stream.<name>.dropped.fault_shed cause, keeping the drop-cause
  /// partition invariant intact.
  bool force_overflow = false;
  VirtualTime overflow_from = 0.0;
  VirtualTime overflow_to = 0.0;

  /// Delayed consumer ("delayed window"): `stall_seconds` of extra
  /// virtual processing time charged to the session clock for every
  /// arrival in [stall_from, stall_to), pushing emissions past their
  /// deadlines and forcing deadline sheds without touching the queue.
  double stall_seconds = 0.0;
  VirtualTime stall_from = 0.0;
  VirtualTime stall_to = 0.0;

  // --- Scheduler faults (src/server/task_scheduler.*, parallel.h) ---

  /// Session-to-worker placement override. kModulo is the production
  /// rule (session id % workers); the adversarial variants pile every
  /// session onto one worker or reverse the assignment. The override
  /// fixes each session's home for its whole life — per-session output
  /// must not change either way.
  enum class Sharding : uint8_t { kModulo, kSingleWorker, kReversed };
  Sharding sharding = Sharding::kModulo;

  /// When > 0, overrides the server's per-session task-ring capacity
  /// (1024 slots) with a deliberately tiny ring so the dispatching
  /// thread constantly hits the backpressure (full-ring) path.
  size_t task_queue_capacity_override = 0;

  /// When > 0, the dispatching thread yields after every N enqueued
  /// tasks — a scheduling perturbation that shuffles thread
  /// interleavings (useful under TSan) without affecting any virtual
  /// clock.
  uint64_t dispatch_yield_every = 0;
};

/// The sharding rule with the fault override applied; reduces to
/// WorkerForSession (parallel.h) when `faults` is null or kModulo.
size_t WorkerForSessionFaulted(uint32_t session_id, size_t workers,
                               const SimFaults* faults);

}  // namespace datatriage::server

#endif  // DATATRIAGE_SERVER_SIM_FAULTS_H_
