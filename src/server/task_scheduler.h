#ifndef DATATRIAGE_SERVER_TASK_SCHEDULER_H_
#define DATATRIAGE_SERVER_TASK_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/server/parallel.h"

namespace datatriage::server {

/// Post-run accounting of one worker, read after Drain()/Stop() only.
/// tasks/busy_seconds are written by the worker thread and published by
/// the Stop() join; queue_depth_hwm is owned by the dispatching thread
/// outright.
struct TaskWorkerStats {
  /// Tasks executed: one per (push, session that received events), plus
  /// one finish per session.
  int64_t tasks = 0;
  /// Wall-clock seconds spent executing tasks (not idling). Wall time is
  /// observability-only — everything deterministic runs on virtual
  /// clocks — so this is the one place the server reads a real clock.
  double busy_seconds = 0.0;
  /// High-water mark of deliveries in flight (enqueued, not yet
  /// executed) on any one session homed on this worker — the unit of
  /// the backpressure bound.
  int64_t queue_depth_hwm = 0;
};

/// Fixed pool of worker threads consuming per-*session* bounded SPSC
/// task rings, fed by a single dispatching thread (the StreamServer's
/// ingest thread). Each ring's home worker is fixed when the session is
/// added (`id % K` by default), and only that worker ever pops it.
///
/// The determinism contract (DESIGN.md §11, §16.1): a session's tasks
/// sit in one FIFO ring with exactly one consumer for its whole life,
/// so each session is consumed in feed order on one thread. The worker
/// count moves *when* a session runs across wall-clock time, never
/// *what* it computes — per-session output is byte-identical across
/// worker counts.
///
/// Nobody spins for long: an idle worker parks on its own wake word
/// after a short spin, and the dispatching thread parks on a session's
/// completion counter while it waits for room (backpressure) or for the
/// barrier (Drain). Every such wait is an std::atomic wait whose waker
/// bumps the word first, so no wake-up is lost.
///
/// Error model: task execution is asynchronous, so a failing task cannot
/// fail the Push that enqueued it. The first error per session is
/// recorded and the session's remaining tasks are skipped (popped and
/// counted, not executed), mirroring how a serial run would have stopped
/// at its first failure. Drain()/Stop() surface the error of the
/// lowest-id errored session — a deterministic choice, thread timing
/// never picks the winner — and the dispatcher can poll error_seen()
/// between pushes to fail fast.
class TaskScheduler {
 public:
  /// Starts `workers` (>= 1) threads. Each session added later gets its
  /// own task ring; `max_in_flight` (> 0) bounds the deliveries a
  /// session may have enqueued but not yet executed before Dispatch
  /// blocks.
  TaskScheduler(size_t workers, size_t max_in_flight);

  /// Stops and joins outstanding workers (draining every ring first).
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Registers session `session_id` with its home worker, the ring's
  /// only consumer from now on. Session ids must arrive dense and in
  /// order (they index the ring table). Safe while workers run —
  /// mid-stream registration adds sessions between pushes; the home
  /// worker picks the new ring up on its next scan.
  void AddSession(uint32_t session_id, size_t home_worker);

  /// Enqueues `task` on `session_id`'s ring and wakes its home worker.
  /// Blocks (parked, not spinning) while the session has max_in_flight
  /// or more deliveries in flight — backpressure, never loss; the task
  /// itself may carry more. Must only be called from the single
  /// dispatching thread, and not after Stop().
  void Dispatch(uint32_t session_id, WorkerTask task);

  /// Simulation hook (SimFaults::dispatch_yield_every): when `every_n`
  /// is > 0 the dispatching thread yields after every N enqueued tasks,
  /// perturbing thread interleavings without touching any virtual clock.
  void SetDispatchYield(uint64_t every_n) { dispatch_yield_every_ = every_n; }

  /// Barrier: blocks until every dispatched task has executed, walking
  /// sessions in id order. Returns the deterministic first error (see
  /// class comment), OK when no task failed.
  Status Drain();

  /// Drain() + shut the threads down and join them. Idempotent; the
  /// scheduler cannot be restarted.
  Status Stop();

  /// True once any task has failed; cheap enough for per-push polling.
  bool error_seen() const {
    return error_seen_.load(std::memory_order_acquire);
  }

  /// The error of the lowest-id errored session; OK when none.
  Status first_error() const;

  size_t size() const { return workers_.size(); }

  /// Valid after Stop() (the join publishes worker-thread counters).
  TaskWorkerStats stats(size_t worker) const;

 private:
  /// One session's task ring and its completion cursors.
  struct SessionQueue {
    SessionQueue(uint32_t session_id, size_t ring_capacity,
                 size_t home_worker)
        : id(session_id), queue(ring_capacity), home(home_worker) {}

    const uint32_t id;
    SpscTaskQueue queue;
    /// The one worker that pops this ring, fixed at AddSession.
    const size_t home;
    /// Tasks enqueued (single writer: the dispatching thread);
    /// release-published after the slot lands. The task counters are
    /// 32-bit so they are futex words; they are only ever compared for
    /// equality, which wrap-around leaves intact.
    std::atomic<uint32_t> enqueued{0};
    /// Deliveries enqueued (dispatching thread only).
    uint64_t deliveries_enqueued = 0;
    /// Completion cursors (single writer: the home worker).
    /// deliveries_done is stored before executed, whose store
    /// publishes the task's session-state side effects; the
    /// dispatching thread parks on executed, and the worker notifies it
    /// after every task.
    alignas(64) std::atomic<uint32_t> executed{0};
    std::atomic<uint64_t> deliveries_done{0};
    /// Set at the session's first task failure; later tasks are
    /// skipped (popped and counted, never executed).
    std::atomic<bool> errored{false};
  };

  struct Worker {
    std::thread thread;
    /// Bumped by every Dispatch homed here and by Stop(); the worker
    /// parks on it once its rings stay empty.
    alignas(64) std::atomic<uint32_t> wake{0};
    // Consumer-side accounting (owned by the worker thread until the
    // Stop() join publishes it).
    double busy_seconds = 0.0;
    int64_t tasks = 0;
  };

  void RunWorker(size_t k);
  /// Pops and runs `q`'s tasks until its ring is empty; returns whether
  /// any task was popped. Caller must be `q`'s home worker.
  bool DrainSession(Worker* w, SessionQueue* q);
  static Status ExecuteTask(const WorkerTask& task);
  void RecordError(uint32_t session_id, Status status);
  /// The dispatching thread's cached ring table, refreshed from
  /// sessions_ when the generation counter moved.
  void RefreshProducerView();

  const size_t max_in_flight_;

  /// Ring table: index == session id. Guarded by sessions_mutex_ for
  /// growth; generation_ bumps on every AddSession so workers (and the
  /// producer) refresh their pointer snapshots without locking on the
  /// hot path.
  std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<SessionQueue>> sessions_;
  std::atomic<uint64_t> generation_{0};

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  bool joined_ = false;

  // Dispatching-thread-only state.
  std::vector<SessionQueue*> producer_view_;
  uint64_t producer_generation_ = 0;
  std::vector<int64_t> depth_hwm_;  // per home worker, producer-owned
  uint64_t dispatch_yield_every_ = 0;
  uint64_t dispatched_since_yield_ = 0;

  mutable std::mutex error_mutex_;
  /// First error per session id; min key wins at the barrier.
  std::map<uint32_t, Status> errors_;
  std::atomic<bool> error_seen_{false};
};

}  // namespace datatriage::server

#endif  // DATATRIAGE_SERVER_TASK_SCHEDULER_H_
