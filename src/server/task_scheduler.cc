#include "src/server/task_scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/logging.h"
#include "src/server/ingest.h"
#include "src/server/query_session.h"
#include "src/server/sim_faults.h"

namespace datatriage::server {

namespace {

/// Bounded spin before parking: rings stay hot under load (the next
/// task usually lands within a few tries), and an idle worker then parks
/// on its wake word instead of burning its core.
constexpr int kSpinsBeforePark = 64;

}  // namespace

size_t WorkerForSessionFaulted(uint32_t session_id, size_t workers,
                               const SimFaults* faults) {
  if (faults == nullptr || workers == 0) {
    return WorkerForSession(session_id, workers);
  }
  switch (faults->sharding) {
    case SimFaults::Sharding::kModulo:
      return WorkerForSession(session_id, workers);
    case SimFaults::Sharding::kSingleWorker:
      return 0;
    case SimFaults::Sharding::kReversed:
      return workers - 1 - WorkerForSession(session_id, workers);
  }
  return WorkerForSession(session_id, workers);
}

TaskScheduler::TaskScheduler(size_t workers, size_t max_in_flight)
    : max_in_flight_(max_in_flight) {
  DT_CHECK(workers > 0);
  DT_CHECK(max_in_flight > 0);
  depth_hwm_.assign(workers, 0);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Spawn only after the vector is fully built: workers never touch
  // their siblings, but the spawn loop must not reallocate under them.
  for (size_t k = 0; k < workers; ++k) {
    workers_[k]->thread = std::thread([this, k] { RunWorker(k); });
  }
}

TaskScheduler::~TaskScheduler() { Stop(); }

void TaskScheduler::AddSession(uint32_t session_id, size_t home_worker) {
  DT_CHECK(!joined_) << "TaskScheduler::AddSession after Stop";
  DT_CHECK(home_worker < workers_.size());
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  DT_CHECK(session_id == sessions_.size())
      << "session ids must arrive dense and in order";
  // Every task but the session's one finish carries a delivery, so
  // below the in-flight bound (Dispatch) the ring always has a slot.
  sessions_.push_back(std::make_unique<SessionQueue>(
      session_id, max_in_flight_, home_worker));
  generation_.fetch_add(1, std::memory_order_release);
}

void TaskScheduler::RefreshProducerView() {
  if (generation_.load(std::memory_order_acquire) == producer_generation_) {
    return;
  }
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  producer_generation_ = generation_.load(std::memory_order_relaxed);
  producer_view_.clear();
  producer_view_.reserve(sessions_.size());
  for (const std::unique_ptr<SessionQueue>& q : sessions_) {
    producer_view_.push_back(q.get());
  }
}

void TaskScheduler::Dispatch(uint32_t session_id, WorkerTask task) {
  DT_CHECK(!joined_) << "TaskScheduler::Dispatch after Stop";
  RefreshProducerView();
  DT_CHECK(session_id < producer_view_.size());
  SessionQueue& q = *producer_view_[session_id];
  // Backpressure, never loss: while the session has max_in_flight_
  // deliveries in flight, park until its worker finishes a task.
  // Shedding is the triage queues' job.
  for (uint32_t executed = q.executed.load(std::memory_order_acquire);
       q.deliveries_enqueued -
           q.deliveries_done.load(std::memory_order_relaxed) >=
       max_in_flight_;
       executed = q.executed.load(std::memory_order_acquire)) {
    q.executed.wait(executed, std::memory_order_acquire);
  }
  q.deliveries_enqueued += task.deliveries.size();
  const bool pushed = q.queue.TryPush(std::move(task));
  DT_CHECK(pushed) << "task ring full below the in-flight bound";
  q.enqueued.store(q.enqueued.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  const int64_t depth = static_cast<int64_t>(
      q.deliveries_enqueued -
      q.deliveries_done.load(std::memory_order_relaxed));
  depth_hwm_[q.home] = std::max(depth_hwm_[q.home], depth);
  // Bump after the release above: a worker that reads the new word
  // also sees the task (RunWorker's re-check before it parks). Every
  // bump that precedes a notify is seq_cst, like executed's store.
  Worker& home = *workers_[q.home];
  home.wake.fetch_add(1);
  home.wake.notify_one();
  if (dispatch_yield_every_ > 0 &&
      ++dispatched_since_yield_ >= dispatch_yield_every_) {
    dispatched_since_yield_ = 0;
    std::this_thread::yield();
  }
}

Status TaskScheduler::Drain() {
  // Session-ordered barrier: wait rings out in id order. The order only
  // affects which ring is waited on first — completion of all of them
  // is what the barrier guarantees — but walking a fixed order (and
  // picking the min-session error below) keeps everything the caller
  // observes independent of thread timing.
  RefreshProducerView();
  for (SessionQueue* q : producer_view_) {
    const uint32_t enqueued = q->enqueued.load(std::memory_order_relaxed);
    for (uint32_t executed;
         (executed = q->executed.load(std::memory_order_acquire)) !=
         enqueued;) {
      q->executed.wait(executed, std::memory_order_acquire);
    }
  }
  return first_error();
}

Status TaskScheduler::Stop() {
  if (joined_) return first_error();
  Status drained = Drain();
  stop_.store(true, std::memory_order_release);
  for (std::unique_ptr<Worker>& worker : workers_) {
    worker->wake.fetch_add(1);
    worker->wake.notify_one();
  }
  for (std::unique_ptr<Worker>& worker : workers_) {
    worker->thread.join();
  }
  joined_ = true;
  return drained;
}

Status TaskScheduler::first_error() const {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (errors_.empty()) return Status::OK();
  return errors_.begin()->second;
}

TaskWorkerStats TaskScheduler::stats(size_t worker) const {
  DT_CHECK(worker < workers_.size());
  TaskWorkerStats out;
  out.tasks = workers_[worker]->tasks;
  out.busy_seconds = workers_[worker]->busy_seconds;
  out.queue_depth_hwm = depth_hwm_[worker];
  return out;
}

void TaskScheduler::RecordError(uint32_t session_id, Status status) {
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    errors_.emplace(session_id, std::move(status));  // first error wins
  }
  error_seen_.store(true, std::memory_order_release);
}

Status TaskScheduler::ExecuteTask(const WorkerTask& task) {
  switch (task.kind) {
    case WorkerTask::Kind::kIngest:
      for (const Delivery& delivery : task.deliveries) {
        DT_RETURN_IF_ERROR(
            task.session->Ingest(delivery.lane, *delivery.tuple));
      }
      return Status::OK();
    case WorkerTask::Kind::kFinish:
      return task.session->Finish();
  }
  return Status::Internal("unknown worker task kind");
}

bool TaskScheduler::DrainSession(Worker* w, SessionQueue* q) {
  using clock = std::chrono::steady_clock;
  WorkerTask task;
  if (!q->queue.TryPop(&task)) return false;
  // One clock read per task: each task's end is the next one's start.
  clock::time_point start = clock::now();
  do {
    if (!q->errored.load(std::memory_order_relaxed)) {
      Status status = ExecuteTask(task);
      if (!status.ok()) {
        // Skip the session's remaining tasks, the way a serial run
        // would have stopped at the first error.
        q->errored.store(true, std::memory_order_relaxed);
        RecordError(q->id, std::move(status));
      }
    }
    const uint64_t deliveries = task.deliveries.size();
    task = WorkerTask();  // drops the batch reference before completing
    const clock::time_point end = clock::now();
    w->busy_seconds += std::chrono::duration<double>(end - start).count();
    start = end;
    ++w->tasks;
    q->deliveries_done.store(
        q->deliveries_done.load(std::memory_order_relaxed) + deliveries,
        std::memory_order_relaxed);
    // Publishes the task's side effects (session state, the counters
    // above) to the dispatching thread's acquire load, and wakes it if
    // it is parked on backpressure or the barrier. seq_cst, not
    // release: the store must not sink below notify_all's check for
    // waiters, or a waiter that just missed it would sleep through.
    q->executed.store(q->executed.load(std::memory_order_relaxed) + 1,
                      std::memory_order_seq_cst);
    q->executed.notify_all();
  } while (q->queue.TryPop(&task));
  return true;
}

void TaskScheduler::RunWorker(size_t k) {
  Worker* self = workers_[k].get();
  std::vector<SessionQueue*> view;
  uint64_t seen_generation = 0;
  int spins = 0;
  for (;;) {
    if (generation_.load(std::memory_order_acquire) != seen_generation) {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      seen_generation = generation_.load(std::memory_order_relaxed);
      view.clear();
      for (const std::unique_ptr<SessionQueue>& q : sessions_) {
        // Each worker pops only the rings homed on it, so every ring
        // has exactly one consumer.
        if (q->home == k) view.push_back(q.get());
      }
    }
    bool did_work = false;
    for (SessionQueue* q : view) did_work |= DrainSession(self, q);
    if (did_work) {
      spins = 0;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (++spins < kSpinsBeforePark) {
      std::this_thread::yield();
      continue;
    }
    // Park. Read the wake word first, then re-check everything a waker
    // publishes before bumping it (new sessions, tasks, stop): a
    // Dispatch or Stop that lands after the read changes the word, so
    // the wait returns at once — no lost wake-up.
    spins = 0;
    const uint32_t wake = self->wake.load(std::memory_order_acquire);
    if (generation_.load(std::memory_order_acquire) != seen_generation ||
        stop_.load(std::memory_order_acquire)) {
      continue;
    }
    const bool pending = std::any_of(
        view.begin(), view.end(), [](const SessionQueue* q) {
          return q->executed.load(std::memory_order_relaxed) !=
                 q->enqueued.load(std::memory_order_acquire);
        });
    if (!pending) self->wake.wait(wake, std::memory_order_acquire);
  }
}

}  // namespace datatriage::server
