#include "src/server/task_scheduler.h"

#include <chrono>
#include <utility>

#include "src/common/logging.h"
#include "src/server/ingest.h"
#include "src/server/query_session.h"
#include "src/server/sim_faults.h"

namespace datatriage::server {

namespace {

/// Bounded spin before parking: rings stay hot under load (the pop/push
/// succeeds within a few tries), and an idle worker backs off to a short
/// sleep instead of burning its core.
constexpr int kSpinsBeforeSleep = 64;
constexpr std::chrono::microseconds kIdleSleep{50};

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

TaskScheduler::TaskScheduler(size_t workers, size_t queue_capacity)
    : queue_capacity_(queue_capacity) {
  DT_CHECK(workers > 0);
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
  sessions_.push_back(std::make_unique<SessionQueue>(
      session_id, queue_capacity_, home_worker));
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
  const uint64_t enqueued = q.enqueued.load(std::memory_order_relaxed);
  while (!q.queue.TryPush(std::move(task))) {
    // Full ring: the consumer is behind. Backpressure the feed rather
    // than dropping — shedding is the triage queues' job.
    std::this_thread::yield();
  }
  q.enqueued.store(enqueued + 1, std::memory_order_release);
  const int64_t depth = static_cast<int64_t>(
      enqueued + 1 - q.executed.load(std::memory_order_relaxed));
  if (depth > depth_hwm_[q.home]) depth_hwm_[q.home] = depth;
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
    int spins = 0;
    while (q->executed.load(std::memory_order_acquire) !=
           q->enqueued.load(std::memory_order_relaxed)) {
      if (++spins < kSpinsBeforeSleep) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(kIdleSleep);
      }
    }
  }
  return first_error();
}

Status TaskScheduler::Stop() {
  if (joined_) return first_error();
  Status drained = Drain();
  stop_.store(true, std::memory_order_release);
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
      return task.lane->session->Ingest(task.lane, task.tuple);
    case WorkerTask::Kind::kFinish:
      return task.session->Finish();
  }
  return Status::Internal("unknown worker task kind");
}

bool TaskScheduler::DrainSession(Worker* w, SessionQueue* q) {
  using clock = std::chrono::steady_clock;
  bool any = false;
  WorkerTask task;
  while (q->queue.TryPop(&task)) {
    any = true;
    if (!q->errored.load(std::memory_order_relaxed)) {
      const clock::time_point start = clock::now();
      Status status = ExecuteTask(task);
      w->busy_seconds +=
          std::chrono::duration<double>(clock::now() - start).count();
      if (!status.ok()) {
        // Skip the session's remaining tasks, the way a serial run
        // would have stopped at the first error.
        q->errored.store(true, std::memory_order_relaxed);
        RecordError(q->id, std::move(status));
      }
    }
    ++w->tasks;
    // Publishes the task's side effects (session state, the counters
    // above) to Drain()'s acquire load.
    q->executed.fetch_add(1, std::memory_order_release);
  }
  return any;
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
      view.reserve(sessions_.size());
      for (const std::unique_ptr<SessionQueue>& q : sessions_) {
        view.push_back(q.get());
      }
    }
    bool did_work = false;
    for (SessionQueue* q : view) {
      // Each worker pops only the rings homed on it, so every ring has
      // exactly one consumer.
      if (q->home != k) continue;
      if (q->executed.load(std::memory_order_relaxed) ==
          q->enqueued.load(std::memory_order_acquire)) {
        continue;
      }
      did_work |= DrainSession(self, q);
    }
    if (did_work) {
      spins = 0;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (++spins < kSpinsBeforeSleep) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(kIdleSleep);
    }
  }
}

}  // namespace datatriage::server
