#include "src/server/stream_server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/serde.h"
#include "src/common/string_util.h"
#include "src/obs/export.h"
#include "src/plan/binder.h"
#include "src/sql/parser.h"

namespace datatriage::server {

namespace {

/// Deliveries a session may have in flight (handed to its worker, not
/// yet ingested) before the pushing thread blocks — backpressure, never
/// loss: load shedding is the triage queues' job, not the task rings'.
constexpr size_t kTaskQueueCapacity = 1024;

}  // namespace

std::string_view ServerStateName(ServerState state) {
  switch (state) {
    case ServerState::kRegistering:
      return "kRegistering";
    case ServerState::kStreaming:
      return "kStreaming";
    case ServerState::kFinished:
      return "kFinished";
  }
  return "unknown";
}

StreamServer::StreamServer(Catalog catalog,
                           engine::StreamServerOptions options)
    : options_(options),
      plane_(std::move(catalog)),
      accountant_(options.memory_budget_bytes) {
  Status valid = options_.Validate();
  DT_CHECK(valid.ok()) << valid.ToString();
}

StreamServer::~StreamServer() {
  // The scheduler (if streaming never reached Finish) must stop before
  // the sessions and lanes its queued tasks point into are torn down.
  if (scheduler_ != nullptr) {
    scheduler_->Stop();
    plane_.SetDispatcher(nullptr);
  }
}

Result<SessionId> StreamServer::RegisterQuery(
    const std::string& query_sql, engine::EngineConfig config) {
  DT_RETURN_IF_ERROR(config.Validate());
  DT_ASSIGN_OR_RETURN(sql::Statement statement,
                      sql::ParseStatement(query_sql));
  DT_ASSIGN_OR_RETURN(plan::BoundQuery bound,
                      plan::BindStatement(statement, plane_.catalog()));
  DT_ASSIGN_OR_RETURN(const SessionId id,
                      RegisterQuery(std::move(bound), std::move(config)));
  // Keep the SQL text: it is what SnapshotSession serializes so restore
  // can re-parse and re-bind the query on the target server.
  sessions_[id]->set_sql(query_sql);
  return id;
}

Result<SessionId> StreamServer::RegisterQuery(plan::BoundQuery query,
                                              engine::EngineConfig config) {
  DT_RETURN_IF_ERROR(config.Validate());
  if (state_ == ServerState::kFinished) {
    return Status::FailedPrecondition(
        "RegisterQuery on a finished StreamServer (state kFinished): "
        "results are sealed once Finish has run");
  }
  const SessionId id = static_cast<SessionId>(sessions_.size());
  DT_ASSIGN_OR_RETURN(
      std::unique_ptr<QuerySession> session,
      QuerySession::Make(id, &plane_, std::move(query), std::move(config)));
  if (plane_.saw_arrival()) {
    // Mid-stream registration (DESIGN.md §14): admit from the next window
    // boundary of this session's own slide after the arrival clock, so
    // the session only ever observes whole windows — its output matches a
    // standalone engine fed the feed suffix from that boundary on.
    const VirtualDuration slide = session->window_slide_seconds();
    const VirtualTime effective_from =
        (std::floor(plane_.now() / slide) + 1.0) * slide;
    session->SetEffectiveFrom(effective_from);
    CountLifecycleEvent(id, "registered_mid_stream");
  }
  session->SetServerAccountant(&accountant_);
  if (scheduler_ != nullptr) {
    // Mid-stream registrant while the scheduler runs: give it a task
    // ring (homed by the placement rule, fault-adjusted) and the shared
    // morsel pool before its first arrival.
    scheduler_->AddSession(
        id, WorkerForSessionFaulted(id, scheduler_->size(),
                                    plane_.sim_faults()));
    session->SetTaskPool(task_pool_.get());
  }
  sessions_.push_back(std::move(session));
  if (options_.memory_budget_bytes > 0) {
    // Shares are read on the owning workers, so quiesce before
    // re-splitting. Unbudgeted servers skip this: no drain, no
    // behavioral perturbation.
    DT_RETURN_IF_ERROR(Quiesce());
    RecomputeBudgetShares();
  }
  CountLifecycleEvent(id, "registered");
  return id;
}

Status StreamServer::UnregisterQuery(SessionId id) {
  DT_ASSIGN_OR_RETURN(QuerySession * session, FindSession(id));
  if (state_ == ServerState::kFinished) {
    return Status::FailedPrecondition(
        "UnregisterQuery on a finished StreamServer (state kFinished): "
        "Finish already drained and detached every session");
  }
  if (session->lifecycle() == SessionLifecycle::kDetached) {
    return Status::FailedPrecondition(StringPrintf(
        "session %u is already kDetached: UnregisterQuery drains and "
        "detaches a session once; its results and metrics stay readable",
        id));
  }
  // Quiesce the pool so the drain below owns the session's state, then
  // finish inline: queued tuples process or shed, in-flight windows emit.
  DT_RETURN_IF_ERROR(Quiesce());
  Status drained = session->Finish();
  plane_.Unsubscribe(session);
  session->MarkDetached();
  if (options_.memory_budget_bytes > 0) RecomputeBudgetShares();
  CountLifecycleEvent(id, "unregistered");
  return drained;
}

Result<SessionSnapshot> StreamServer::SnapshotSession(SessionId id) {
  DT_ASSIGN_OR_RETURN(QuerySession * session, FindSession(id));
  if (session->lifecycle() == SessionLifecycle::kDetached) {
    return Status::FailedPrecondition(StringPrintf(
        "session %u is kDetached: a drained session has no live state "
        "to snapshot — snapshot before UnregisterQuery",
        id));
  }
  if (session->sql().empty()) {
    return Status::FailedPrecondition(StringPrintf(
        "session %u was registered from an already-bound query: "
        "snapshots serialize the SQL text so restore can re-bind — "
        "register via the SQL overload to make a session snapshottable",
        id));
  }
  DT_RETURN_IF_ERROR(Quiesce());
  serde::Writer writer;
  writer.WriteString(session->sql());
  SaveEngineConfig(&writer, session->config());
  writer.WriteBool(plane_.saw_arrival());
  writer.WriteDouble(plane_.now());
  session->SaveState(&writer);
  CountLifecycleEvent(id, "snapshots");
  return SessionSnapshot{SealSnapshot(std::move(writer).TakeBytes())};
}

Result<SessionId> StreamServer::RestoreSession(
    const SessionSnapshot& snapshot) {
  if (state_ == ServerState::kFinished) {
    return Status::FailedPrecondition(
        "RestoreSession on a finished StreamServer (state kFinished): "
        "results are sealed once Finish has run");
  }
  DT_ASSIGN_OR_RETURN(const std::string payload,
                      OpenSnapshot(snapshot.bytes));
  serde::Reader reader(payload);
  DT_ASSIGN_OR_RETURN(const std::string sql, reader.ReadString());
  DT_ASSIGN_OR_RETURN(engine::EngineConfig config,
                      LoadEngineConfig(&reader));
  DT_ASSIGN_OR_RETURN(const bool donor_saw_arrival, reader.ReadBool());
  DT_ASSIGN_OR_RETURN(const VirtualTime donor_clock, reader.ReadDouble());
  // Rebuild the session the same way it was first made (parse, bind,
  // rewrite, subscribe), then overwrite its state from the snapshot —
  // LoadState also restores each lane's admission horizon, superseding
  // any effective-from stamp the re-registration just applied.
  DT_ASSIGN_OR_RETURN(const SessionId id,
                      RegisterQuery(sql, std::move(config)));
  DT_RETURN_IF_ERROR(sessions_[id]->LoadState(&reader));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(StringPrintf(
        "snapshot: %zu trailing byte(s) after the session state",
        reader.remaining()));
  }
  if (donor_saw_arrival) {
    // The restored plane must refuse out-of-order arrivals the donor's
    // plane had already rejected the past of.
    plane_.AdvanceClock(donor_clock);
  }
  CountLifecycleEvent(id, "restored");
  return id;
}

size_t StreamServer::live_session_count() const {
  size_t live = 0;
  for (const std::unique_ptr<QuerySession>& session : sessions_) {
    if (session->lifecycle() == SessionLifecycle::kActive) ++live;
  }
  return live;
}

Status StreamServer::Quiesce() {
  if (scheduler_ == nullptr) return Status::OK();
  return scheduler_->Drain();
}

void StreamServer::RecomputeBudgetShares() {
  const size_t live = live_session_count();
  if (live == 0) return;
  const size_t share =
      std::max<size_t>(1, options_.memory_budget_bytes / live);
  for (std::unique_ptr<QuerySession>& session : sessions_) {
    if (session->lifecycle() == SessionLifecycle::kActive) {
      session->SetServerBudgetShare(share);
    }
  }
}

void StreamServer::CountLifecycleEvent(SessionId id,
                                       std::string_view event) {
  plane_.mutable_metrics()
      .GetCounter(StringPrintf("session.%u.lifecycle.%.*s", id,
                               static_cast<int>(event.size()),
                               event.data()))
      ->Add(1);
}

Result<StreamId> StreamServer::InternStream(std::string_view name) {
  return plane_.Intern(name);
}

Status StreamServer::SetSimFaults(const SimFaults* faults) {
  if (state_ != ServerState::kRegistering || !sessions_.empty()) {
    return Status::FailedPrecondition(
        "SetSimFaults must run before any RegisterQuery (state "
        "kRegistering, no sessions): lanes wire their fault hooks at "
        "Subscribe time");
  }
  plane_.SetSimFaults(faults);
  return Status::OK();
}

Status StreamServer::EnsureStreaming() {
  if (state_ == ServerState::kFinished) {
    return Status::FailedPrecondition(
        "Push on a finished StreamServer (state kFinished): results are "
        "sealed once Finish has run");
  }
  if (live_session_count() == 0) {
    // Reject before any state change (in particular, before the
    // kRegistering -> kStreaming transition): a feed pushed at a server
    // with no attached session would be dropped wholesale, which is
    // load shedding by accident, not by policy.
    return Status::FailedPrecondition(StringPrintf(
        "Push with zero live sessions: this server hosts %zu "
        "session(s) but none is attached — RegisterQuery (or "
        "RestoreSession) before pushing",
        sessions_.size()));
  }
  if (state_ == ServerState::kRegistering) {
    state_ = ServerState::kStreaming;
    const engine::SchedulerOptions& scheduling = options_.scheduler;
    // Without intra-session parallelism there is nothing for a worker
    // beyond one-per-session to do, so clamp to the session count; with
    // morsel helpers configured the full complement stays useful (the
    // helpers are the TaskPool's own threads, but scheduler workers
    // overlap sessions' serial stretches).
    const size_t workers =
        scheduling.intra_session_threads > 1
            ? scheduling.worker_threads
            : std::min(scheduling.worker_threads, sessions_.size());
    if (workers > 0) {
      const SimFaults* faults = plane_.sim_faults();
      size_t max_in_flight = kTaskQueueCapacity;
      if (faults != nullptr && faults->task_queue_capacity_override > 0) {
        max_in_flight = faults->task_queue_capacity_override;
      }
      scheduler_ = std::make_unique<TaskScheduler>(workers, max_in_flight);
      if (faults != nullptr) {
        scheduler_->SetDispatchYield(faults->dispatch_yield_every);
      }
      for (std::unique_ptr<QuerySession>& session : sessions_) {
        scheduler_->AddSession(
            session->id(),
            WorkerForSessionFaulted(session->id(), workers, faults));
      }
      if (scheduling.intra_session_threads > 1) {
        task_pool_ = std::make_unique<exec::TaskPool>(
            scheduling.intra_session_threads - 1);
      }
      for (std::unique_ptr<QuerySession>& session : sessions_) {
        session->SetTaskPool(task_pool_.get());
      }
      plane_.SetDispatcher([this](StreamLane* lane, const Tuple& tuple) {
        // `tuple` lives in the push's shared batch (FlushStaged).
        const SessionId id = lane->session->id();
        if (id >= staged_.size()) staged_.resize(id + 1);
        if (staged_[id].empty()) staged_sessions_.push_back(id);
        staged_[id].push_back({lane, &tuple});
        return Status::OK();
      });
    }
  }
  // Asynchronous execution defers errors; surface the earliest one on
  // the next push rather than silently feeding a dead session.
  if (scheduler_ != nullptr && scheduler_->error_seen()) {
    return scheduler_->first_error();
  }
  return Status::OK();
}

Status StreamServer::Push(const engine::StreamEvent& event) {
  DT_RETURN_IF_ERROR(EnsureStreaming());
  if (scheduler_ == nullptr) return plane_.Push(event);
  const auto batch = std::make_shared<const EventBatch>(1, event);
  return FlushStaged(batch, plane_.Push(batch->front()));
}

Status StreamServer::Push(StreamId stream, const Tuple& tuple) {
  DT_RETURN_IF_ERROR(EnsureStreaming());
  if (scheduler_ == nullptr) return plane_.Push(stream, tuple);
  DT_ASSIGN_OR_RETURN(const std::string_view name, plane_.NameOf(stream));
  auto batch = std::make_shared<EventBatch>();
  batch->push_back({std::string(name), tuple});
  return FlushStaged(batch, plane_.Push(stream, batch->front().tuple));
}

Status StreamServer::PushBatch(
    std::span<const engine::StreamEvent> events) {
  DT_RETURN_IF_ERROR(EnsureStreaming());
  if (scheduler_ == nullptr) return plane_.PushBatch(events);
  const auto batch =
      std::make_shared<const EventBatch>(events.begin(), events.end());
  return FlushStaged(batch, plane_.PushBatch(*batch));
}

Status StreamServer::FlushStaged(
    const std::shared_ptr<const EventBatch>& batch, Status pushed) {
  for (const SessionId id : staged_sessions_) {
    std::vector<Delivery>& staged = staged_[id];
    WorkerTask task;
    task.kind = WorkerTask::Kind::kIngest;
    task.session = sessions_[id].get();
    task.batch = batch;
    task.deliveries.assign(staged.begin(), staged.end());
    staged.clear();
    scheduler_->Dispatch(id, std::move(task));
  }
  staged_sessions_.clear();
  return pushed;
}

Status StreamServer::Finish() {
  if (state_ == ServerState::kFinished) return Status::OK();
  state_ = ServerState::kFinished;
  if (scheduler_ != nullptr) {
    // Each session finishes on a scheduler worker — end-of-stream drain
    // parallelizes like ingest — then the scheduler's barrier walks
    // sessions in id order and reports the lowest-id session error, so
    // what the caller observes never depends on thread timing.
    for (std::unique_ptr<QuerySession>& session : sessions_) {
      WorkerTask task;
      task.kind = WorkerTask::Kind::kFinish;
      task.session = session.get();
      scheduler_->Dispatch(session->id(), std::move(task));
    }
    Status status = scheduler_->Stop();
    plane_.SetDispatcher(nullptr);
    FlushWorkerMetrics();
    scheduler_.reset();
    task_pool_.reset();
    return status;
  }
  for (std::unique_ptr<QuerySession>& session : sessions_) {
    DT_RETURN_IF_ERROR(session->Finish());
  }
  return Status::OK();
}

void StreamServer::FlushWorkerMetrics() {
  obs::MetricsRegistry& registry = plane_.mutable_metrics();
  for (size_t k = 0; k < scheduler_->size(); ++k) {
    const TaskWorkerStats stats = scheduler_->stats(k);
    const std::string prefix = "server.worker." + std::to_string(k);
    registry.GetCounter(prefix + ".tasks")->Add(stats.tasks);
    registry.GetGauge(prefix + ".busy_seconds")->Set(stats.busy_seconds);
    // Set once: value and high-watermark both read as the HWM.
    registry.GetGauge(prefix + ".queue_depth")
        ->Set(static_cast<double>(stats.queue_depth_hwm));
  }
}

QuerySession& StreamServer::session(SessionId id) {
  DT_CHECK(id < sessions_.size())
      << "StreamServer::session: id " << id << " out of range [0, "
      << sessions_.size()
      << ") — stale or foreign SessionId? FindSession() returns an "
         "error instead of crashing";
  return *sessions_[id];
}

const QuerySession& StreamServer::session(SessionId id) const {
  DT_CHECK(id < sessions_.size())
      << "StreamServer::session: id " << id << " out of range [0, "
      << sessions_.size()
      << ") — stale or foreign SessionId? FindSession() returns an "
         "error instead of crashing";
  return *sessions_[id];
}

Result<QuerySession*> StreamServer::FindSession(SessionId id) {
  if (id >= sessions_.size()) {
    return Status::NotFound(StringPrintf(
        "no session with id %u: this server hosts %zu session(s), ids "
        "are dense in [0, %zu)",
        id, sessions_.size(), sessions_.size()));
  }
  return sessions_[id].get();
}

Result<const QuerySession*> StreamServer::FindSession(SessionId id) const {
  if (id >= sessions_.size()) {
    return Status::NotFound(StringPrintf(
        "no session with id %u: this server hosts %zu session(s), ids "
        "are dense in [0, %zu)",
        id, sessions_.size(), sessions_.size()));
  }
  return sessions_[id].get();
}

std::string StreamServer::MetricsJson() const {
  std::string out = "{\n\"schema_version\": 1,\n\"server\": ";
  out += obs::MetricsJson(plane_.metrics(), nullptr);
  out += ",\n\"sessions\": [";
  for (size_t i = 0; i < sessions_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n{\"session\": " + std::to_string(i) +
           ", \"prefix\": \"session." + std::to_string(i) +
           ".\", \"metrics\": ";
    out += obs::MetricsJson(sessions_[i]->metrics(),
                            &sessions_[i]->trace());
    out += "}";
  }
  out += "\n]\n}\n";
  return out;
}

}  // namespace datatriage::server
