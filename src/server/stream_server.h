#ifndef DATATRIAGE_SERVER_STREAM_SERVER_H_
#define DATATRIAGE_SERVER_STREAM_SERVER_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/mem_accounting.h"
#include "src/common/result.h"
#include "src/engine/config.h"
#include "src/server/ingest.h"
#include "src/server/query_session.h"
#include "src/exec/task_pool.h"
#include "src/server/snapshot.h"
#include "src/server/task_scheduler.h"

namespace datatriage::server {

/// Coarse server phase. The transitions are one-way:
/// kRegistering --first Push/PushBatch--> kStreaming --Finish--> kFinished.
/// The phase gates only what is sealed: pushing and registering both end
/// at kFinished, and results/metrics accessors are meaningful once
/// kFinished (in parallel mode, safe only then — workers may still be
/// executing while kStreaming). Query membership is NOT gated by the
/// phase: sessions have their own lifecycle (SessionLifecycle, DESIGN.md
/// §14) and may register, unregister, snapshot, and restore while the
/// server is kRegistering or kStreaming.
enum class ServerState { kRegistering, kStreaming, kFinished };

/// "kRegistering" / "kStreaming" / "kFinished", for error messages.
std::string_view ServerStateName(ServerState state);

/// Multi-query facade over one shared ingest plane (paper Fig. 1 scaled
/// out: one triage queue per data source *per consumer*, one boundary per
/// feed). Register queries — up front or mid-stream — push one
/// interleaved event feed, and read each session's results and stats
/// independently:
///
///   StreamServer server(catalog, {.scheduler = {.worker_threads = 4}});
///   auto a = server.RegisterQuery(sql_a, config_a);
///   server.PushBatch(morning_events);
///   auto b = server.RegisterQuery(sql_b, config_b);  // joins live
///   server.PushBatch(afternoon_events);
///   server.UnregisterQuery(*a);                      // drains + detaches
///   server.Finish();
///   for (WindowResult& r : server.session(*b).TakeResults()) ...
///
/// Each session's output is byte-identical to a standalone
/// ContinuousQueryEngine run of the same (query, config) over the same
/// events — co-hosting shares the ingest boundary (name resolution,
/// validation, routing), never the per-query triage state — and that
/// holds for every SchedulerOptions setting (worker count,
/// intra-session threads): each session's tasks live in one FIFO ring
/// consumed in feed order by its one home worker, and morsel-parallel
/// operators merge their partials deterministically
/// (DESIGN.md Sec. 11, Sec. 16).
///
/// Mid-stream lifecycle (DESIGN.md §14): a query registered at arrival
/// time t observes exactly the windows whose span starts on or after the
/// next window boundary after t — byte-identical to a standalone engine
/// fed that suffix of the feed. UnregisterQuery drains the session
/// (emitting its in-flight windows) before detaching its lanes; the
/// detached session keeps serving results, stats, and metrics.
/// SnapshotSession/RestoreSession round-trip a session through a sealed,
/// versioned byte format for migration and recovery.
class StreamServer {
 public:
  explicit StreamServer(Catalog catalog,
                        engine::StreamServerOptions options = {});

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  ~StreamServer();

  /// Parses, binds, rewrites, and hosts one continuous query. Legal while
  /// kRegistering or kStreaming — FailedPrecondition once kFinished. A
  /// query registered mid-stream (after arrivals) is stamped with an
  /// admission horizon at the next window boundary of its own slide after
  /// the arrival clock, so it observes exactly the whole-window suffix of
  /// the feed (DESIGN.md §14) and its results stay byte-identical to a
  /// standalone engine fed that suffix.
  Result<SessionId> RegisterQuery(const std::string& query_sql,
                                  engine::EngineConfig config);
  Result<SessionId> RegisterQuery(plan::BoundQuery query,
                                  engine::EngineConfig config);

  /// Drains `id` — its queued tuples are processed or shed and every
  /// in-flight window emits, exactly as Finish would — then detaches its
  /// lanes from routing and marks it kDetached. The session object stays
  /// owned by the server: results, stats, metrics, and trace remain
  /// readable. NotFound for an unknown id; FailedPrecondition when the
  /// session is already detached or the server is finished. In parallel
  /// mode the pool is drained first, so the detach is quiescent.
  Status UnregisterQuery(SessionId id);

  /// Serializes session `id` into a sealed, versioned byte format
  /// (src/server/snapshot.h): SQL, config, plane clock, window buffers,
  /// triage-queue contents, synopses, drop-RNG state, results, trace, and
  /// metrics — everything needed for RestoreSession to resume the session
  /// byte-identically on this or another server over the same catalog.
  /// NotFound for an unknown id; FailedPrecondition for a detached
  /// session or one registered from an already-bound query (restore
  /// re-binds from SQL). Non-invasive: the donor session is unchanged.
  Result<SessionSnapshot> SnapshotSession(SessionId id);

  /// Rebuilds a session from `snapshot` under a fresh dense id, restoring
  /// its full state and fast-forwarding this server's arrival clock to at
  /// least the donor's. The restored session's future output is
  /// byte-identical to the donor's had it kept running.
  /// FailedPrecondition once kFinished; InvalidArgument for a corrupt,
  /// truncated, or version-skewed snapshot.
  Result<SessionId> RestoreSession(const SessionSnapshot& snapshot);

  /// Resolves a stream name to its interned id ahead of pushing, so hot
  /// ingest loops can use the id overload of Push and skip per-event
  /// name hashing entirely.
  Result<StreamId> InternStream(std::string_view name);

  /// Installs deterministic fault injection (simulation testing only —
  /// DESIGN.md Sec. 12). Legal only while kRegistering with no sessions
  /// yet registered, so every lane and counter is wired consistently;
  /// `faults` must outlive the server. Production servers never call
  /// this and carry no fault state.
  Status SetSimFaults(const SimFaults* faults);

  /// Delivers one arrival to every session reading its stream. Events
  /// must have finite, non-decreasing timestamps; violations return
  /// InvalidArgument and leave every session untouched. The first push
  /// moves the server to kStreaming (starting the task scheduler and
  /// morsel pool when configured); pushing on a finished server, or with
  /// zero live sessions, is FailedPrecondition. The id overload returns
  /// NotFound for an id InternStream never returned. With workers on,
  /// each push is one batch of one event (see PushBatch).
  Status Push(const engine::StreamEvent& event);
  Status Push(StreamId stream, const Tuple& tuple);

  /// Batched ingest: timestamps are validated once over the whole batch
  /// before any event is ingested (an invalid timestamp anywhere rejects
  /// the batch atomically), and stream routing is memoized across runs
  /// of same-stream events. For valid input the result is byte-identical
  /// to pushing the events one by one — PushBatch is the amortization,
  /// not a semantic variant. With workers on, the push copies its events
  /// once into a batch shared by every session and hands each session
  /// that received any of them one task: a reference to the batch plus
  /// its deliveries in feed order (DESIGN.md §11.1).
  Status PushBatch(std::span<const engine::StreamEvent> events);

  /// Drains every session (in parallel mode: on a scheduler worker, with
  /// a deterministic session-ordered barrier before returning), emits
  /// all remaining windows, and joins the scheduler. Idempotent.
  Status Finish();

  ServerState state() const { return state_; }

  /// All sessions ever hosted, attached or detached (ids are dense in
  /// [0, session_count())).
  size_t session_count() const { return sessions_.size(); }

  /// Sessions currently attached to routing (lifecycle kActive). Pushing
  /// with zero live sessions is FailedPrecondition — the whole feed would
  /// be dropped on the floor.
  size_t live_session_count() const;

  /// The session behind `id` (results, sink, stats, metrics, trace).
  /// Ids are dense: 0 <= id < session_count(). CHECK-fails on an
  /// out-of-range id — use FindSession when the id is not trusted.
  QuerySession& session(SessionId id);
  const QuerySession& session(SessionId id) const;

  /// Bounds-checked lookup: NotFound (naming the valid range) instead of
  /// a crash when `id` is stale or from another server. The pointer is
  /// owned by the server and valid for its lifetime.
  Result<QuerySession*> FindSession(SessionId id);
  Result<const QuerySession*> FindSession(SessionId id) const;

  /// Plane-level ingest metrics (server.events_pushed, ...; after a
  /// parallel Finish also server.worker.<k>.tasks / .busy_seconds /
  /// .queue_depth).
  const obs::MetricsRegistry& server_metrics() const {
    return plane_.metrics();
  }

  /// Server-wide memory accountant (DESIGN.md §15): every session charge
  /// is mirrored here, so TotalBytes/PeakBytes aggregate the whole
  /// server's accounted state. The server-wide budget
  /// (StreamServerOptions::memory_budget_bytes) is split evenly across
  /// live sessions; each share is recomputed whenever the live-session
  /// count changes.
  const mem::MemoryAccountant& memory_accountant() const {
    return accountant_;
  }

  /// Combined deterministic JSON export: the plane's registry under
  /// "server", then one entry per session whose metric names are scoped
  /// with the "session.<id>." prefix (DESIGN.md Sec. 10). Single-session
  /// callers that need the legacy schema should export the session's
  /// registry directly with obs::MetricsJson. Note the worker gauges in
  /// the "server" section carry wall-clock readings — per-session
  /// sections stay deterministic, the server section is deterministic
  /// only with scheduler.worker_threads == 0.
  std::string MetricsJson() const;

 private:
  /// Moves kRegistering -> kStreaming on the first push and, when the
  /// effective scheduler has worker_threads > 0, starts the TaskScheduler
  /// (and the intra-session morsel pool when intra_session_threads > 1)
  /// and installs the plane dispatcher (the worker count is fixed here;
  /// sessions registered later home onto the existing workers). Rejects
  /// pushes on a finished server or with zero live sessions, and surfaces
  /// any error a worker recorded since the previous push.
  Status EnsureStreaming();

  /// Parallel-mode tail of every push: hands each session's staged
  /// deliveries — pointers into `batch`, the push's shared event copy
  /// that the plane was driven over — to its worker as one task, then
  /// returns `pushed`, the plane's verdict. It flushes on failure too:
  /// events the plane accepted before a mid-batch offender stay
  /// ingested, as in serial mode.
  Status FlushStaged(const std::shared_ptr<const EventBatch>& batch,
                     Status pushed);

  /// Quiesces the scheduler (barrier over every dispatched task) so
  /// lifecycle operations can touch session state on this thread. No-op
  /// in serial mode.
  Status Quiesce();

  /// Bumps the plane-registry counter session.<id>.lifecycle.<event>.
  /// Lifecycle counters live in the plane registry — not the session's —
  /// so a session's own metrics stay byte-identical to a standalone
  /// engine run.
  void CountLifecycleEvent(SessionId id, std::string_view event);

  /// Folds the scheduler's post-barrier accounting into the plane
  /// registry as server.worker.<k>.* instruments.
  void FlushWorkerMetrics();

  /// Re-splits the server-wide memory budget across the live sessions
  /// (budget / live count, floored, at least 1 byte). Callers must have
  /// quiesced the pool first — shares are read on the owning workers.
  void RecomputeBudgetShares();

  engine::StreamServerOptions options_;
  IngestPlane plane_;
  mem::MemoryAccountant accountant_;
  std::vector<std::unique_ptr<QuerySession>> sessions_;
  ServerState state_ = ServerState::kRegistering;
  /// Inter-session dispatch: per-session task rings + worker threads.
  std::unique_ptr<TaskScheduler> scheduler_;
  /// Intra-session morsel helpers, shared by every session; null unless
  /// scheduler.intra_session_threads > 1.
  std::unique_ptr<exec::TaskPool> task_pool_;
  /// The current push's deliveries per session id, staged by the plane
  /// dispatcher (parallel mode only; empty between pushes). The vectors
  /// keep their capacity from push to push.
  std::vector<std::vector<Delivery>> staged_;
  /// Ids with at least one staged delivery, in first-delivery order.
  std::vector<SessionId> staged_sessions_;
};

}  // namespace datatriage::server

#endif  // DATATRIAGE_SERVER_STREAM_SERVER_H_
