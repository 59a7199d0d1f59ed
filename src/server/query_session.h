#ifndef DATATRIAGE_SERVER_QUERY_SESSION_H_
#define DATATRIAGE_SERVER_QUERY_SESSION_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/mem_accounting.h"
#include "src/common/result.h"
#include "src/engine/config.h"
#include "src/engine/merge.h"
#include "src/engine/window_result.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rewrite/data_triage_rewrite.h"
#include "src/server/ingest.h"

namespace datatriage::exec {
class TaskPool;
}  // namespace datatriage::exec

namespace datatriage::serde {
class Writer;
class Reader;
}  // namespace datatriage::serde

namespace datatriage::server {

using SessionId = uint32_t;

/// Per-session lifecycle (DESIGN.md §14). A session is kActive from
/// RegisterQuery until UnregisterQuery detaches its lanes; a detached
/// session is drained (Finish ran) and keeps serving results, stats, and
/// metrics reads but receives no further arrivals.
enum class SessionLifecycle {
  kActive,
  kDetached,
};

std::string_view SessionLifecycleToString(SessionLifecycle lifecycle);

/// One bound continuous query hosted by a StreamServer: the exact plan,
/// shadow plan, merge state, window sink, per-session obs registry, and
/// the session's virtual processing clock. The session consumes arrivals
/// from its StreamLanes in the shared IngestPlane; all per-query state
/// lives here, all per-stream ingest state lives in the plane.
///
/// Determinism contract: a session's results, stats, metrics, and trace
/// are a function of (its query, its config, the event subsequence on its
/// streams) only — co-hosted sessions cannot perturb each other. That is
/// what makes Q co-hosted sessions byte-equivalent to Q solo servers, one
/// query each (tests/stream_server_test.cc).
class QuerySession {
 public:
  using WindowSink = std::function<void(engine::WindowResult&&)>;

  /// Rewrites `query` for Data Triage and wires the session's lanes into
  /// `plane`. `config` must already be validated.
  static Result<std::unique_ptr<QuerySession>> Make(
      SessionId id, IngestPlane* plane, plan::BoundQuery query,
      engine::EngineConfig config);

  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  /// Delivers one validated arrival from the ingest plane. `lane` must be
  /// one of this session's lanes.
  Status Ingest(StreamLane* lane, const Tuple& tuple);

  /// Drains the session's lanes and emits every remaining window
  /// (through the window sink when one is set).
  Status Finish();

  /// Moves out the results emitted so far (in window order). Empty when a
  /// window sink is installed — the sink already consumed them.
  std::vector<engine::WindowResult> TakeResults();

  /// Streaming results API: `sink` is invoked once per window, at
  /// emission time on the session's virtual clock, in window order —
  /// exactly the windows (content and order) that TakeResults() would
  /// have buffered. Results already buffered when the sink is installed
  /// are flushed through it immediately. Pass nullptr to return to
  /// buffered delivery.
  void SetWindowSink(WindowSink sink);

  /// Copies the run accounting plus the obs registry totals (counters
  /// and gauge high-watermarks) into one value.
  engine::EngineStatsSnapshot StatsSnapshot() const;

  /// Session-local metrics registry (counters/gauges/histograms), updated
  /// while a run is in flight. Names are unscoped (DESIGN.md Sec. 9.2);
  /// server-level exports prefix them with "session.<id>." (Sec. 10).
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Per-window emission trace, in emission order.
  const obs::WindowTraceRecorder& trace() const { return trace_; }
  /// Window range (span length).
  VirtualDuration window_seconds() const { return window_seconds_; }
  /// Hop between consecutive windows; equals window_seconds() for
  /// tumbling windows.
  VirtualDuration window_slide_seconds() const { return window_slide_; }
  SessionId id() const { return id_; }

  SessionLifecycle lifecycle() const { return lifecycle_; }
  /// Marks the session detached. Called by the server after Finish, once
  /// the session's lanes have been removed from routing.
  void MarkDetached() { lifecycle_ = SessionLifecycle::kDetached; }

  /// The SQL text the session was registered with; empty when it was
  /// registered from an already-bound query (such sessions cannot be
  /// snapshotted — the snapshot re-binds from SQL on restore).
  const std::string& sql() const { return sql_; }
  void set_sql(std::string sql) { sql_ = std::move(sql); }

  const engine::EngineConfig& config() const { return config_; }

  /// Memory-budget plumbing (DESIGN.md §15). The session always accounts
  /// its state bytes (window buffers, triage queues, synopses, merge
  /// transients); enforcement only engages when the effective budget is
  /// nonzero.
  const mem::SessionAccount& memory_account() const { return account_; }
  /// Forwards every session charge into the server-wide accountant.
  /// Called by the server at registration, before any arrival.
  void SetServerAccountant(mem::MemoryAccountant* accountant) {
    account_.SetServerAccountant(accountant);
  }
  /// This session's share of the server-wide budget (0 = no server
  /// budget). Recomputed by the server whenever the live-session count
  /// changes; the effective budget is the tighter of this and
  /// config().memory_budget_bytes.
  void SetServerBudgetShare(size_t bytes);
  size_t EffectiveMemoryBudget() const;

  /// Intra-session operator parallelism (DESIGN.md §16.2): window
  /// evaluation splits join/aggregation work into morsels run on `pool`
  /// when a relation reaches two morsels' worth of rows. The partials
  /// merge deterministically, so results stay byte-identical to the
  /// serial path — the pool is a throughput knob only. Pass nullptr to
  /// stay serial. Called by the server before the session's first
  /// arrival (or at mid-stream registration).
  void SetTaskPool(exec::TaskPool* pool) { task_pool_ = pool; }

  /// Mid-stream registration (DESIGN.md §14): admits events from `t` on
  /// by stamping every lane's admission horizon. Must be called before
  /// the session sees any arrival.
  void SetEffectiveFrom(VirtualTime t);
  /// The admission horizon; -inf for sessions registered before the
  /// first push.
  VirtualTime effective_from() const { return effective_from_; }

  /// Session-snapshot hooks (DESIGN.md §14): everything the session's
  /// future behavior and exports depend on beyond (SQL, config) — both
  /// clock states, window bookkeeping, per-lane queue/synopsis/buffer
  /// state, buffered results, the trace, and the metrics registry.
  /// LoadState expects a freshly Made session for the same (SQL, config)
  /// and overwrites its state in place; the registry is restored last so
  /// gauge writes during lane restore are corrected to absolute values.
  void SaveState(serde::Writer* writer) const;
  Status LoadState(serde::Reader* reader);

 private:
  QuerySession(SessionId id, rewrite::TriagedQuery triaged,
               engine::EngineConfig config);

  Status Init(IngestPlane* plane);

  /// Advances the session clock to `until`, interleaving queued-tuple
  /// processing with window emissions whose deadlines pass.
  Status ProcessUntil(VirtualTime until);

  /// True if any lane's queue holds a tuple.
  bool HasQueuedTuple() const;

  /// Pops and processes the queued tuple with the earliest timestamp.
  Status ProcessOneQueuedTuple();

  /// Routes a fully shed tuple (it will never be processed) according to
  /// the strategy: it counts as dropped for every not-yet-emitted window
  /// covering it.
  Status ShedTuple(StreamLane* lane, const Tuple& tuple);

  /// Marks a still-queued tuple as dropped *for one window* whose
  /// deadline arrived before the session reached the tuple; it may yet be
  /// kept for later windows (sliding-window case).
  Status ShedTupleForWindow(StreamLane* lane, const Tuple& tuple,
                            WindowId window);

  /// Windows covering `t` that have not been emitted yet.
  WindowSpan PendingWindowsFor(VirtualTime t) const;

  Status EmitWindow(WindowId window);

  /// Hands a finished window to the sink (when set) or the result buffer.
  void DeliverResult(engine::WindowResult&& result);

  /// Resolves the session-level and per-stream instruments from metrics_
  /// and attaches the queue/synopsizer hooks. Called once from Init.
  void InitInstruments();

  /// Registers the budget-only instruments (mem.boundary_over_budget,
  /// mem.invariant_violations, stream.*.dropped.memory_shed). Idempotent;
  /// called the first time the session runs with a nonzero budget so
  /// unbudgeted metric exports stay byte-identical.
  void EnsureMemoryInstruments();

  /// Memory-triggered triage (the paper's second overload trigger): while
  /// the session is over its effective budget and a foldable window
  /// remains, fold the coldest buffered window — LRU by last-append
  /// arrival timestamp, ties broken by stream name then window id — into
  /// its dropped synopsis. Runs at the end of Ingest and EmitWindow.
  Status MaybeShedForMemory();

  /// Folds kept_buffers[window] of `lane` into the window's dropped
  /// synopsis: every folded tuple counts as dropped for that window;
  /// tuples whose *last* covering window this is flip from kept to
  /// dropped globally under the memory_shed cause (earlier sliding
  /// windows may still keep their copies).
  Status FoldWindowForMemory(StreamLane* lane, WindowId window);

  /// True when some lane still buffers a not-yet-emitted window.
  bool HasFoldableWindow() const;

  /// Double-entry audit at a window boundary (budgeted sessions only):
  /// recomputes ground-truth bytes from the owners and compares against
  /// the account; also flags a boundary left over budget with foldable
  /// state remaining. Violations increment counters the sim oracle
  /// asserts are zero.
  void CheckMemoryBoundary();

  void ChargeSynopsisTime(double seconds) {
    session_time_ += seconds;
    stats_.synopsis_work_seconds += seconds;
  }
  /// Per-stream variant: also gauges the lane's synopsis build time.
  void ChargeSynopsisTime(StreamLane* lane, double seconds) {
    ChargeSynopsisTime(seconds);
    if (lane->synopsis_build_seconds != nullptr) {
      lane->synopsis_build_seconds->Add(seconds);
    }
  }
  void ChargeExactTime(double seconds) {
    session_time_ += seconds;
    stats_.exact_work_seconds += seconds;
  }

  SessionId id_;
  rewrite::TriagedQuery triaged_;
  engine::EngineConfig config_;
  engine::AggregationSpec agg_spec_;  // valid when the query aggregates

  /// This session's lanes, keyed (and iterated) by stream name so
  /// queue-drain tie-breaking and per-window emission walk streams in the
  /// same deterministic order the single-query engine always used. The
  /// lanes themselves are owned by the ingest plane.
  std::map<std::string, StreamLane*, std::less<>> lanes_by_name_;
  VirtualDuration window_seconds_ = 1.0;  // range
  VirtualDuration window_slide_ = 1.0;    // hop (== range when tumbling)

  /// The session's processing clock: charged for this session's exact,
  /// synopsis, and emission work only. Arrival timestamps come from the
  /// plane's shared arrival clock, so overload on a feed pushes every
  /// consuming session past the same deadlines.
  VirtualTime session_time_ = 0.0;
  bool saw_arrival_ = false;
  WindowId next_window_to_emit_ = 0;
  WindowId last_window_seen_ = -1;

  std::vector<engine::WindowResult> results_;
  WindowSink sink_;
  engine::EngineStats stats_;

  /// Shared morsel pool (owned by the server); null in serial mode.
  exec::TaskPool* task_pool_ = nullptr;

  /// Per-session byte account (DESIGN.md §15): single-writer, exact,
  /// and the enforcement input for memory-triggered triage.
  mem::SessionAccount account_;
  size_t server_budget_share_ = 0;
  bool finished_ = false;
  SessionLifecycle lifecycle_ = SessionLifecycle::kActive;
  std::string sql_;
  VirtualTime effective_from_ =
      -std::numeric_limits<VirtualTime>::infinity();

  // --- Observability (src/obs/). The registry owns every metric; the
  // pointers below are hot-path handles resolved once in Init.
  obs::MetricsRegistry metrics_;
  obs::WindowTraceRecorder trace_;
  obs::Counter* ingested_counter_ = nullptr;
  obs::Counter* kept_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* windows_counter_ = nullptr;
  obs::Counter* exec_scanned_ = nullptr;
  obs::Counter* exec_output_ = nullptr;
  obs::Counter* exec_probes_ = nullptr;
  obs::Counter* exec_build_inserts_ = nullptr;
  obs::Counter* exec_comparisons_ = nullptr;
  obs::Counter* shadow_work_ = nullptr;
  obs::Histogram* emission_latency_ = nullptr;
  /// Budget-only self-check counters; null until the first nonzero
  /// budget (see EnsureMemoryInstruments).
  obs::Counter* mem_over_budget_ = nullptr;
  obs::Counter* mem_invariant_violations_ = nullptr;
};

}  // namespace datatriage::server

#endif  // DATATRIAGE_SERVER_QUERY_SESSION_H_
