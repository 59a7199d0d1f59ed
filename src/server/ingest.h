#ifndef DATATRIAGE_SERVER_INGEST_H_
#define DATATRIAGE_SERVER_INGEST_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/random.h"
#include "src/common/result.h"
#include "src/engine/config.h"
#include "src/exec/relation.h"
#include "src/obs/metrics.h"
#include "src/server/sim_faults.h"
#include "src/triage/synopsizer.h"
#include "src/triage/triage_queue.h"
#include "src/triage/utility_policy.h"

namespace datatriage::server {

class QuerySession;

/// Interned stream identity. Names are the wire format of an arrival; the
/// ingest plane resolves each name to a StreamId once (hash lookup at the
/// boundary, or ahead of time via InternStream) and routes by id after
/// that, so the hot ingest path never touches a std::string.
using StreamId = uint32_t;

/// Coverage oracle for the synergistic drop policy: a tuple is "free" to
/// shed when its window's dropped synopsis already has mass at its
/// location (paper Sec. 8.1).
class DroppedCoverageProbe final : public triage::SynopsisCoverageProbe {
 public:
  DroppedCoverageProbe(const triage::WindowSynopsizer* synopsizer,
                       VirtualDuration range, VirtualDuration slide)
      : synopsizer_(synopsizer), range_(range), slide_(slide) {}

  bool IsCovered(const Tuple& tuple) const override {
    const WindowSpan span =
        CoveringWindows(tuple.timestamp(), range_, slide_);
    for (WindowId w = span.first; w <= span.last; ++w) {
      const synopsis::Synopsis* dropped = synopsizer_->PeekDropped(w);
      if (dropped != nullptr && dropped->EstimatePointCount(tuple) > 0) {
        return true;
      }
    }
    return false;
  }

 private:
  const triage::WindowSynopsizer* synopsizer_;
  VirtualDuration range_;
  VirtualDuration slide_;
};

/// One session's triage state for one stream (paper Fig. 1: the triage
/// queue and summarizer sitting between a data source and a query). The
/// ingest plane owns every lane; a session holds borrowed pointers to its
/// own lanes and consumes from them under its virtual clock.
struct StreamLane {
  QuerySession* session = nullptr;
  StreamId stream_id = 0;
  std::string stream_name;
  std::unique_ptr<triage::TriageQueue> queue;
  std::unique_ptr<triage::WindowSynopsizer> synopsizer;
  std::unique_ptr<DroppedCoverageProbe> coverage_probe;
  /// Kept tuples per open window.
  std::map<WindowId, exec::Relation> kept_buffers;
  std::map<WindowId, int64_t> dropped_counts;
  /// Arrival-clock LRU key for memory-triggered triage (DESIGN.md §15):
  /// timestamp of the last tuple appended to kept_buffers[w]. Never
  /// wall-clock — eviction order must replay identically at any worker
  /// count. Erased together with the buffer entry.
  std::map<WindowId, VirtualTime> buffer_touch;
  /// Obs hooks, resolved once at session init (owned by the session's
  /// registry).
  obs::Counter* summarized_dropped = nullptr;
  obs::Gauge* synopsis_build_seconds = nullptr;
  /// Simulation-only fault injection (null in production). Set at
  /// Subscribe time from the plane's installed SimFaults; read by the
  /// session's Ingest on the lane's owning thread, so fault decisions
  /// ride the same deterministic path as the tuples themselves.
  const SimFaults* sim_faults = nullptr;
  /// Drop-cause counter for fault-injected sheds; registered only when
  /// sim_faults is installed so production metric exports are unchanged.
  obs::Counter* fault_shed = nullptr;
  /// Drop-cause counter for memory-triggered sheds (budget eviction);
  /// registered only when the session runs with a memory budget so
  /// unbudgeted metric exports are unchanged.
  obs::Counter* memory_shed = nullptr;
  /// Admission horizon for mid-stream registration (DESIGN.md §14): the
  /// plane skips this lane for events with timestamp < admit_from, so a
  /// session registered at virtual time t observes exactly the feed
  /// suffix from the next window boundary on. -inf (the default) admits
  /// everything — the up-front-registration behavior.
  VirtualTime admit_from = -std::numeric_limits<VirtualTime>::infinity();
};

/// The shared ingest plane of a StreamServer: one boundary for all
/// sessions. It owns the catalog, the stream-name interner, the shared
/// arrival clock, and every per-(session, stream) StreamLane — so arrival
/// validation (finite timestamp, global order, arity) happens once per
/// event no matter how many queries consume it, and routing is a vector
/// walk over subscribed lanes.
class IngestPlane {
 public:
  explicit IngestPlane(Catalog catalog);

  IngestPlane(const IngestPlane&) = delete;
  IngestPlane& operator=(const IngestPlane&) = delete;

  /// Resolves `name` to its interned id, creating the id on first use.
  /// Fails with NotFound when the catalog does not define the stream.
  Result<StreamId> Intern(std::string_view name);

  /// Id of an already interned stream, or an error if never interned.
  Result<StreamId> Find(std::string_view name) const;

  /// Name of an interned stream; NotFound (naming the valid id range)
  /// for an id Intern never returned.
  Result<std::string_view> NameOf(StreamId id) const;
  const Catalog& catalog() const { return catalog_; }

  /// Builds a lane for `session` on `stream` — queue, drop policy (with
  /// an Rng forked from `seeder`), and, for synopsizing strategies, the
  /// window synopsizer and coverage probe — and registers it for routing.
  /// The returned lane stays owned by the plane and valid for its
  /// lifetime. `utility_spec` is the MATCH pattern of the session's query
  /// and is required (non-null) iff the config selects the utility drop
  /// policy, which scores queued tuples against it.
  Result<StreamLane*> Subscribe(
      QuerySession* session, const std::string& stream,
      const engine::EngineConfig& config, VirtualDuration window_seconds,
      VirtualDuration window_slide, Rng* seeder,
      const triage::UtilityPatternSpec* utility_spec = nullptr);

  /// Detaches every lane of `session` from event routing. The lane
  /// objects stay owned by the plane (their queues/buffers remain
  /// readable by the drained session), but no future arrival reaches
  /// them. Safe mid-stream: routing mutates only on the pushing thread.
  void Unsubscribe(const QuerySession* session);

  /// Fast-forwards the arrival clock to at least `t` without delivering
  /// an event. Snapshot restore only: the restored plane must refuse the
  /// out-of-order past the donor server had already accepted.
  void AdvanceClock(VirtualTime t);

  /// True once any arrival was accepted (the arrival clock is live).
  bool saw_arrival() const { return saw_arrival_; }

  /// Validates one arrival (interned stream id, finite timestamp, global
  /// timestamp order, tuple arity against the stream schema) and
  /// delivers it to every subscribed lane. An arrival on a stream no
  /// session reads is counted as unrouted and otherwise ignored.
  /// Validation failures leave every session untouched.
  Status Push(StreamId stream, const Tuple& tuple);

  /// Name-resolving variant (one interner lookup, then Push by id).
  Status Push(const engine::StreamEvent& event);

  /// Batched push with the validation hoisted out of the per-event path:
  /// one pass checks every timestamp (finite, non-decreasing within the
  /// batch and against the arrival clock) before any state changes — an
  /// invalid timestamp anywhere rejects the whole batch with no event
  /// ingested — then the delivery pass routes each event, memoizing the
  /// previous event's stream so runs of same-stream arrivals skip the
  /// interner entirely. For valid input the observable effects (lane
  /// deliveries, counters, arrival clock) are exactly those of pushing
  /// the events one by one. A mid-batch arity error keeps loop
  /// semantics: events before the offender stay ingested.
  Status PushBatch(std::span<const engine::StreamEvent> events);

  /// Routing override for parallel execution: when set, every validated
  /// (lane, arrival) pair is handed to `dispatcher` instead of running
  /// the lane's session inline. The tuple reference is the pushed one —
  /// into the caller's event, batch or tuple — so a dispatcher that
  /// defers the work must keep that storage alive (the server drives
  /// the plane over a shared copy and stages pointers into it). Pass
  /// nullptr to restore inline delivery. Validation, the arrival clock,
  /// and plane metrics stay on the pushing thread either way — the
  /// arrival clock keeps a single writer (DESIGN.md Sec. 11).
  using LaneDispatcher = std::function<Status(StreamLane*, const Tuple&)>;
  void SetDispatcher(LaneDispatcher dispatcher);

  /// Installs deterministic fault injection (DESIGN.md Sec. 12). Must be
  /// called before any Subscribe so every lane (and its fault-shed
  /// drop-cause counter) is wired consistently; `faults` must outlive
  /// the plane. Pass nullptr to disable for lanes created afterwards.
  void SetSimFaults(const SimFaults* faults) { sim_faults_ = faults; }
  const SimFaults* sim_faults() const { return sim_faults_; }

  /// The shared arrival clock: timestamp of the latest accepted arrival.
  VirtualTime now() const { return last_arrival_time_; }

  /// Plane-level metrics: server.events_pushed, server.events_unrouted,
  /// server.streams_interned (plus, after a parallel run's Finish, the
  /// flushed server.worker.<k>.* instruments).
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Mutable registry access for the server to flush worker-pool
  /// accounting into after the Finish barrier (single-threaded again by
  /// then).
  obs::MetricsRegistry& mutable_metrics() { return metrics_; }

 private:
  struct StreamEntry {
    std::string name;
    Schema schema;
    /// Routing fan-out: one lane per session subscribed to this stream.
    std::vector<StreamLane*> lanes;
  };

  /// The post-validation tail of Push: clock advance, counters, and
  /// delivery to every subscribed lane (via the dispatcher when set).
  Status Deliver(StreamEntry& entry, const Tuple& tuple);

  /// NotFound, naming the valid range, unless `id` was interned.
  Status CheckId(StreamId id) const;

  Catalog catalog_;
  /// deque: stable StreamEntry addresses across Intern calls.
  std::deque<StreamEntry> streams_;
  std::map<std::string, StreamId, std::less<>> ids_;
  std::vector<std::unique_ptr<StreamLane>> lanes_;

  VirtualTime last_arrival_time_ = 0.0;
  bool saw_arrival_ = false;
  LaneDispatcher dispatcher_;
  const SimFaults* sim_faults_ = nullptr;

  obs::MetricsRegistry metrics_;
  obs::Counter* events_pushed_ = nullptr;
  obs::Counter* events_unrouted_ = nullptr;
  obs::Counter* streams_interned_ = nullptr;
};

}  // namespace datatriage::server

#endif  // DATATRIAGE_SERVER_INGEST_H_
