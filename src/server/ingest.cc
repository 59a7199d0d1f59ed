#include "src/server/ingest.h"

#include <cmath>
#include <utility>

#include "src/common/string_util.h"
#include "src/server/query_session.h"

namespace datatriage::server {

using triage::SheddingStrategy;

namespace {

/// The arrival rule, for single pushes and batches alike: a timestamp
/// must be finite and no earlier than the previous accepted arrival (when
/// there was one). A NaN would slide past the ordering check (every
/// comparison is false) and an infinity would register a window at id
/// ~2^63, hanging Finish — silent misbehavior either way once the cast
/// to WindowId happens, so both are rejected before any state changes.
Status CheckArrivalTime(VirtualTime arrival, std::string_view stream,
                        bool saw_previous, VirtualTime previous) {
  if (!std::isfinite(arrival)) {
    return Status::InvalidArgument(StringPrintf(
        "event timestamp on stream '%.*s' must be finite (got %g)",
        static_cast<int>(stream.size()), stream.data(), arrival));
  }
  if (saw_previous && arrival < previous) {
    return Status::InvalidArgument(StringPrintf(
        "events must arrive in timestamp order (%g after %g)", arrival,
        previous));
  }
  return Status::OK();
}

}  // namespace

IngestPlane::IngestPlane(Catalog catalog) : catalog_(std::move(catalog)) {
  events_pushed_ = metrics_.GetCounter("server.events_pushed");
  events_unrouted_ = metrics_.GetCounter("server.events_unrouted");
  streams_interned_ = metrics_.GetCounter("server.streams_interned");
}

Result<StreamId> IngestPlane::Intern(std::string_view name) {
  if (auto it = ids_.find(name); it != ids_.end()) return it->second;
  DT_ASSIGN_OR_RETURN(StreamDef def,
                      catalog_.GetStream(std::string(name)));
  const StreamId id = static_cast<StreamId>(streams_.size());
  streams_.push_back(StreamEntry{std::string(name), std::move(def.schema),
                                 {}});
  ids_.emplace(streams_.back().name, id);
  streams_interned_->Add(1);
  return id;
}

Status IngestPlane::CheckId(StreamId id) const {
  if (id < streams_.size()) return Status::OK();
  return Status::NotFound(StringPrintf(
      "no stream with id %u: %zu stream(s) are interned, ids are dense "
      "in [0, %zu)",
      id, streams_.size(), streams_.size()));
}

Result<std::string_view> IngestPlane::NameOf(StreamId id) const {
  DT_RETURN_IF_ERROR(CheckId(id));
  return std::string_view(streams_[id].name);
}

Result<StreamLane*> IngestPlane::Subscribe(
    QuerySession* session, const std::string& stream,
    const engine::EngineConfig& config, VirtualDuration window_seconds,
    VirtualDuration window_slide, Rng* seeder,
    const triage::UtilityPatternSpec* utility_spec) {
  DT_ASSIGN_OR_RETURN(StreamId id, Intern(stream));
  StreamEntry& entry = streams_[id];

  auto lane = std::make_unique<StreamLane>();
  lane->session = session;
  lane->stream_id = id;
  lane->stream_name = entry.name;
  lane->sim_faults = sim_faults_;
  if (config.strategy != SheddingStrategy::kDropOnly) {
    DT_RETURN_IF_ERROR(
        synopsis::Synopsis::CheckNumericSchema(entry.schema));
    lane->synopsizer = std::make_unique<triage::WindowSynopsizer>(
        entry.name, entry.schema, config.synopsis);
  }
  if (config.drop_policy == triage::DropPolicyKind::kSynergistic) {
    // EngineConfig::Validate rejected synergistic-without-synopsizer.
    DT_CHECK(lane->synopsizer != nullptr);
    lane->coverage_probe = std::make_unique<DroppedCoverageProbe>(
        lane->synopsizer.get(), window_seconds, window_slide);
    lane->queue = std::make_unique<triage::TriageQueue>(
        config.queue_capacity,
        triage::DropPolicy::MakeSynergistic(
            seeder->Fork(), lane->coverage_probe.get(),
            config.synergistic_candidates));
  } else if (config.drop_policy == triage::DropPolicyKind::kUtility) {
    if (utility_spec == nullptr) {
      return Status::InvalidArgument(
          "the utility drop policy scores queued tuples against a MATCH "
          "pattern; only MATCH queries can select drop_policy=utility "
          "(DESIGN.md §17)");
    }
    lane->queue = std::make_unique<triage::TriageQueue>(
        config.queue_capacity, triage::MakeUtilityPolicy(*utility_spec));
    // The deterministic utility policy draws no randomness, but forking
    // keeps the seeder's draw sequence aligned with every other policy so
    // a config differing only in drop_policy replays the same stream.
    (void)seeder->Fork();
  } else {
    lane->queue = std::make_unique<triage::TriageQueue>(
        config.queue_capacity,
        triage::DropPolicy::Make(config.drop_policy, seeder->Fork()));
  }
  StreamLane* raw = lane.get();
  lanes_.push_back(std::move(lane));
  entry.lanes.push_back(raw);
  return raw;
}

void IngestPlane::Unsubscribe(const QuerySession* session) {
  for (StreamEntry& entry : streams_) {
    std::erase_if(entry.lanes, [session](const StreamLane* lane) {
      return lane->session == session;
    });
  }
}

void IngestPlane::AdvanceClock(VirtualTime t) {
  if (!saw_arrival_ || t > last_arrival_time_) {
    saw_arrival_ = true;
    last_arrival_time_ = t;
  }
}

void IngestPlane::SetDispatcher(LaneDispatcher dispatcher) {
  dispatcher_ = std::move(dispatcher);
}

Status IngestPlane::Deliver(StreamEntry& entry, const Tuple& tuple) {
  if (tuple.size() != entry.schema.num_fields()) {
    return Status::InvalidArgument(
        StringPrintf("tuple arity %zu does not match stream '%s' (%zu)",
                     tuple.size(), entry.name.c_str(),
                     entry.schema.num_fields()));
  }
  saw_arrival_ = true;
  last_arrival_time_ = tuple.timestamp();
  events_pushed_->Add(1);
  if (entry.lanes.empty()) {
    events_unrouted_->Add(1);
    return Status::OK();
  }
  for (StreamLane* lane : entry.lanes) {
    // Effective-from admission (DESIGN.md §14): a mid-stream-registered
    // session's lanes only see events from its admission horizon on.
    if (tuple.timestamp() < lane->admit_from) continue;
    if (dispatcher_) {
      DT_RETURN_IF_ERROR(dispatcher_(lane, tuple));
    } else {
      DT_RETURN_IF_ERROR(lane->session->Ingest(lane, tuple));
    }
  }
  return Status::OK();
}

Status IngestPlane::Push(StreamId stream, const Tuple& tuple) {
  DT_RETURN_IF_ERROR(CheckId(stream));
  StreamEntry& entry = streams_[stream];
  DT_RETURN_IF_ERROR(CheckArrivalTime(tuple.timestamp(), entry.name,
                                      saw_arrival_, last_arrival_time_));
  return Deliver(entry, tuple);
}

Status IngestPlane::PushBatch(std::span<const engine::StreamEvent> events) {
  // Pass 1 — timestamps, batch-atomically: every failure here leaves the
  // plane (and every session) untouched, which per-event Push cannot
  // promise for an error in the middle of a burst.
  VirtualTime previous = last_arrival_time_;
  bool saw_previous = saw_arrival_;
  for (size_t i = 0; i < events.size(); ++i) {
    const VirtualTime arrival = events[i].tuple.timestamp();
    const Status valid =
        CheckArrivalTime(arrival, events[i].stream, saw_previous, previous);
    if (!valid.ok()) {
      return Status::InvalidArgument(StringPrintf(
          "batch event %zu: %s; no event of the batch was ingested", i,
          valid.message().c_str()));
    }
    saw_previous = true;
    previous = arrival;
  }
  // Pass 2 — delivery, with the interner lookup memoized across runs of
  // same-stream events (bursts from one source are the common case).
  StreamEntry* entry = nullptr;
  std::string_view entry_name;
  for (const engine::StreamEvent& event : events) {
    if (entry == nullptr || event.stream != entry_name) {
      DT_ASSIGN_OR_RETURN(StreamId id, Intern(event.stream));
      entry = &streams_[id];
      entry_name = entry->name;
    }
    DT_RETURN_IF_ERROR(Deliver(*entry, event.tuple));
  }
  return Status::OK();
}

}  // namespace datatriage::server
