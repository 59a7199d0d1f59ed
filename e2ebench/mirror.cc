#include "mirror.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/mem_accounting.h"
#include "src/engine/merge.h"
#include "src/exec/evaluator.h"
#include "src/plan/binder.h"
#include "src/rewrite/data_triage_rewrite.h"
#include "src/rewrite/shadow_plan.h"
#include "src/server/ingest.h"
#include "src/sql/parser.h"

namespace e2ebench {

namespace {

using dt::Status;
using dt::Tuple;
using dt::VirtualTime;
using dt::WindowId;
using dt::WindowSpan;
using dt::engine::WindowResult;
using dt::server::StreamLane;
using dt::triage::SheddingStrategy;

/// Span recorder. Spans nest: a span's duration is added to its layer's
/// total and to its parent layer's child time, so per-layer self times
/// partition the traced wall time.
class Tracer {
 public:
  /// RAII span. `costs` also records the heap allocations and minor page
  /// faults of the calling thread inside the span.
  class Span {
   public:
    Span(Tracer* tracer, Layer layer, bool costs = false) : tracer_(tracer) {
      tracer_->Begin(layer, costs);
    }
    ~Span() { tracer_->End(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  const std::array<LayerTotals, kNumLayers>& totals() const {
    return totals_;
  }

 private:
  struct Open {
    Layer layer;
    bool costs;
    uint64_t allocations;
    int64_t minor_faults;
    Clock::time_point start;
  };

  void Begin(Layer layer, bool costs) {
    Open open{layer, costs, 0, 0, {}};
    if (costs) {
      open.allocations = ThreadAllocationCount();
      open.minor_faults = CpuSample::Take(RUSAGE_THREAD).minor_faults;
    }
    open.start = Clock::now();
    stack_.push_back(open);
  }

  void End() {
    const Clock::time_point end = Clock::now();
    const Open open = stack_.back();
    stack_.pop_back();
    const double seconds =
        std::chrono::duration<double>(end - open.start).count();
    LayerTotals& totals = totals_[static_cast<size_t>(open.layer)];
    ++totals.spans;
    totals.total_s += seconds;
    if (open.costs) {
      totals.allocations += static_cast<int64_t>(ThreadAllocationCount() -
                                                 open.allocations);
      totals.minor_faults +=
          CpuSample::Take(RUSAGE_THREAD).minor_faults - open.minor_faults;
    }
    if (!stack_.empty()) {
      totals_[static_cast<size_t>(stack_.back().layer)].child_s += seconds;
    }
  }

  std::vector<Open> stack_;
  std::array<LayerTotals, kNumLayers> totals_{};
};

using Span = Tracer::Span;

/// Mirror of one QuerySession (src/server/query_session.cc): the same
/// public calls on the same state, in the same order, so its windows are
/// byte-identical to the server's. Covers the strategies and features the
/// workloads use: Data Triage and drop-only shedding, tumbling or sliding
/// windows, aggregate and plain SPJ queries, and memory-triggered
/// triage.
class MirrorSession {
 public:
  static dt::Result<std::unique_ptr<MirrorSession>> Make(
      dt::server::IngestPlane* plane, dt::plan::BoundQuery query,
      dt::engine::EngineConfig config, Tracer* tracer,
      dt::mem::MemoryAccountant* accountant, MirrorResult* counts) {
    DT_ASSIGN_OR_RETURN(dt::rewrite::TriagedQuery triaged,
                        dt::rewrite::RewriteForDataTriage(std::move(query)));
    if (config.strategy == SheddingStrategy::kSummarizeOnly ||
        !triaged.plus_is_empty) {
      return Status::Unimplemented(
          "the mirror covers drop-only and Data Triage sessions of queries "
          "without an EXCEPT plus-plan");
    }
    auto session = std::unique_ptr<MirrorSession>(new MirrorSession(
        std::move(triaged), std::move(config), tracer, counts));
    DT_RETURN_IF_ERROR(session->Init(plane));
    session->account_.SetServerAccountant(accountant);
    return session;
  }

  const std::map<std::string, StreamLane*, std::less<>>& lanes() const {
    return lanes_by_name_;
  }
  const std::vector<WindowResult>& results() const { return results_; }
  int64_t ingested() const { return ingested_; }
  int64_t kept() const { return kept_; }
  int64_t dropped() const { return dropped_; }
  int64_t memory_shed() const { return memory_shed_; }

  void SetServerBudgetShare(size_t bytes) { server_budget_share_ = bytes; }

  Status Ingest(StreamLane* lane, const Tuple& tuple) {
    const VirtualTime arrival = tuple.timestamp();
    const WindowSpan covering =
        dt::CoveringWindows(arrival, window_seconds_, window_slide_);
    if (!saw_arrival_) {
      saw_arrival_ = true;
      next_window_to_emit_ = covering.empty() ? covering.last : covering.first;
      if (next_window_to_emit_ < 0) next_window_to_emit_ = 0;
    }
    last_window_seen_ =
        std::max(last_window_seen_,
                 std::max(covering.last, static_cast<WindowId>(0)));
    DT_RETURN_IF_ERROR(ProcessUntil(arrival));
    ++ingested_;
    std::optional<Tuple> victim;
    {
      Span span(tracer_, Layer::kTriagePush);
      victim = lane->queue->Push(tuple);
    }
    if (victim.has_value()) DT_RETURN_IF_ERROR(ShedTuple(lane, *victim));
    return MaybeShedForMemory();
  }

  Status Finish() {
    if (!saw_arrival_) return Status::OK();
    const VirtualTime last_deadline = config_.cost_model.EmissionDeadline(
        last_window_seen_, window_seconds_, window_slide_);
    DT_RETURN_IF_ERROR(ProcessUntil(last_deadline + window_seconds_));
    while (next_window_to_emit_ <= last_window_seen_) {
      DT_RETURN_IF_ERROR(EmitWindow(next_window_to_emit_));
      ++next_window_to_emit_;
    }
    for (auto& [name, lane] : lanes_by_name_) {
      std::vector<Tuple> stragglers;
      {
        Span span(tracer_, Layer::kTriageEvict);
        stragglers = lane->queue->EvictOlderThan(
            std::numeric_limits<VirtualTime>::infinity());
      }
      for (Tuple& tuple : stragglers) {
        DT_RETURN_IF_ERROR(ShedTuple(lane, tuple));
      }
      lane->queue->ClearPolicyState();
    }
    return Status::OK();
  }

 private:
  MirrorSession(dt::rewrite::TriagedQuery triaged,
                dt::engine::EngineConfig config, Tracer* tracer,
                MirrorResult* counts)
      : triaged_(std::move(triaged)),
        config_(std::move(config)),
        tracer_(tracer),
        counts_(counts) {
    config_.synopsis.vectorized_exec = config_.vectorized_exec;
  }

  Status Init(dt::server::IngestPlane* plane) {
    const dt::plan::BoundQuery& query = triaged_.query;
    window_seconds_ = query.window_seconds.begin()->second;
    window_slide_ = window_seconds_;
    if (!query.window_slide_seconds.empty()) {
      window_slide_ = query.window_slide_seconds.begin()->second;
    }
    if (query.has_aggregate) {
      DT_ASSIGN_OR_RETURN(agg_spec_, dt::engine::MakeAggregationSpec(query));
    }
    // Lanes in FROM order, drop-policy Rngs forked from one seeder, as
    // the session does.
    dt::Rng seeder(config_.seed);
    for (const std::string& stream : query.from_streams) {
      if (lanes_by_name_.count(stream) > 0) continue;
      DT_ASSIGN_OR_RETURN(
          StreamLane * lane,
          plane->Subscribe(nullptr, stream, config_, window_seconds_,
                           window_slide_, &seeder));
      lanes_by_name_.emplace(stream, lane);
    }
    for (auto& [name, lane] : lanes_by_name_) {
      lane->queue->SetAccount(&account_);
      if (lane->synopsizer != nullptr) lane->synopsizer->SetAccount(&account_);
    }
    return Status::OK();
  }

  size_t EffectiveMemoryBudget() const {
    size_t budget = config_.memory_budget_bytes;
    if (server_budget_share_ > 0 &&
        (budget == 0 || server_budget_share_ < budget)) {
      budget = server_budget_share_;
    }
    return budget;
  }

  Status ProcessUntil(VirtualTime until) {
    while (true) {
      if (next_window_to_emit_ <= last_window_seen_) {
        const VirtualTime deadline = config_.cost_model.EmissionDeadline(
            next_window_to_emit_, window_seconds_, window_slide_);
        if (session_time_ >= deadline) {
          DT_RETURN_IF_ERROR(EmitWindow(next_window_to_emit_));
          ++next_window_to_emit_;
          continue;
        }
      }
      if (session_time_ >= until) break;
      if (HasQueuedTuple()) {
        DT_RETURN_IF_ERROR(ProcessOneQueuedTuple());
        continue;
      }
      VirtualTime target = until;
      if (next_window_to_emit_ <= last_window_seen_) {
        target = std::min(target, config_.cost_model.EmissionDeadline(
                                      next_window_to_emit_, window_seconds_,
                                      window_slide_));
      }
      session_time_ = target;
      if (session_time_ >= until) break;
    }
    return Status::OK();
  }

  bool HasQueuedTuple() const {
    for (const auto& [name, lane] : lanes_by_name_) {
      if (!lane->queue->empty()) return true;
    }
    return false;
  }

  Status ProcessOneQueuedTuple() {
    StreamLane* best = nullptr;
    VirtualTime best_time = std::numeric_limits<double>::infinity();
    for (auto& [name, lane] : lanes_by_name_) {
      if (lane->queue->empty()) continue;
      if (lane->queue->Front().timestamp() < best_time) {
        best_time = lane->queue->Front().timestamp();
        best = lane;
      }
    }
    Tuple tuple = [&] {
      Span span(tracer_, Layer::kTriagePop);
      return best->queue->PopFront();
    }();
    ++kept_;
    session_time_ += config_.cost_model.exact_tuple_cost;
    const WindowSpan pending = PendingWindowsFor(tuple.timestamp());
    const size_t tuple_bytes = dt::mem::TupleBytes(tuple);
    const VirtualTime touch = tuple.timestamp();
    for (WindowId w = pending.first; w <= pending.last; ++w) {
      {
        Span span(tracer_, Layer::kSynopsize);
        if (config_.strategy == SheddingStrategy::kDataTriage) {
          DT_RETURN_IF_ERROR(best->synopsizer->AddKeptToWindow(tuple, w));
          session_time_ += config_.cost_model.synopsis_insert_cost;
        }
      }
      account_.Charge(dt::mem::Component::kWindowBuffers, tuple_bytes);
      best->buffer_touch[w] = touch;
      if (w == pending.last) {
        best->kept_buffers[w].push_back(std::move(tuple));
      } else {
        best->kept_buffers[w].push_back(tuple);
      }
    }
    return Status::OK();
  }

  WindowSpan PendingWindowsFor(VirtualTime t) const {
    WindowSpan span = dt::CoveringWindows(t, window_seconds_, window_slide_);
    span.first = std::max(span.first, next_window_to_emit_);
    return span;
  }

  Status ShedTuple(StreamLane* lane, const Tuple& tuple) {
    ++dropped_;
    const WindowSpan pending = PendingWindowsFor(tuple.timestamp());
    for (WindowId w = pending.first; w <= pending.last; ++w) {
      DT_RETURN_IF_ERROR(ShedTupleForWindow(lane, tuple, w));
    }
    return Status::OK();
  }

  Status ShedTupleForWindow(StreamLane* lane, const Tuple& tuple,
                            WindowId window) {
    lane->dropped_counts[window] += 1;
    Span span(tracer_, Layer::kSynopsize);
    if (config_.strategy == SheddingStrategy::kDataTriage) {
      DT_RETURN_IF_ERROR(lane->synopsizer->AddDroppedToWindow(tuple, window));
      session_time_ += config_.cost_model.synopsis_insert_cost;
    }
    return Status::OK();
  }

  Status MaybeShedForMemory() {
    Span span(tracer_, Layer::kMemory);
    const size_t budget = EffectiveMemoryBudget();
    if (budget == 0) return Status::OK();
    while (account_.TotalBytes() > budget) {
      StreamLane* coldest_lane = nullptr;
      WindowId coldest_window = 0;
      VirtualTime coldest_touch =
          std::numeric_limits<VirtualTime>::infinity();
      for (auto& [name, lane] : lanes_by_name_) {
        for (const auto& [window, touched] : lane->buffer_touch) {
          if (window < next_window_to_emit_) continue;
          if (touched < coldest_touch) {
            coldest_touch = touched;
            coldest_lane = lane;
            coldest_window = window;
          }
        }
      }
      if (coldest_lane == nullptr) break;
      DT_RETURN_IF_ERROR(FoldWindowForMemory(coldest_lane, coldest_window));
    }
    return Status::OK();
  }

  Status FoldWindowForMemory(StreamLane* lane, WindowId window) {
    ++counts_->folds;
    auto it = lane->kept_buffers.find(window);
    dt::exec::Relation rows = std::move(it->second);
    lane->kept_buffers.erase(it);
    lane->buffer_touch.erase(window);
    account_.Release(dt::mem::Component::kWindowBuffers,
                     dt::mem::RelationBytes(rows));
    for (const Tuple& tuple : rows) {
      DT_RETURN_IF_ERROR(ShedTupleForWindow(lane, tuple, window));
      const WindowSpan covering = dt::CoveringWindows(
          tuple.timestamp(), window_seconds_, window_slide_);
      if (covering.last == window) {
        --kept_;
        ++dropped_;
        ++memory_shed_;
      }
    }
    return Status::OK();
  }

  Status EmitWindow(WindowId window) {
    const dt::plan::BoundQuery& query = triaged_.query;
    const VirtualTime span_start =
        dt::WindowSpanStart(window, window_seconds_, window_slide_);
    const VirtualTime span_end =
        dt::WindowSpanEnd(window, window_seconds_, window_slide_);

    const VirtualTime final_cutoff =
        static_cast<double>(window + 1) * window_slide_;
    for (auto& [name, lane] : lanes_by_name_) {
      std::vector<Tuple> force_shed;
      {
        Span span(tracer_, Layer::kTriageEvict);
        force_shed = lane->queue->EvictOlderThan(final_cutoff);
      }
      for (Tuple& tuple : force_shed) {
        DT_RETURN_IF_ERROR(ShedTuple(lane, tuple));
      }
      if (window_slide_ < window_seconds_) {
        StreamLane* lane_ptr = lane;
        Status shed_status;
        lane->queue->ForEach([&](const Tuple& tuple) {
          if (!shed_status.ok()) return;
          if (tuple.timestamp() >= span_start &&
              tuple.timestamp() < span_end) {
            shed_status = ShedTupleForWindow(lane_ptr, tuple, window);
          }
        });
        DT_RETURN_IF_ERROR(shed_status);
      }
    }

    WindowResult result;
    result.window = window;
    dt::exec::RelationProvider kept_inputs;
    for (auto& [name, lane] : lanes_by_name_) {
      auto it = lane->kept_buffers.find(window);
      if (it != lane->kept_buffers.end()) {
        account_.Release(dt::mem::Component::kWindowBuffers,
                         dt::mem::RelationBytes(it->second));
        result.kept_tuples += static_cast<int64_t>(it->second.size());
        kept_inputs[dt::exec::ChannelKey{name, dt::plan::Channel::kKept}] =
            std::move(it->second);
        lane->kept_buffers.erase(it);
        lane->buffer_touch.erase(window);
      }
      auto dropped_it = lane->dropped_counts.find(window);
      if (dropped_it != lane->dropped_counts.end()) {
        result.dropped_tuples += dropped_it->second;
        lane->dropped_counts.erase(dropped_it);
      }
    }

    const dt::plan::LogicalPlan& exact_plan =
        query.has_aggregate ? *triaged_.kept_plan
                            : *triaged_.kept_output_plan;
    dt::exec::ExecStats exec_stats;
    dt::Result<dt::exec::Relation> evaluated = [&] {
      Span span(tracer_, Layer::kExec, /*costs=*/true);
      return dt::exec::EvaluatePlan(
          exact_plan, kept_inputs, &exec_stats,
          dt::exec::EvalOptions{config_.vectorized_exec,
                                config_.vectorized_min_rows, nullptr, 0});
    }();
    if (!evaluated.ok()) return evaluated.status();
    dt::exec::Relation kept_rows = std::move(evaluated).value();
    session_time_ += static_cast<double>(exec_stats.TotalWork()) *
                     config_.cost_model.exact_work_unit_cost;
    counts_->exec_rows_out += exec_stats.tuples_output;
    counts_->exec_work_units += exec_stats.TotalWork();

    // Every stage's span opens for every window, so a stage that a
    // session's strategy or query shape skips reads as the cost of the
    // skip rather than as no sample at all.
    dt::rewrite::SynopsisProvider synopses;
    std::vector<dt::synopsis::SynopsisPtr> owned;
    {
      Span span(tracer_, Layer::kTakeWindow);
      for (auto& [name, lane] : lanes_by_name_) {
        if (lane->synopsizer == nullptr) continue;  // drop-only
        dt::triage::WindowSynopsizer::WindowSynopses window_synopses =
            lane->synopsizer->TakeWindow(window);
        if (window_synopses.kept != nullptr) {
          synopses[dt::exec::ChannelKey{name, dt::plan::Channel::kKept}] =
              window_synopses.kept.get();
          owned.push_back(std::move(window_synopses.kept));
        }
        if (window_synopses.dropped != nullptr) {
          synopses[dt::exec::ChannelKey{name, dt::plan::Channel::kDropped}] =
              window_synopses.dropped.get();
          owned.push_back(std::move(window_synopses.dropped));
        }
      }
    }
    dt::synopsis::SynopsisPtr shadow_result;
    {
      Span span(tracer_, Layer::kShadow);
      if (config_.strategy != SheddingStrategy::kDropOnly) {
        dt::synopsis::OpStats op_stats;
        DT_ASSIGN_OR_RETURN(
            shadow_result,
            dt::rewrite::EvaluateShadowPlan(*triaged_.dropped_plan, synopses,
                                            config_.synopsis, &op_stats));
        session_time_ += static_cast<double>(op_stats.work) *
                         config_.cost_model.synopsis_work_unit_cost;
        counts_->shadow_work_units += op_stats.work;
      }
    }

    // Merge (paper Fig. 2): exact rows + estimated lost results.
    dt::synopsis::GroupedEstimate exact_groups;
    {
      Span span(tracer_, Layer::kMergeAccumulate, /*costs=*/true);
      if (query.has_aggregate) {
        exact_groups = dt::engine::AccumulateExact(
            kept_rows, agg_spec_, config_.vectorized_exec, &account_);
      }
    }
    if (query.has_aggregate) {
      {
        Span span(tracer_, Layer::kMergeBuildRows, /*costs=*/true);
        DT_ASSIGN_OR_RETURN(result.exact_rows,
                            dt::engine::BuildAggregateRows(
                                exact_groups, query, agg_spec_,
                                /*exact_types=*/true));
      }
      dt::synopsis::GroupedEstimate merged;
      {
        Span span(tracer_, Layer::kMergeEstimate, /*costs=*/true);
        merged = exact_groups;
        if (shadow_result != nullptr) {
          DT_ASSIGN_OR_RETURN(
              result.shadow_estimate,
              shadow_result->EstimateGroups(agg_spec_.group_columns,
                                            agg_spec_.agg_columns));
          dt::engine::MergeGroupedEstimates(&merged, result.shadow_estimate);
        }
      }
      Span span(tracer_, Layer::kMergeBuildRows, /*costs=*/true);
      DT_ASSIGN_OR_RETURN(result.merged_rows,
                          dt::engine::BuildAggregateRows(
                              merged, query, agg_spec_,
                              /*exact_types=*/false));
      if (query.having != nullptr) {
        auto apply_having = [&](dt::exec::Relation* rows) {
          dt::exec::Relation filtered;
          filtered.reserve(rows->size());
          for (Tuple& row : *rows) {
            if (query.having->EvaluatesToTrue(row)) {
              filtered.push_back(std::move(row));
            }
          }
          *rows = std::move(filtered);
        };
        apply_having(&result.exact_rows);
        apply_having(&result.merged_rows);
      }
    } else {
      Span span(tracer_, Layer::kMergeEstimate, /*costs=*/true);
      result.exact_rows = kept_rows;
      result.merged_rows = std::move(kept_rows);
      if (shadow_result != nullptr && !query.is_pattern() &&
          !query.computed_projection && !query.projection.empty()) {
        DT_ASSIGN_OR_RETURN(
            result.result_synopsis,
            shadow_result->ProjectColumns(query.projection,
                                          query.projection_names, nullptr));
      }
    }

    {
      // Presentation: per-window ORDER BY and LIMIT.
      Span span(tracer_, Layer::kMergeBuildRows, /*costs=*/true);
      auto apply = [&](dt::exec::Relation* rows) {
        if (!query.sort_keys.empty()) {
          std::stable_sort(
              rows->begin(), rows->end(),
              [&](const Tuple& a, const Tuple& b) {
                for (const auto& [index, descending] : query.sort_keys) {
                  const dt::Value& va = a.value(index);
                  const dt::Value& vb = b.value(index);
                  if (va < vb) return !descending;
                  if (vb < va) return descending;
                }
                return false;
              });
        }
        if (query.limit >= 0 &&
            rows->size() > static_cast<size_t>(query.limit)) {
          rows->resize(static_cast<size_t>(query.limit));
        }
      };
      if (!query.sort_keys.empty() || query.limit >= 0) {
        apply(&result.exact_rows);
        apply(&result.merged_rows);
      }
    }

    session_time_ += config_.cost_model.emission_overhead;
    result.emit_time = session_time_;
    ++counts_->windows;
    {
      Span span(tracer_, Layer::kDeliver);
      results_.push_back(std::move(result));
    }
    return MaybeShedForMemory();
  }

  dt::rewrite::TriagedQuery triaged_;
  dt::engine::EngineConfig config_;
  dt::engine::AggregationSpec agg_spec_;
  Tracer* tracer_;
  MirrorResult* counts_;
  std::map<std::string, StreamLane*, std::less<>> lanes_by_name_;
  dt::VirtualDuration window_seconds_ = 1.0;
  dt::VirtualDuration window_slide_ = 1.0;
  VirtualTime session_time_ = 0.0;
  bool saw_arrival_ = false;
  WindowId next_window_to_emit_ = 0;
  WindowId last_window_seen_ = -1;
  std::vector<WindowResult> results_;
  dt::mem::SessionAccount account_;
  size_t server_budget_share_ = 0;
  int64_t ingested_ = 0;
  int64_t kept_ = 0;
  int64_t dropped_ = 0;
  int64_t memory_shed_ = 0;
};

}  // namespace

MirrorResult RunMirror(const Workload& workload) {
  MirrorResult out;
  Tracer tracer;
  dt::server::IngestPlane plane(workload.catalog);
  dt::mem::MemoryAccountant accountant(workload.options.memory_budget_bytes);
  std::vector<std::unique_ptr<MirrorSession>> sessions;
  std::unordered_map<const StreamLane*, MirrorSession*> owner;
  for (const QuerySpec& spec : workload.queries) {
    out.status = spec.config.Validate();
    if (!out.status.ok()) return out;
    dt::Result<dt::sql::Statement> statement =
        dt::sql::ParseStatement(spec.sql);
    if (!statement.ok()) {
      out.status = statement.status();
      return out;
    }
    dt::Result<dt::plan::BoundQuery> bound =
        dt::plan::BindStatement(*statement, plane.catalog());
    if (!bound.ok()) {
      out.status = bound.status();
      return out;
    }
    dt::Result<std::unique_ptr<MirrorSession>> session = MirrorSession::Make(
        &plane, std::move(bound).value(), spec.config, &tracer, &accountant,
        &out);
    if (!session.ok()) {
      out.status = session.status();
      return out;
    }
    for (const auto& [name, lane] : (*session)->lanes()) {
      owner.emplace(lane, session->get());
    }
    sessions.push_back(std::move(session).value());
  }
  // The server splits its budget evenly across live sessions.
  if (workload.options.memory_budget_bytes > 0) {
    const size_t share = std::max<size_t>(
        1, workload.options.memory_budget_bytes / sessions.size());
    for (auto& session : sessions) session->SetServerBudgetShare(share);
  }
  plane.SetDispatcher([&](StreamLane* lane, const Tuple& tuple) {
    Span span(&tracer, Layer::kSession);
    ++out.deliveries;
    return owner.at(lane)->Ingest(lane, tuple);
  });

  const std::span<const dt::engine::StreamEvent> feed(workload.events);
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < feed.size() && out.status.ok();
       i += kPushChunk) {
    Span span(&tracer, Layer::kIngestRoute);
    out.status = plane.PushBatch(
        feed.subspan(i, std::min(kPushChunk, feed.size() - i)));
  }
  for (auto& session : sessions) {
    if (!out.status.ok()) break;
    Span span(&tracer, Layer::kSession);
    out.status = session->Finish();
  }
  out.wall_s = SecondsSince(start);
  out.events = static_cast<int64_t>(feed.size());
  out.layers = tracer.totals();
  for (const auto& session : sessions) {
    out.digest.sessions.push_back(DigestSession(
        session->results(), "", session->ingested(), session->kept(),
        session->dropped(), session->memory_shed()));
  }
  return out;
}

}  // namespace e2ebench
