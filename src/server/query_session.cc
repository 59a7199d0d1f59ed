#include "src/server/query_session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/serde.h"
#include "src/common/string_util.h"
#include "src/exec/evaluator.h"
#include "src/exec/vector_eval.h"
#include "src/rewrite/shadow_plan.h"
#include "src/synopsis/serde.h"
#include "src/tuple/serde.h"

namespace datatriage::server {

using engine::WindowResult;
using triage::SheddingStrategy;

std::string_view SessionLifecycleToString(SessionLifecycle lifecycle) {
  switch (lifecycle) {
    case SessionLifecycle::kActive:
      return "kActive";
    case SessionLifecycle::kDetached:
      return "kDetached";
  }
  return "?";
}

Result<std::unique_ptr<QuerySession>> QuerySession::Make(
    SessionId id, IngestPlane* plane, plan::BoundQuery query,
    engine::EngineConfig config) {
  DT_ASSIGN_OR_RETURN(rewrite::TriagedQuery triaged,
                      rewrite::RewriteForDataTriage(std::move(query)));
  if (!triaged.plus_is_empty &&
      config.strategy != SheddingStrategy::kDropOnly) {
    return Status::Unimplemented(
        "queries whose differential plus-plan is non-empty (EXCEPT) "
        "cannot run with synopsis-based shedding");
  }
  auto session = std::unique_ptr<QuerySession>(
      new QuerySession(id, std::move(triaged), std::move(config)));
  DT_RETURN_IF_ERROR(session->Init(plane));
  return session;
}

QuerySession::QuerySession(SessionId id, rewrite::TriagedQuery triaged,
                           engine::EngineConfig config)
    : id_(id), triaged_(std::move(triaged)), config_(std::move(config)) {
  // The shadow algebra's exact synopses follow the executor's mode so a
  // session is either fully vectorized or fully scalar.
  config_.synopsis.vectorized_exec = config_.vectorized_exec;
}

Status QuerySession::Init(IngestPlane* plane) {
  const plan::BoundQuery& query = triaged_.query;
  if (query.from_streams.empty()) {
    return Status::InvalidArgument("query reads no streams");
  }
  // Uniform windows: the session emits one composite result per window,
  // so all streams must agree on the window range and slide (as in the
  // paper's experiments).
  window_seconds_ = query.window_seconds.begin()->second;
  for (const auto& [stream, seconds] : query.window_seconds) {
    if (seconds != window_seconds_) {
      return Status::Unimplemented(
          "the engine requires one window length across all streams "
          "of a query");
    }
  }
  window_slide_ = window_seconds_;
  if (!query.window_slide_seconds.empty()) {
    window_slide_ = query.window_slide_seconds.begin()->second;
    for (const auto& [stream, slide] : query.window_slide_seconds) {
      if (slide != window_slide_) {
        return Status::Unimplemented(
            "the engine requires one window slide across all streams "
            "of a query");
      }
    }
  }
  if (window_slide_ <= 0) {
    return Status::InvalidArgument("window slide must be positive");
  }
  if (query.has_aggregate) {
    DT_ASSIGN_OR_RETURN(agg_spec_, engine::MakeAggregationSpec(query));
  }

  // The utility drop policy needs the MATCH pattern to score against;
  // Subscribe rejects kUtility when no spec is available (non-MATCH
  // queries).
  triage::UtilityPatternSpec utility_spec;
  const triage::UtilityPatternSpec* utility_spec_ptr = nullptr;
  if (query.is_pattern() &&
      config_.drop_policy == triage::DropPolicyKind::kUtility) {
    utility_spec.steps = query.pattern_node->pattern_steps();
    utility_spec.key_index = query.pattern_node->pattern_key_index();
    utility_spec.within_seconds =
        query.pattern_node->pattern_within_seconds();
    utility_spec_ptr = &utility_spec;
  }

  // Lanes are created (and drop-policy Rngs forked) in FROM-clause order,
  // matching the single-query engine's seeding exactly.
  Rng seeder(config_.seed);
  for (const std::string& stream : query.from_streams) {
    if (lanes_by_name_.count(stream) > 0) continue;  // self-join: one lane
    DT_ASSIGN_OR_RETURN(
        StreamLane * lane,
        plane->Subscribe(this, stream, config_, window_seconds_,
                         window_slide_, &seeder, utility_spec_ptr));
    lanes_by_name_.emplace(stream, lane);
  }
  InitInstruments();
  return Status::OK();
}

void QuerySession::InitInstruments() {
  // Byte accounting is always on (the mem.*.bytes gauges and their
  // high-watermarks are part of every export); only the enforcement
  // counters are budget-gated.
  account_.BindGauges(&metrics_);
  ingested_counter_ = metrics_.GetCounter("engine.tuples_ingested");
  kept_counter_ = metrics_.GetCounter("engine.tuples_kept");
  dropped_counter_ = metrics_.GetCounter("engine.tuples_dropped");
  windows_counter_ = metrics_.GetCounter("engine.windows_emitted");
  exec_scanned_ = metrics_.GetCounter("exec.tuples_scanned");
  exec_output_ = metrics_.GetCounter("exec.tuples_output");
  exec_probes_ = metrics_.GetCounter("exec.join_probes");
  exec_build_inserts_ = metrics_.GetCounter("exec.join_build_inserts");
  exec_comparisons_ = metrics_.GetCounter("exec.comparisons");
  shadow_work_ = metrics_.GetCounter("shadow.work_units");
  // Latency past the emission deadline, in virtual seconds. The floor is
  // the emission overhead (~2e-4 s); heavy backlog pushes emissions whole
  // windows late, hence the wide top end.
  emission_latency_ = metrics_.GetHistogram(
      "engine.emission_latency_seconds",
      {0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
       1.0, 2.0, 5.0});

  for (auto& [name, lane] : lanes_by_name_) {
    const std::string prefix = "stream." + name;
    if (lane->queue != nullptr) {
      lane->queue->SetAccount(&account_);
      triage::QueueInstruments queue_instruments;
      queue_instruments.depth =
          metrics_.GetGauge(prefix + ".queue_depth");
      // Utility-shed victims get their own drop cause: the conservation
      // oracle partitions dropped tuples over stream.*.dropped.*, so the
      // rename folds in without any oracle change.
      queue_instruments.policy_evicted = metrics_.GetCounter(
          prefix +
          (config_.drop_policy == triage::DropPolicyKind::kUtility
               ? ".dropped.utility_shed"
               : ".dropped.policy_evicted"));
      queue_instruments.force_evicted =
          metrics_.GetCounter(prefix + ".dropped.force_shed");
      lane->queue->SetInstruments(queue_instruments);
    }
    if (lane->synopsizer != nullptr) {
      lane->synopsizer->SetAccount(&account_);
      triage::SynopsizerInstruments synopsizer_instruments;
      synopsizer_instruments.kept_folded =
          metrics_.GetCounter(prefix + ".synopsis.kept_folded");
      synopsizer_instruments.dropped_folded =
          metrics_.GetCounter(prefix + ".synopsis.dropped_folded");
      lane->synopsizer->SetInstruments(synopsizer_instruments);
      lane->synopsis_build_seconds =
          metrics_.GetGauge(prefix + ".synopsis.build_seconds");
    }
    if (config_.strategy == SheddingStrategy::kSummarizeOnly) {
      lane->summarized_dropped =
          metrics_.GetCounter(prefix + ".dropped.summarized");
    }
    if (lane->sim_faults != nullptr) {
      // Fault-injected sheds get their own cause so the drop-cause
      // partition invariant (dropped == sum of stream.*.dropped.*) holds
      // under injection too. Only registered when faults are installed:
      // production exports stay byte-identical.
      lane->fault_shed =
          metrics_.GetCounter(prefix + ".dropped.fault_shed");
    }
  }
  if (config_.memory_budget_bytes > 0) EnsureMemoryInstruments();
}

void QuerySession::EnsureMemoryInstruments() {
  if (mem_over_budget_ != nullptr) return;
  // Self-check counters (asserted zero by the sim accounting oracle) and
  // the memory_shed drop cause. Registered only for budgeted sessions so
  // unbudgeted metric exports are byte-identical to earlier versions.
  mem_over_budget_ = metrics_.GetCounter("mem.boundary_over_budget");
  mem_invariant_violations_ =
      metrics_.GetCounter("mem.invariant_violations");
  for (auto& [name, lane] : lanes_by_name_) {
    lane->memory_shed =
        metrics_.GetCounter("stream." + name + ".dropped.memory_shed");
  }
}

void QuerySession::SetServerBudgetShare(size_t bytes) {
  server_budget_share_ = bytes;
  if (bytes > 0) EnsureMemoryInstruments();
}

size_t QuerySession::EffectiveMemoryBudget() const {
  size_t budget = config_.memory_budget_bytes;
  if (server_budget_share_ > 0 &&
      (budget == 0 || server_budget_share_ < budget)) {
    budget = server_budget_share_;
  }
  return budget;
}

Status QuerySession::Ingest(StreamLane* lane, const Tuple& tuple) {
  DT_CHECK(lane->session == this);
  const VirtualTime arrival = tuple.timestamp();
  const WindowSpan covering =
      CoveringWindows(arrival, window_seconds_, window_slide_);
  if (!saw_arrival_) {
    saw_arrival_ = true;
    next_window_to_emit_ =
        covering.empty() ? covering.last : covering.first;
    if (next_window_to_emit_ < 0) next_window_to_emit_ = 0;
  }
  last_window_seen_ =
      std::max(last_window_seen_,
               std::max(covering.last, static_cast<WindowId>(0)));

  DT_RETURN_IF_ERROR(ProcessUntil(arrival));

  ++stats_.tuples_ingested;
  ingested_counter_->Add(1);
  if (lane->sim_faults != nullptr) {
    // Simulation fault hooks (sim_faults.h). Decisions depend only on
    // the arrival timestamp and session-local state, so they replay
    // identically at every worker count.
    const SimFaults& faults = *lane->sim_faults;
    if (faults.stall_seconds > 0.0 && arrival >= faults.stall_from &&
        arrival < faults.stall_to) {
      // Delayed consumer: bill the stall as exact-path work.
      ChargeExactTime(faults.stall_seconds);
    }
    if (faults.force_overflow &&
        config_.strategy != SheddingStrategy::kSummarizeOnly &&
        arrival >= faults.overflow_from && arrival < faults.overflow_to) {
      // Forced overflow: the arrival never reaches the queue — shed it
      // through the normal victim path under the fault_shed cause.
      lane->fault_shed->Add(1);
      DT_RETURN_IF_ERROR(ShedTuple(lane, tuple));
      return MaybeShedForMemory();
    }
  }
  if (config_.strategy == SheddingStrategy::kSummarizeOnly) {
    // Summarize-only bypasses the triage queue entirely (paper
    // Sec. 5.2.1): every tuple is folded into the window synopses.
    ++stats_.tuples_dropped;
    dropped_counter_->Add(1);
    lane->summarized_dropped->Add(1);
    for (WindowId w = std::max(covering.first, next_window_to_emit_);
         w <= covering.last; ++w) {
      DT_RETURN_IF_ERROR(lane->synopsizer->AddDroppedToWindow(tuple, w));
      ChargeSynopsisTime(lane, config_.cost_model.synopsis_insert_cost);
      lane->dropped_counts[w] += 1;
    }
    return MaybeShedForMemory();
  }
  std::optional<Tuple> victim = lane->queue->Push(tuple);
  if (victim.has_value()) {
    DT_RETURN_IF_ERROR(ShedTuple(lane, *victim));
  }
  return MaybeShedForMemory();
}

Status QuerySession::ShedTuple(StreamLane* lane, const Tuple& tuple) {
  ++stats_.tuples_dropped;
  dropped_counter_->Add(1);
  const WindowSpan pending = PendingWindowsFor(tuple.timestamp());
  for (WindowId w = pending.first; w <= pending.last; ++w) {
    DT_RETURN_IF_ERROR(ShedTupleForWindow(lane, tuple, w));
  }
  return Status::OK();
}

Status QuerySession::ShedTupleForWindow(StreamLane* lane,
                                        const Tuple& tuple,
                                        WindowId window) {
  lane->dropped_counts[window] += 1;
  if (config_.strategy == SheddingStrategy::kDataTriage ||
      config_.strategy == SheddingStrategy::kSummarizeOnly) {
    DT_RETURN_IF_ERROR(lane->synopsizer->AddDroppedToWindow(tuple, window));
    ChargeSynopsisTime(lane, config_.cost_model.synopsis_insert_cost);
  }
  // Drop-only: the tuple is discarded; only the count remains.
  return Status::OK();
}

WindowSpan QuerySession::PendingWindowsFor(VirtualTime t) const {
  WindowSpan span = CoveringWindows(t, window_seconds_, window_slide_);
  span.first = std::max(span.first, next_window_to_emit_);
  return span;
}

bool QuerySession::HasQueuedTuple() const {
  for (const auto& [name, lane] : lanes_by_name_) {
    if (!lane->queue->empty()) return true;
  }
  return false;
}

Status QuerySession::ProcessOneQueuedTuple() {
  StreamLane* best = nullptr;
  VirtualTime best_time = std::numeric_limits<double>::infinity();
  for (auto& [name, lane] : lanes_by_name_) {
    if (lane->queue->empty()) continue;
    if (lane->queue->Front().timestamp() < best_time) {
      best_time = lane->queue->Front().timestamp();
      best = lane;
    }
  }
  DT_CHECK(best != nullptr);
  Tuple tuple = best->queue->PopFront();
  ++stats_.tuples_kept;
  kept_counter_->Add(1);
  ChargeExactTime(config_.cost_model.exact_tuple_cost);
  // The tuple becomes a kept tuple of every covering window that has not
  // yet emitted (windows whose deadline already passed counted it as
  // dropped at their emission).
  const WindowSpan pending = PendingWindowsFor(tuple.timestamp());
  const size_t tuple_bytes = mem::TupleBytes(tuple);
  const VirtualTime touch = tuple.timestamp();
  for (WindowId w = pending.first; w <= pending.last; ++w) {
    if (config_.strategy == SheddingStrategy::kDataTriage) {
      // Data Triage also synopsizes kept tuples so the shadow plan can
      // join dropped data against them (paper Sec. 5.1).
      DT_RETURN_IF_ERROR(best->synopsizer->AddKeptToWindow(tuple, w));
      ChargeSynopsisTime(best, config_.cost_model.synopsis_insert_cost);
    }
    account_.Charge(mem::Component::kWindowBuffers, tuple_bytes);
    best->buffer_touch[w] = touch;
    // The last covering window takes the tuple by move (the common
    // tumbling-window case copies nothing); earlier sliding windows copy.
    if (w == pending.last) {
      best->kept_buffers[w].push_back(std::move(tuple));
    } else {
      best->kept_buffers[w].push_back(tuple);
    }
  }
  return Status::OK();
}

bool QuerySession::HasFoldableWindow() const {
  for (const auto& [name, lane] : lanes_by_name_) {
    if (!lane->buffer_touch.empty()) return true;
  }
  return false;
}

Status QuerySession::MaybeShedForMemory() {
  const size_t budget = EffectiveMemoryBudget();
  if (budget == 0) return Status::OK();
  EnsureMemoryInstruments();
  while (account_.TotalBytes() > budget) {
    // Coldest foldable window: least recently appended-to by arrival
    // timestamp; lanes iterate in stream-name order and windows in id
    // order, so the strict `<` breaks ties by (touch, stream, window) —
    // fully deterministic, never wall-clock.
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
    // Nothing left to fold: the remaining bytes are irreducible state
    // (queue capacity is bounded; synopses cannot shrink). The loop
    // terminates because each fold erases one buffered window.
    if (coldest_lane == nullptr) break;
    DT_RETURN_IF_ERROR(
        FoldWindowForMemory(coldest_lane, coldest_window));
  }
  return Status::OK();
}

Status QuerySession::FoldWindowForMemory(StreamLane* lane,
                                         WindowId window) {
  auto it = lane->kept_buffers.find(window);
  DT_CHECK(it != lane->kept_buffers.end());
  exec::Relation rows = std::move(it->second);
  lane->kept_buffers.erase(it);
  lane->buffer_touch.erase(window);
  account_.Release(mem::Component::kWindowBuffers,
                   mem::RelationBytes(rows));
  for (const Tuple& tuple : rows) {
    // For this window the tuple is now a dropped tuple: it is counted
    // (and, under synopsizing strategies, folded) exactly like a tuple
    // the deadline overran. Its kept copies in earlier sliding windows
    // are untouched.
    DT_RETURN_IF_ERROR(ShedTupleForWindow(lane, tuple, window));
    const WindowSpan covering = CoveringWindows(
        tuple.timestamp(), window_seconds_, window_slide_);
    if (covering.last == window) {
      // This was the tuple's final covering window, so it can no longer
      // reach any exact plan: flip it from kept to dropped globally
      // under the memory_shed cause. The conservation invariant
      // (ingested == kept + dropped) and the drop-cause partition both
      // stay exact.
      --stats_.tuples_kept;
      ++stats_.tuples_dropped;
      kept_counter_->Add(-1);
      dropped_counter_->Add(1);
      lane->memory_shed->Add(1);
    }
  }
  return Status::OK();
}

void QuerySession::CheckMemoryBoundary() {
  const size_t budget = EffectiveMemoryBudget();
  if (budget == 0) return;
  EnsureMemoryInstruments();
  // MaybeShedForMemory only stops while over budget when nothing is
  // foldable; a boundary that is over budget *with* foldable state left
  // means enforcement failed.
  if (account_.TotalBytes() > budget && HasFoldableWindow()) {
    mem_over_budget_->Add(1);
  }
  // Double-entry audit: recompute ground truth from the owners and
  // compare against the account. Merge transients must have drained
  // (ScopedCharge) by every boundary.
  size_t queue_bytes = 0;
  size_t synopsis_bytes = 0;
  size_t buffer_bytes = 0;
  for (const auto& [name, lane] : lanes_by_name_) {
    if (lane->queue != nullptr) {
      queue_bytes += lane->queue->MemoryBytes();
    }
    if (lane->synopsizer != nullptr) {
      synopsis_bytes += lane->synopsizer->MemoryBytes();
    }
    for (const auto& [window, relation] : lane->kept_buffers) {
      buffer_bytes += mem::RelationBytes(relation);
    }
  }
  if (queue_bytes != account_.bytes(mem::Component::kTriageQueues) ||
      synopsis_bytes != account_.bytes(mem::Component::kSynopses) ||
      buffer_bytes != account_.bytes(mem::Component::kWindowBuffers) ||
      account_.bytes(mem::Component::kMergeState) != 0) {
    mem_invariant_violations_->Add(1);
  }
}

Status QuerySession::ProcessUntil(VirtualTime until) {
  while (true) {
    // Emission takes priority once the session clock passes a deadline.
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
    // Idle: jump the clock to the next interesting instant.
    VirtualTime target = until;
    if (next_window_to_emit_ <= last_window_seen_) {
      target = std::min(
          target, config_.cost_model.EmissionDeadline(
                      next_window_to_emit_, window_seconds_,
                      window_slide_));
    }
    session_time_ = target;
    if (session_time_ >= until) break;
  }
  return Status::OK();
}

Status QuerySession::EmitWindow(WindowId window) {
  const plan::BoundQuery& query = triaged_.query;
  const VirtualTime span_start =
      WindowSpanStart(window, window_seconds_, window_slide_);
  const VirtualTime span_end =
      WindowSpanEnd(window, window_seconds_, window_slide_);

  obs::WindowTraceRecord trace_record;
  trace_record.window = window;
  trace_record.deadline = config_.cost_model.EmissionDeadline(
      window, window_seconds_, window_slide_);

  // Account for window tuples the session did not reach before the
  // deadline. Tuples covering no window after this one are force-shed
  // for good; tuples that also belong to later (sliding) windows count
  // as dropped for this window but stay queued — they may still be kept
  // for the windows ahead.
  const VirtualTime final_cutoff =
      static_cast<double>(window + 1) * window_slide_;
  for (auto& [name, lane] : lanes_by_name_) {
    std::vector<Tuple> force_shed =
        lane->queue->EvictOlderThan(final_cutoff);
    trace_record.force_shed_by_stream[name] =
        static_cast<int64_t>(force_shed.size());
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

  // Exact side: evaluate the kept plan over this window's buffers.
  exec::RelationProvider kept_inputs;
  for (auto& [name, lane] : lanes_by_name_) {
    auto it = lane->kept_buffers.find(window);
    if (it != lane->kept_buffers.end()) {
      account_.Release(mem::Component::kWindowBuffers,
                       mem::RelationBytes(it->second));
      result.kept_tuples += static_cast<int64_t>(it->second.size());
      kept_inputs[exec::ChannelKey{name, plan::Channel::kKept}] =
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
  // Aggregate queries feed the SPJ core's output to the merge
  // accumulators; non-aggregate queries evaluate their full output plan
  // (projection or computed projection included).
  const plan::LogicalPlan& exact_plan =
      query.has_aggregate ? *triaged_.kept_plan
                          : *triaged_.kept_output_plan;
  const exec::EvalOptions eval_options{config_.vectorized_exec,
                                       config_.vectorized_min_rows,
                                       task_pool_, 0};
  // On the vectorized path that SPJ output stays a column view all the
  // way into the accumulators (DESIGN.md §13.4); rows are built only
  // where the result needs them (non-aggregate outputs, MATCH, scalar
  // mode). The view borrows string cells from kept_inputs' tuples, so
  // kept_inputs must outlive the merge below.
  const bool columnar_exact =
      query.has_aggregate &&
      exec::UsesVectorizedPath(exact_plan, kept_inputs, eval_options);
  exec::ExecStats exec_stats;
  exec::BatchView kept_view;
  exec::Relation kept_rows;
  if (columnar_exact) {
    exec::VectorEvaluator evaluator(&kept_inputs, eval_options.pool,
                                    eval_options.parallel_min_rows);
    DT_ASSIGN_OR_RETURN(kept_view, evaluator.EvaluateView(exact_plan));
    exec_stats = evaluator.stats();
  } else {
    DT_ASSIGN_OR_RETURN(kept_rows,
                        exec::EvaluatePlan(exact_plan, kept_inputs,
                                           &exec_stats, eval_options));
  }
  ChargeExactTime(static_cast<double>(exec_stats.TotalWork()) *
                  config_.cost_model.exact_work_unit_cost);
  // Roll this window's executor accounting into the registry.
  exec_scanned_->Add(exec_stats.tuples_scanned);
  exec_output_->Add(exec_stats.tuples_output);
  exec_probes_->Add(exec_stats.join_probes);
  exec_build_inserts_->Add(exec_stats.join_build_inserts);
  exec_comparisons_->Add(exec_stats.comparisons);
  trace_record.exact_work_units = exec_stats.TotalWork();

  // Shadow side: evaluate the dropped plan over the window's synopses.
  synopsis::SynopsisPtr shadow_result;
  if (config_.strategy != SheddingStrategy::kDropOnly) {
    rewrite::SynopsisProvider synopses;
    std::vector<synopsis::SynopsisPtr> owned;
    for (auto& [name, lane] : lanes_by_name_) {
      triage::WindowSynopsizer::WindowSynopses window_synopses =
          lane->synopsizer->TakeWindow(window);
      if (window_synopses.kept != nullptr) {
        synopses[exec::ChannelKey{name, plan::Channel::kKept}] =
            window_synopses.kept.get();
        owned.push_back(std::move(window_synopses.kept));
      }
      if (window_synopses.dropped != nullptr) {
        synopses[exec::ChannelKey{name, plan::Channel::kDropped}] =
            window_synopses.dropped.get();
        owned.push_back(std::move(window_synopses.dropped));
      }
    }
    synopsis::OpStats op_stats;
    DT_ASSIGN_OR_RETURN(
        shadow_result,
        rewrite::EvaluateShadowPlan(*triaged_.dropped_plan, synopses,
                                    config_.synopsis, &op_stats));
    ChargeSynopsisTime(static_cast<double>(op_stats.work) *
                       config_.cost_model.synopsis_work_unit_cost);
    shadow_work_->Add(op_stats.work);
    trace_record.shadow_work_units = op_stats.work;
  }

  // Merge (paper Fig. 2): exact rows + estimated lost results.
  if (query.has_aggregate) {
    synopsis::GroupedEstimate exact_groups =
        columnar_exact
            ? engine::AccumulateExact(kept_view, agg_spec_, &account_)
            : engine::AccumulateExact(kept_rows, agg_spec_,
                                      config_.vectorized_exec, &account_);
    DT_ASSIGN_OR_RETURN(
        result.exact_rows,
        engine::BuildAggregateRows(exact_groups, query, agg_spec_,
                           /*exact_types=*/true));
    synopsis::GroupedEstimate merged = exact_groups;
    if (shadow_result != nullptr) {
      DT_ASSIGN_OR_RETURN(
          result.shadow_estimate,
          shadow_result->EstimateGroups(agg_spec_.group_columns,
                                        agg_spec_.agg_columns));
      engine::MergeGroupedEstimates(&merged, result.shadow_estimate);
    }
    DT_ASSIGN_OR_RETURN(
        result.merged_rows,
        engine::BuildAggregateRows(merged, query, agg_spec_,
                           /*exact_types=*/false));
    if (query.having != nullptr) {
      auto apply_having = [&](exec::Relation* rows) {
        exec::Relation filtered;
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
    // Non-aggregate query: exact rows come straight from the output
    // plan; the loss estimate is delivered as a synopsis over the output
    // columns (plain projections only — computed expressions have no
    // synopsis counterpart).
    result.exact_rows = kept_rows;
    result.merged_rows = std::move(kept_rows);
    // MATCH queries have no loss estimate: a dropped tuple invalidates
    // whole match subsequences, which a synopsis over single tuples
    // cannot represent (DESIGN.md §17).
    if (shadow_result != nullptr && !query.is_pattern() &&
        !query.computed_projection && !query.projection.empty()) {
      DT_ASSIGN_OR_RETURN(
          result.result_synopsis,
          shadow_result->ProjectColumns(query.projection,
                                        query.projection_names, nullptr));
    }
  }

  // Presentation: per-window ORDER BY and LIMIT (top-k results).
  if (!query.sort_keys.empty() || query.limit >= 0) {
    auto apply = [&](exec::Relation* rows) {
      if (!query.sort_keys.empty()) {
        std::stable_sort(
            rows->begin(), rows->end(),
            [&](const Tuple& a, const Tuple& b) {
              for (const auto& [index, descending] : query.sort_keys) {
                const Value& va = a.value(index);
                const Value& vb = b.value(index);
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
    apply(&result.exact_rows);
    apply(&result.merged_rows);
  }

  session_time_ += config_.cost_model.emission_overhead;
  result.emit_time = session_time_;
  ++stats_.windows_emitted;
  windows_counter_->Add(1);

  trace_record.emit_time = result.emit_time;
  trace_record.latency = result.emit_time - trace_record.deadline;
  trace_record.kept_tuples = result.kept_tuples;
  trace_record.dropped_tuples = result.dropped_tuples;
  trace_record.exact_rows = static_cast<int64_t>(result.exact_rows.size());
  trace_record.merged_rows =
      static_cast<int64_t>(result.merged_rows.size());
  emission_latency_->Observe(trace_record.latency);
  trace_.Record(std::move(trace_record));

  DeliverResult(std::move(result));
  // Emission freed this window's buffers but grew nothing foldable;
  // still re-check (sliding windows may leave later buffers over the
  // budget) and audit the account at the boundary.
  DT_RETURN_IF_ERROR(MaybeShedForMemory());
  CheckMemoryBoundary();
  return Status::OK();
}

void QuerySession::DeliverResult(WindowResult&& result) {
  if (sink_) {
    sink_(std::move(result));
  } else {
    results_.push_back(std::move(result));
  }
}

void QuerySession::SetWindowSink(WindowSink sink) {
  sink_ = std::move(sink);
  if (!sink_) return;
  // Flush anything buffered before the sink existed so the sink sees the
  // same windows, in the same order, as TakeResults() would have.
  std::vector<WindowResult> buffered = std::move(results_);
  results_.clear();
  for (WindowResult& result : buffered) {
    sink_(std::move(result));
  }
}

engine::EngineStatsSnapshot QuerySession::StatsSnapshot() const {
  engine::EngineStatsSnapshot snapshot;
  snapshot.core = stats_;
  // Mid-run snapshots report the clock as of now; Finish pins the final
  // value into stats_ and the two then agree.
  snapshot.core.final_engine_time = session_time_;
  snapshot.counters = metrics_.CounterTotals();
  metrics_.ForEachGauge(
      [&snapshot](const std::string& name, const obs::Gauge& gauge) {
        snapshot.gauges.emplace(name, gauge.value());
      });
  snapshot.gauge_maxima = metrics_.GaugeMaxima();
  return snapshot;
}

Status QuerySession::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  if (!saw_arrival_) return Status::OK();
  // Run the clock past the last window's deadline; ProcessUntil
  // interleaves the remaining processing and emissions.
  const VirtualTime last_deadline = config_.cost_model.EmissionDeadline(
      last_window_seen_, window_seconds_, window_slide_);
  DT_RETURN_IF_ERROR(
      ProcessUntil(last_deadline + window_seconds_));
  // The loop above stops once the clock passes the target; make sure
  // every window actually emitted (processing backlog may have pushed the
  // clock further).
  while (next_window_to_emit_ <= last_window_seen_) {
    DT_RETURN_IF_ERROR(EmitWindow(next_window_to_emit_));
    ++next_window_to_emit_;
  }
  // A clock that ran ahead of the arrivals (processing backlog, or a
  // pathological cost model) can emit a window before all of its tuples
  // arrive; those stragglers are still queued here, with every covering
  // window already emitted. Evict them as force-shed so the conservation
  // invariant (ingested == kept + dropped) holds at end of stream.
  for (auto& [name, lane] : lanes_by_name_) {
    (void)name;
    std::vector<Tuple> stragglers = lane->queue->EvictOlderThan(
        std::numeric_limits<VirtualTime>::infinity());
    for (Tuple& tuple : stragglers) {
      DT_RETURN_IF_ERROR(ShedTuple(lane, tuple));
    }
    // Stateful drop policies (kUtility) release their observed state so
    // the mem.triage_queues gauge drains to zero with the queues empty.
    lane->queue->ClearPolicyState();
  }
  stats_.final_engine_time = session_time_;
  return Status::OK();
}

std::vector<WindowResult> QuerySession::TakeResults() {
  return std::move(results_);
}

void QuerySession::SetEffectiveFrom(VirtualTime t) {
  DT_CHECK(!saw_arrival_)
      << "effective-from must be set before the first arrival";
  effective_from_ = t;
  for (auto& [name, lane] : lanes_by_name_) {
    (void)name;
    lane->admit_from = t;
  }
}

// ---------------------------------------------------------------------
// Session snapshot serialization (DESIGN.md §14).
// ---------------------------------------------------------------------

namespace {

void SaveRelation(serde::Writer* writer, const exec::Relation& rows) {
  writer->WriteU64(rows.size());
  for (const Tuple& t : rows) SaveTuple(writer, t);
}

Status LoadRelation(serde::Reader* reader, exec::Relation* rows) {
  DT_ASSIGN_OR_RETURN(const uint64_t size, reader->ReadCount(16));
  rows->clear();
  rows->reserve(size);
  for (uint64_t i = 0; i < size; ++i) {
    DT_ASSIGN_OR_RETURN(Tuple t, LoadTuple(reader));
    rows->push_back(std::move(t));
  }
  return Status::OK();
}

void SaveGroupedEstimate(serde::Writer* writer,
                         const synopsis::GroupedEstimate& estimate) {
  writer->WriteU64(estimate.size());
  for (const auto& [key, accumulators] : estimate) {
    writer->WriteU64(key.size());
    for (const Value& v : key) SaveValue(writer, v);
    writer->WriteU64(accumulators.size());
    for (const synopsis::AggAccumulator& acc : accumulators) {
      writer->WriteDouble(acc.count);
      writer->WriteDouble(acc.sum);
      writer->WriteDouble(acc.min);
      writer->WriteDouble(acc.max);
    }
  }
}

Status LoadGroupedEstimate(serde::Reader* reader,
                           synopsis::GroupedEstimate* estimate) {
  estimate->clear();
  DT_ASSIGN_OR_RETURN(const uint64_t groups, reader->ReadCount(16));
  for (uint64_t g = 0; g < groups; ++g) {
    DT_ASSIGN_OR_RETURN(const uint64_t key_size, reader->ReadCount(8));
    std::vector<Value> key;
    key.reserve(key_size);
    for (uint64_t i = 0; i < key_size; ++i) {
      DT_ASSIGN_OR_RETURN(Value v, LoadValue(reader));
      key.push_back(std::move(v));
    }
    DT_ASSIGN_OR_RETURN(const uint64_t num_accs, reader->ReadCount(32));
    std::vector<synopsis::AggAccumulator> accumulators(num_accs);
    for (uint64_t i = 0; i < num_accs; ++i) {
      DT_ASSIGN_OR_RETURN(accumulators[i].count, reader->ReadDouble());
      DT_ASSIGN_OR_RETURN(accumulators[i].sum, reader->ReadDouble());
      DT_ASSIGN_OR_RETURN(accumulators[i].min, reader->ReadDouble());
      DT_ASSIGN_OR_RETURN(accumulators[i].max, reader->ReadDouble());
    }
    estimate->emplace(std::move(key), std::move(accumulators));
  }
  return Status::OK();
}

void SaveWindowResult(serde::Writer* writer, const WindowResult& result) {
  writer->WriteI64(result.window);
  writer->WriteDouble(result.emit_time);
  SaveRelation(writer, result.exact_rows);
  SaveRelation(writer, result.merged_rows);
  SaveGroupedEstimate(writer, result.shadow_estimate);
  synopsis::SaveSynopsis(writer, result.result_synopsis.get());
  writer->WriteI64(result.kept_tuples);
  writer->WriteI64(result.dropped_tuples);
}

Status LoadWindowResult(serde::Reader* reader, WindowResult* result) {
  DT_ASSIGN_OR_RETURN(result->window, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(result->emit_time, reader->ReadDouble());
  DT_RETURN_IF_ERROR(LoadRelation(reader, &result->exact_rows));
  DT_RETURN_IF_ERROR(LoadRelation(reader, &result->merged_rows));
  DT_RETURN_IF_ERROR(LoadGroupedEstimate(reader, &result->shadow_estimate));
  DT_ASSIGN_OR_RETURN(result->result_synopsis,
                      synopsis::LoadSynopsis(reader));
  DT_ASSIGN_OR_RETURN(result->kept_tuples, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(result->dropped_tuples, reader->ReadI64());
  return Status::OK();
}

void SaveTraceRecord(serde::Writer* writer,
                     const obs::WindowTraceRecord& record) {
  writer->WriteI64(record.window);
  writer->WriteDouble(record.deadline);
  writer->WriteDouble(record.emit_time);
  writer->WriteDouble(record.latency);
  writer->WriteI64(record.kept_tuples);
  writer->WriteI64(record.dropped_tuples);
  writer->WriteU64(record.force_shed_by_stream.size());
  for (const auto& [stream, count] : record.force_shed_by_stream) {
    writer->WriteString(stream);
    writer->WriteI64(count);
  }
  writer->WriteI64(record.exact_rows);
  writer->WriteI64(record.merged_rows);
  writer->WriteI64(record.exact_work_units);
  writer->WriteI64(record.shadow_work_units);
}

Status LoadTraceRecord(serde::Reader* reader,
                       obs::WindowTraceRecord* record) {
  DT_ASSIGN_OR_RETURN(record->window, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(record->deadline, reader->ReadDouble());
  DT_ASSIGN_OR_RETURN(record->emit_time, reader->ReadDouble());
  DT_ASSIGN_OR_RETURN(record->latency, reader->ReadDouble());
  DT_ASSIGN_OR_RETURN(record->kept_tuples, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(record->dropped_tuples, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(const uint64_t streams, reader->ReadCount(16));
  for (uint64_t i = 0; i < streams; ++i) {
    DT_ASSIGN_OR_RETURN(std::string stream, reader->ReadString());
    DT_ASSIGN_OR_RETURN(const int64_t count, reader->ReadI64());
    record->force_shed_by_stream.emplace(std::move(stream), count);
  }
  DT_ASSIGN_OR_RETURN(record->exact_rows, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(record->merged_rows, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(record->exact_work_units, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(record->shadow_work_units, reader->ReadI64());
  return Status::OK();
}

void SaveRegistry(serde::Writer* writer,
                  const obs::MetricsRegistry& registry) {
  const std::map<std::string, int64_t> counters = registry.CounterTotals();
  writer->WriteU64(counters.size());
  for (const auto& [name, value] : counters) {
    writer->WriteString(name);
    writer->WriteI64(value);
  }
  size_t num_gauges = 0;
  registry.ForEachGauge(
      [&num_gauges](const std::string&, const obs::Gauge&) {
        ++num_gauges;
      });
  writer->WriteU64(num_gauges);
  registry.ForEachGauge(
      [writer](const std::string& name, const obs::Gauge& gauge) {
        writer->WriteString(name);
        writer->WriteDouble(gauge.value());
        writer->WriteDouble(gauge.max());
      });
  size_t num_histograms = 0;
  registry.ForEachHistogram(
      [&num_histograms](const std::string&, const obs::Histogram&) {
        ++num_histograms;
      });
  writer->WriteU64(num_histograms);
  registry.ForEachHistogram([writer](const std::string& name,
                                     const obs::Histogram& histogram) {
    writer->WriteString(name);
    writer->WriteU64(histogram.upper_bounds().size());
    for (const double bound : histogram.upper_bounds()) {
      writer->WriteDouble(bound);
    }
    writer->WriteI64(histogram.count());
    writer->WriteDouble(histogram.sum());
    writer->WriteDouble(histogram.min());
    writer->WriteDouble(histogram.max());
    for (const int64_t bucket : histogram.bucket_counts()) {
      writer->WriteI64(bucket);
    }
  });
}

Status LoadRegistry(serde::Reader* reader, obs::MetricsRegistry* registry) {
  DT_ASSIGN_OR_RETURN(const uint64_t num_counters, reader->ReadCount(16));
  for (uint64_t i = 0; i < num_counters; ++i) {
    DT_ASSIGN_OR_RETURN(const std::string name, reader->ReadString());
    DT_ASSIGN_OR_RETURN(const int64_t value, reader->ReadI64());
    registry->GetCounter(name)->Restore(value);
  }
  DT_ASSIGN_OR_RETURN(const uint64_t num_gauges, reader->ReadCount(24));
  for (uint64_t i = 0; i < num_gauges; ++i) {
    DT_ASSIGN_OR_RETURN(const std::string name, reader->ReadString());
    DT_ASSIGN_OR_RETURN(const double value, reader->ReadDouble());
    DT_ASSIGN_OR_RETURN(const double max, reader->ReadDouble());
    registry->GetGauge(name)->Restore(value, max);
  }
  DT_ASSIGN_OR_RETURN(const uint64_t num_histograms, reader->ReadCount(16));
  for (uint64_t i = 0; i < num_histograms; ++i) {
    DT_ASSIGN_OR_RETURN(const std::string name, reader->ReadString());
    DT_ASSIGN_OR_RETURN(const uint64_t num_bounds, reader->ReadCount(8));
    std::vector<double> bounds(num_bounds);
    for (uint64_t b = 0; b < num_bounds; ++b) {
      DT_ASSIGN_OR_RETURN(bounds[b], reader->ReadDouble());
    }
    DT_ASSIGN_OR_RETURN(const int64_t count, reader->ReadI64());
    DT_ASSIGN_OR_RETURN(const double sum, reader->ReadDouble());
    DT_ASSIGN_OR_RETURN(const double min, reader->ReadDouble());
    DT_ASSIGN_OR_RETURN(const double max, reader->ReadDouble());
    std::vector<int64_t> buckets(num_bounds + 1);
    for (uint64_t b = 0; b < buckets.size(); ++b) {
      DT_ASSIGN_OR_RETURN(buckets[b], reader->ReadI64());
    }
    registry->GetHistogram(name, bounds)
        ->Restore(count, sum, min, max, std::move(buckets));
  }
  return Status::OK();
}

}  // namespace

void QuerySession::SaveState(serde::Writer* writer) const {
  writer->WriteDouble(session_time_);
  writer->WriteBool(saw_arrival_);
  writer->WriteI64(next_window_to_emit_);
  writer->WriteI64(last_window_seen_);
  writer->WriteBool(finished_);
  writer->WriteDouble(effective_from_);

  writer->WriteI64(stats_.tuples_ingested);
  writer->WriteI64(stats_.tuples_kept);
  writer->WriteI64(stats_.tuples_dropped);
  writer->WriteI64(stats_.windows_emitted);
  writer->WriteDouble(stats_.exact_work_seconds);
  writer->WriteDouble(stats_.synopsis_work_seconds);
  writer->WriteDouble(stats_.final_engine_time);

  writer->WriteU64(lanes_by_name_.size());
  for (const auto& [name, lane] : lanes_by_name_) {
    writer->WriteString(name);
    writer->WriteDouble(lane->admit_from);
    lane->queue->SaveState(writer);
    writer->WriteBool(lane->synopsizer != nullptr);
    if (lane->synopsizer != nullptr) lane->synopsizer->SaveState(writer);
    writer->WriteU64(lane->kept_buffers.size());
    for (const auto& [window, relation] : lane->kept_buffers) {
      writer->WriteI64(window);
      SaveRelation(writer, relation);
    }
    writer->WriteU64(lane->dropped_counts.size());
    for (const auto& [window, count] : lane->dropped_counts) {
      writer->WriteI64(window);
      writer->WriteI64(count);
    }
    writer->WriteU64(lane->buffer_touch.size());
    for (const auto& [window, touched] : lane->buffer_touch) {
      writer->WriteI64(window);
      writer->WriteDouble(touched);
    }
  }

  writer->WriteU64(results_.size());
  for (const WindowResult& result : results_) {
    SaveWindowResult(writer, result);
  }

  writer->WriteU64(trace_.records().size());
  for (const obs::WindowTraceRecord& record : trace_.records()) {
    SaveTraceRecord(writer, record);
  }
  writer->WriteI64(trace_.total_recorded());

  // Memory-account state (format v2): live bytes are redundant with the
  // lane state above (LoadState cross-checks them), peaks are not.
  for (size_t i = 0; i < mem::kNumComponents; ++i) {
    const auto component = static_cast<mem::Component>(i);
    writer->WriteU64(account_.bytes(component));
    writer->WriteU64(account_.peak_bytes(component));
  }

  SaveRegistry(writer, metrics_);
}

Status QuerySession::LoadState(serde::Reader* reader) {
  DT_ASSIGN_OR_RETURN(session_time_, reader->ReadDouble());
  DT_ASSIGN_OR_RETURN(saw_arrival_, reader->ReadBool());
  DT_ASSIGN_OR_RETURN(next_window_to_emit_, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(last_window_seen_, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(finished_, reader->ReadBool());
  DT_ASSIGN_OR_RETURN(effective_from_, reader->ReadDouble());

  DT_ASSIGN_OR_RETURN(stats_.tuples_ingested, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(stats_.tuples_kept, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(stats_.tuples_dropped, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(stats_.windows_emitted, reader->ReadI64());
  DT_ASSIGN_OR_RETURN(stats_.exact_work_seconds, reader->ReadDouble());
  DT_ASSIGN_OR_RETURN(stats_.synopsis_work_seconds, reader->ReadDouble());
  DT_ASSIGN_OR_RETURN(stats_.final_engine_time, reader->ReadDouble());

  // Window-buffer charges belong to the session (not a lane object), so
  // drop any existing ones before the lanes re-charge their state.
  account_.Release(mem::Component::kWindowBuffers,
                   account_.bytes(mem::Component::kWindowBuffers));

  DT_ASSIGN_OR_RETURN(const uint64_t num_lanes, reader->ReadCount(8));
  if (num_lanes != lanes_by_name_.size()) {
    return Status::InvalidArgument(StringPrintf(
        "snapshot: lane count %llu does not match the rebuilt query's "
        "%zu lane(s)",
        static_cast<unsigned long long>(num_lanes),
        lanes_by_name_.size()));
  }
  for (auto& [name, lane] : lanes_by_name_) {
    DT_ASSIGN_OR_RETURN(const std::string saved_name,
                        reader->ReadString());
    if (saved_name != name) {
      return Status::InvalidArgument(StringPrintf(
          "snapshot: lane '%s' does not match the rebuilt query's "
          "lane '%s'",
          saved_name.c_str(), name.c_str()));
    }
    DT_ASSIGN_OR_RETURN(lane->admit_from, reader->ReadDouble());
    DT_RETURN_IF_ERROR(lane->queue->LoadState(reader));
    DT_ASSIGN_OR_RETURN(const bool has_synopsizer, reader->ReadBool());
    if (has_synopsizer != (lane->synopsizer != nullptr)) {
      return Status::InvalidArgument(
          "snapshot: synopsizer presence does not match the rebuilt "
          "session's shedding strategy");
    }
    if (lane->synopsizer != nullptr) {
      DT_RETURN_IF_ERROR(lane->synopsizer->LoadState(reader));
    }
    DT_ASSIGN_OR_RETURN(const uint64_t num_buffers, reader->ReadCount(16));
    lane->kept_buffers.clear();
    for (uint64_t i = 0; i < num_buffers; ++i) {
      DT_ASSIGN_OR_RETURN(const WindowId window, reader->ReadI64());
      exec::Relation relation;
      DT_RETURN_IF_ERROR(LoadRelation(reader, &relation));
      account_.Charge(mem::Component::kWindowBuffers,
                      mem::RelationBytes(relation));
      lane->kept_buffers.emplace(window, std::move(relation));
    }
    DT_ASSIGN_OR_RETURN(const uint64_t num_counts, reader->ReadCount(16));
    lane->dropped_counts.clear();
    for (uint64_t i = 0; i < num_counts; ++i) {
      DT_ASSIGN_OR_RETURN(const WindowId window, reader->ReadI64());
      DT_ASSIGN_OR_RETURN(const int64_t count, reader->ReadI64());
      lane->dropped_counts.emplace(window, count);
    }
    DT_ASSIGN_OR_RETURN(const uint64_t num_touches,
                        reader->ReadCount(16));
    lane->buffer_touch.clear();
    for (uint64_t i = 0; i < num_touches; ++i) {
      DT_ASSIGN_OR_RETURN(const WindowId window, reader->ReadI64());
      DT_ASSIGN_OR_RETURN(const VirtualTime touched,
                          reader->ReadDouble());
      lane->buffer_touch.emplace(window, touched);
    }
  }

  DT_ASSIGN_OR_RETURN(const uint64_t num_results, reader->ReadCount(16));
  results_.clear();
  for (uint64_t i = 0; i < num_results; ++i) {
    WindowResult result;
    DT_RETURN_IF_ERROR(LoadWindowResult(reader, &result));
    results_.push_back(std::move(result));
  }

  DT_ASSIGN_OR_RETURN(const uint64_t num_records, reader->ReadCount(16));
  std::vector<obs::WindowTraceRecord> records(num_records);
  for (uint64_t i = 0; i < num_records; ++i) {
    DT_RETURN_IF_ERROR(LoadTraceRecord(reader, &records[i]));
  }
  DT_ASSIGN_OR_RETURN(const int64_t total_recorded, reader->ReadI64());
  trace_.Restore(std::move(records), total_recorded);

  // Memory accounts: the lane restores above already re-charged every
  // byte, so the saved live bytes are a cross-check of snapshot
  // consistency; only the peaks carry new information.
  for (size_t i = 0; i < mem::kNumComponents; ++i) {
    const auto component = static_cast<mem::Component>(i);
    DT_ASSIGN_OR_RETURN(const uint64_t saved_bytes, reader->ReadU64());
    DT_ASSIGN_OR_RETURN(const uint64_t saved_peak, reader->ReadU64());
    if (saved_bytes != account_.bytes(component)) {
      const std::string_view name = mem::ComponentName(component);
      return Status::InvalidArgument(StringPrintf(
          "snapshot: mem.%.*s account saved %llu byte(s) but the "
          "restored state rebuilds to %zu byte(s) — the snapshot is "
          "inconsistent",
          static_cast<int>(name.size()), name.data(),
          static_cast<unsigned long long>(saved_bytes),
          account_.bytes(component)));
    }
    account_.RestorePeak(component, saved_peak);
  }
  if (EffectiveMemoryBudget() > 0) EnsureMemoryInstruments();

  // The registry restores last: lane restore above touched the depth
  // gauges (SetInstruments/LoadState re-set them), and absolute restore
  // corrects every value and high-watermark to the donor's.
  return LoadRegistry(reader, &metrics_);
}

}  // namespace datatriage::server
