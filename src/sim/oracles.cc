#include "src/sim/oracles.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "src/common/string_util.h"
#include "src/io/csv.h"
#include "src/metrics/ideal.h"
#include "src/metrics/rms.h"
#include "src/obs/export.h"
#include "src/plan/binder.h"
#include "src/server/stream_server.h"
#include "src/sql/parser.h"

namespace datatriage::sim {
namespace {

using engine::StreamEvent;

QueryRunOutput CollectSession(server::QuerySession& session,
                              const SimQuery& query) {
  QueryRunOutput out;
  out.results = session.TakeResults();
  out.results_csv = io::FormatResultsCsv(out.results, query.columns);
  out.snapshot = session.StatsSnapshot();
  out.metrics_json = obs::MetricsJson(session.metrics(), &session.trace());
  return out;
}

/// First difference between two snapshots, or "" when identical.
std::string DiffSnapshots(const engine::EngineStatsSnapshot& a,
                          const engine::EngineStatsSnapshot& b) {
  const auto& ca = a.core;
  const auto& cb = b.core;
  if (ca.tuples_ingested != cb.tuples_ingested) {
    return StringPrintf("tuples_ingested %lld vs %lld",
                        static_cast<long long>(ca.tuples_ingested),
                        static_cast<long long>(cb.tuples_ingested));
  }
  if (ca.tuples_kept != cb.tuples_kept) {
    return StringPrintf("tuples_kept %lld vs %lld",
                        static_cast<long long>(ca.tuples_kept),
                        static_cast<long long>(cb.tuples_kept));
  }
  if (ca.tuples_dropped != cb.tuples_dropped) {
    return StringPrintf("tuples_dropped %lld vs %lld",
                        static_cast<long long>(ca.tuples_dropped),
                        static_cast<long long>(cb.tuples_dropped));
  }
  if (ca.windows_emitted != cb.windows_emitted) {
    return StringPrintf("windows_emitted %lld vs %lld",
                        static_cast<long long>(ca.windows_emitted),
                        static_cast<long long>(cb.windows_emitted));
  }
  if (ca.exact_work_seconds != cb.exact_work_seconds) {
    return "exact_work_seconds differ";
  }
  if (ca.synopsis_work_seconds != cb.synopsis_work_seconds) {
    return "synopsis_work_seconds differ";
  }
  if (ca.final_engine_time != cb.final_engine_time) {
    return "final_engine_time differ";
  }
  if (a.counters != b.counters) return "counter maps differ";
  if (a.gauges != b.gauges) return "gauge maps differ";
  if (a.gauge_maxima != b.gauge_maxima) return "gauge maxima differ";
  return "";
}

Status CompareOutputs(const QueryRunOutput& a, const QueryRunOutput& b,
                      size_t session, std::string_view a_label,
                      std::string_view b_label) {
  if (a.results_csv != b.results_csv) {
    return Status::Internal(StringPrintf(
        "session %zu results CSV differs between %s and %s", session,
        std::string(a_label).c_str(), std::string(b_label).c_str()));
  }
  const std::string diff = DiffSnapshots(a.snapshot, b.snapshot);
  if (!diff.empty()) {
    return Status::Internal(StringPrintf(
        "session %zu stats differ between %s and %s: %s", session,
        std::string(a_label).c_str(), std::string(b_label).c_str(),
        diff.c_str()));
  }
  if (a.metrics_json != b.metrics_json) {
    return Status::Internal(StringPrintf(
        "session %zu metrics JSON differs between %s and %s", session,
        std::string(a_label).c_str(), std::string(b_label).c_str()));
  }
  return Status::OK();
}

/// Events (from the pushed prefix) on the streams `query` reads, cut to
/// the query's churn envelope: nothing before `admit_from`, nothing at
/// or past its unregistration point.
std::vector<StreamEvent> QueryFeed(const SimScenario& scenario,
                                   const SimQuery& query,
                                   VirtualTime admit_from) {
  std::vector<StreamEvent> feed;
  const size_t limit =
      std::min(scenario.events_to_push, query.unregister_at_event);
  for (size_t i = 0; i < limit; ++i) {
    const StreamEvent& event = scenario.events[i];
    if (event.tuple.timestamp() < admit_from) continue;
    for (const std::string& stream : query.streams) {
      if (event.stream == stream) {
        feed.push_back(event);
        break;
      }
    }
  }
  return feed;
}

/// Runs `query` under `config` as the only query of a serial
/// StreamServer over `feed` and collects its output: the solo reference
/// of the single-query oracles. `faults`, when non-null, is installed
/// before registration, as in the base run.
Result<QueryRunOutput> RunSolo(const SimScenario& scenario,
                               const SimQuery& query,
                               const engine::EngineConfig& config,
                               std::span<const StreamEvent> feed,
                               const server::SimFaults* faults) {
  server::StreamServer server(scenario.catalog);
  if (faults != nullptr) DT_RETURN_IF_ERROR(server.SetSimFaults(faults));
  DT_ASSIGN_OR_RETURN(const server::SessionId id,
                      server.RegisterQuery(query.sql, config));
  DT_RETURN_IF_ERROR(server.PushBatch(feed));
  DT_RETURN_IF_ERROR(server.Finish());
  return CollectSession(server.session(id), query);
}

/// The ideal configuration of `query`: drop-only under `policy`, with a
/// zero-cost model, a queue larger than the whole feed and no memory
/// budget, so a correct engine sheds nothing.
engine::EngineConfig IdealConfig(const SimScenario& scenario,
                                 const SimQuery& query,
                                 triage::DropPolicyKind policy) {
  engine::EngineConfig config = query.config;
  config.strategy = triage::SheddingStrategy::kDropOnly;
  config.drop_policy = policy;
  config.queue_capacity = scenario.events.size() + 16;
  config.cost_model.exact_tuple_cost = 0.0;
  config.cost_model.synopsis_insert_cost = 0.0;
  config.cost_model.exact_work_unit_cost = 0.0;
  config.cost_model.synopsis_work_unit_cost = 0.0;
  config.cost_model.emission_overhead = 0.0;
  config.cost_model.delay_factor = 1.0;
  // A memory budget would trigger memory_shed drops despite the
  // zero-cost model.
  config.memory_budget_bytes = 0;
  return config;
}

}  // namespace

Result<ServerRunOutput> RunOnServer(const SimScenario& scenario,
                                    size_t worker_threads,
                                    bool install_faults) {
  engine::StreamServerOptions options = scenario.options;
  options.scheduler.worker_threads = worker_threads;
  if (worker_threads == 0) {
    // The serial sweep point: no scheduler, so no morsel pool either
    // (intra_session_threads > 1 requires workers). Output must still
    // match every parallel point — that is the oracle.
    options.scheduler.intra_session_threads = 0;
  }
  server::StreamServer server(scenario.catalog, options);
  if (install_faults) {
    DT_RETURN_IF_ERROR(server.SetSimFaults(&scenario.faults));
  }
  const size_t num_queries = scenario.queries.size();
  std::vector<server::SessionId> ids(num_queries, 0);
  ServerRunOutput out;
  out.sessions.resize(num_queries);

  const auto register_query = [&](size_t q) -> Status {
    DT_ASSIGN_OR_RETURN(ids[q],
                        server.RegisterQuery(scenario.queries[q].sql,
                                             scenario.queries[q].config));
    out.sessions[q].admit_from = server.session(ids[q]).effective_from();
    return Status::OK();
  };
  for (size_t q = 0; q < num_queries; ++q) {
    if (scenario.queries[q].register_at_event == 0) {
      DT_RETURN_IF_ERROR(register_query(q));
    }
  }

  // Churn plan: lifecycle ops run immediately before their event index
  // is pushed. Batches are split at op points, so a PushBatch never
  // straddles a registration, unregistration, or snapshot.
  const auto apply_ops_before = [&](size_t i) -> Status {
    for (size_t q = 0; q < num_queries; ++q) {
      if (scenario.queries[q].register_at_event == i && i > 0) {
        DT_RETURN_IF_ERROR(register_query(q));
      }
      if (scenario.queries[q].unregister_at_event == i) {
        DT_RETURN_IF_ERROR(server.UnregisterQuery(ids[q]));
      }
    }
    if (scenario.snapshot_at_event == i) {
      DT_ASSIGN_OR_RETURN(server::SessionSnapshot snapshot,
                          server.SnapshotSession(ids[0]));
      out.session_snapshot = std::move(snapshot.bytes);
    }
    return Status::OK();
  };
  std::vector<size_t> op_points;
  for (const SimQuery& query : scenario.queries) {
    if (query.register_at_event > 0) {
      op_points.push_back(query.register_at_event);
    }
    if (query.unregister_at_event != SIZE_MAX) {
      op_points.push_back(query.unregister_at_event);
    }
  }
  if (scenario.snapshot_at_event != SIZE_MAX) {
    op_points.push_back(scenario.snapshot_at_event);
  }
  std::sort(op_points.begin(), op_points.end());
  op_points.erase(std::unique(op_points.begin(), op_points.end()),
                  op_points.end());

  const std::span<const StreamEvent> feed(scenario.events.data(),
                                          scenario.events_to_push);
  // The poison batch lands mid-feed, between two regular pushes, so its
  // (required) atomic rejection is observable as "nothing changed".
  const size_t poison_at =
      scenario.inject_poison_batch ? feed.size() / 2 : feed.size() + 1;
  size_t i = 0;
  size_t next_op = 0;
  while (i < feed.size()) {
    if (next_op < op_points.size() && op_points[next_op] == i) {
      DT_RETURN_IF_ERROR(apply_ops_before(i));
      ++next_op;
    }
    if (i == poison_at) {
      std::vector<StreamEvent> poison;
      poison.push_back(feed[i]);  // valid lead event: must NOT leak in
      StreamEvent bad = feed[i];
      bad.tuple.set_timestamp(std::numeric_limits<double>::quiet_NaN());
      poison.push_back(std::move(bad));
      const Status status = server.PushBatch(poison);
      if (status.ok()) {
        return Status::Internal(
            "poison batch with a NaN timestamp was accepted; PushBatch "
            "validation must reject it with nothing ingested");
      }
    }
    if (scenario.push_batch_size == 0) {
      DT_RETURN_IF_ERROR(server.Push(feed[i]));
      ++i;
    } else {
      size_t n = std::min(scenario.push_batch_size, feed.size() - i);
      if (i < poison_at && poison_at < i + n) n = poison_at - i;
      if (next_op < op_points.size() && op_points[next_op] < i + n) {
        n = op_points[next_op] - i;
      }
      DT_RETURN_IF_ERROR(server.PushBatch(feed.subspan(i, n)));
      i += n;
    }
  }
  DT_RETURN_IF_ERROR(server.Finish());

  for (size_t q = 0; q < num_queries; ++q) {
    const VirtualTime admit_from = out.sessions[q].admit_from;
    out.sessions[q] =
        CollectSession(server.session(ids[q]), scenario.queries[q]);
    out.sessions[q].admit_from = admit_from;
  }
  return out;
}

Status CheckRunsEquivalent(const ServerRunOutput& a,
                           const ServerRunOutput& b,
                           std::string_view a_label,
                           std::string_view b_label,
                           bool compare_snapshots) {
  if (a.sessions.size() != b.sessions.size()) {
    return Status::Internal(StringPrintf(
        "session count differs between %s (%zu) and %s (%zu)",
        std::string(a_label).c_str(), a.sessions.size(),
        std::string(b_label).c_str(), b.sessions.size()));
  }
  for (size_t s = 0; s < a.sessions.size(); ++s) {
    if (a.sessions[s].admit_from != b.sessions[s].admit_from) {
      return Status::Internal(StringPrintf(
          "session %zu admission horizon differs between %s (%g) and "
          "%s (%g)",
          s, std::string(a_label).c_str(), a.sessions[s].admit_from,
          std::string(b_label).c_str(), b.sessions[s].admit_from));
    }
    DT_RETURN_IF_ERROR(CompareOutputs(a.sessions[s], b.sessions[s], s,
                                      a_label, b_label));
  }
  if (compare_snapshots && a.session_snapshot != b.session_snapshot) {
    return Status::Internal(StringPrintf(
        "session 0 snapshot bytes differ between %s (%zu byte(s)) and "
        "%s (%zu byte(s))",
        std::string(a_label).c_str(), a.session_snapshot.size(),
        std::string(b_label).c_str(), b.session_snapshot.size()));
  }
  return Status::OK();
}

Status CheckSoloEquivalence(const SimScenario& scenario,
                            const ServerRunOutput& server_run,
                            bool install_faults) {
  for (size_t q = 0; q < scenario.queries.size(); ++q) {
    const SimQuery& query = scenario.queries[q];
    const std::vector<StreamEvent> feed =
        QueryFeed(scenario, query, server_run.sessions[q].admit_from);
    DT_ASSIGN_OR_RETURN(
        const QueryRunOutput solo,
        RunSolo(scenario, query, query.config, feed,
                install_faults ? &scenario.faults : nullptr));
    DT_RETURN_IF_ERROR(CompareOutputs(server_run.sessions[q], solo, q,
                                      "hosted session", "solo server"));
  }
  return Status::OK();
}

Status CheckSnapshotRestore(const SimScenario& scenario,
                            const ServerRunOutput& base,
                            bool install_faults) {
  if (base.session_snapshot.empty()) return Status::OK();
  engine::StreamServerOptions options = scenario.options;
  // Serial restore target: snapshots carry no scheduler state, so the
  // donor's thread counts need not match.
  options.scheduler.worker_threads = 0;
  options.scheduler.intra_session_threads = 0;
  server::StreamServer server(scenario.catalog, options);
  if (install_faults) {
    DT_RETURN_IF_ERROR(server.SetSimFaults(&scenario.faults));
  }
  auto restored =
      server.RestoreSession(server::SessionSnapshot{base.session_snapshot});
  if (!restored.ok()) {
    return Status::Internal(StringPrintf(
        "snapshot restore failed: %s",
        restored.status().ToString().c_str()));
  }
  // Replay only the remainder of the donor's pushed feed: everything
  // before the snapshot point is baked into the restored state, and the
  // restored arrival clock refuses the past. The donor's poison batch
  // (if any) is not replayed — its rejection was atomic, so it left no
  // trace in the snapshot. Outputs must match the donor's full run.
  for (size_t i = scenario.snapshot_at_event; i < scenario.events_to_push;
       ++i) {
    DT_RETURN_IF_ERROR(server.Push(scenario.events[i]));
  }
  DT_RETURN_IF_ERROR(server.Finish());
  QueryRunOutput collected =
      CollectSession(server.session(*restored), scenario.queries[0]);
  return CompareOutputs(collected, base.sessions[0], 0,
                        "restored session", "donor session");
}

Status CheckConservation(const QueryRunOutput& run) {
  const engine::EngineStats& core = run.snapshot.core;
  if (core.tuples_ingested != core.tuples_kept + core.tuples_dropped) {
    return Status::Internal(StringPrintf(
        "conservation: ingested %lld != kept %lld + dropped %lld",
        static_cast<long long>(core.tuples_ingested),
        static_cast<long long>(core.tuples_kept),
        static_cast<long long>(core.tuples_dropped)));
  }
  const auto expect_counter = [&](const char* name,
                                  int64_t want) -> Status {
    const auto it = run.snapshot.counters.find(name);
    if (it == run.snapshot.counters.end()) {
      return Status::Internal(
          StringPrintf("conservation: counter %s missing", name));
    }
    if (it->second != want) {
      return Status::Internal(StringPrintf(
          "conservation: counter %s = %lld, core says %lld", name,
          static_cast<long long>(it->second),
          static_cast<long long>(want)));
    }
    return Status::OK();
  };
  DT_RETURN_IF_ERROR(
      expect_counter("engine.tuples_ingested", core.tuples_ingested));
  DT_RETURN_IF_ERROR(
      expect_counter("engine.tuples_kept", core.tuples_kept));
  DT_RETURN_IF_ERROR(
      expect_counter("engine.tuples_dropped", core.tuples_dropped));
  DT_RETURN_IF_ERROR(
      expect_counter("engine.windows_emitted", core.windows_emitted));

  // The drop-cause counters partition the dropped count: policy
  // eviction, force shed, summarize bypass, and fault shed are
  // exhaustive and disjoint.
  int64_t by_cause = 0;
  for (const auto& [name, value] : run.snapshot.counters) {
    if (name.rfind("stream.", 0) == 0 &&
        name.find(".dropped.") != std::string::npos) {
      by_cause += value;
    }
  }
  if (by_cause != core.tuples_dropped) {
    return Status::Internal(StringPrintf(
        "conservation: drop causes sum to %lld, dropped = %lld",
        static_cast<long long>(by_cause),
        static_cast<long long>(core.tuples_dropped)));
  }

  if (static_cast<int64_t>(run.results.size()) != core.windows_emitted) {
    return Status::Internal(StringPrintf(
        "conservation: %zu results but windows_emitted = %lld",
        run.results.size(), static_cast<long long>(core.windows_emitted)));
  }
  for (size_t i = 0; i < run.results.size(); ++i) {
    const engine::WindowResult& r = run.results[i];
    if (r.kept_tuples < 0 || r.dropped_tuples < 0) {
      return Status::Internal(StringPrintf(
          "conservation: window %lld has negative volume accounting",
          static_cast<long long>(r.window)));
    }
    if (i > 0) {
      if (r.window <= run.results[i - 1].window) {
        return Status::Internal(StringPrintf(
            "conservation: window ids not strictly increasing "
            "(%lld after %lld)",
            static_cast<long long>(r.window),
            static_cast<long long>(run.results[i - 1].window)));
      }
      if (r.emit_time < run.results[i - 1].emit_time) {
        return Status::Internal(StringPrintf(
            "conservation: emit times regress at window %lld",
            static_cast<long long>(r.window)));
      }
    }
  }
  return Status::OK();
}

Status CheckMemoryAccounting(const QueryRunOutput& run, bool budgeted) {
  // Always-on part: accounting must drain to zero once the session is
  // finished — every charge has a matching release (window buffers emit,
  // queues evict stragglers, synopses are taken, merge transients are
  // scoped).
  static constexpr const char* kComponentGauges[] = {
      "mem.window_buffers.bytes", "mem.triage_queues.bytes",
      "mem.synopses.bytes", "mem.merge_state.bytes"};
  for (const char* name : kComponentGauges) {
    const auto it = run.snapshot.gauges.find(name);
    if (it == run.snapshot.gauges.end()) {
      return Status::Internal(StringPrintf(
          "mem accounting: gauge %s missing from the export", name));
    }
    if (it->second != 0.0) {
      return Status::Internal(StringPrintf(
          "mem accounting: gauge %s reads %g byte(s) after Finish "
          "(expected 0 — some charge was never released)",
          name, it->second));
    }
  }
  if (!budgeted) return Status::OK();
  // Budgeted part: the enforcement self-checks must have stayed silent —
  // no boundary left over budget with foldable state, and every
  // double-entry audit matched.
  const auto expect_zero = [&](const char* name) -> Status {
    const auto it = run.snapshot.counters.find(name);
    if (it == run.snapshot.counters.end()) {
      return Status::Internal(StringPrintf(
          "mem accounting: counter %s missing from a budgeted run",
          name));
    }
    if (it->second != 0) {
      return Status::Internal(StringPrintf(
          "mem accounting: counter %s = %lld (expected 0)", name,
          static_cast<long long>(it->second)));
    }
    return Status::OK();
  };
  DT_RETURN_IF_ERROR(expect_zero("mem.boundary_over_budget"));
  DT_RETURN_IF_ERROR(expect_zero("mem.invariant_violations"));
  return Status::OK();
}

Status CheckAccuracy(const SimScenario& scenario, size_t query_index,
                     const QueryRunOutput& run) {
  const SimQuery& query = scenario.queries[query_index];
  if (!query.AccuracyEligible()) return Status::OK();

  DT_ASSIGN_OR_RETURN(sql::Statement statement,
                      sql::ParseStatement(query.sql));
  DT_ASSIGN_OR_RETURN(plan::BoundQuery bound,
                      plan::BindStatement(statement, scenario.catalog));
  const std::vector<StreamEvent> feed =
      QueryFeed(scenario, query, run.admit_from);
  auto ideal_result = metrics::ComputeIdealResults(
      bound, feed, scenario.window_seconds, scenario.window_slide);
  if (!ideal_result.ok()) return ideal_result.status();
  const std::map<WindowId, exec::Relation>& ideal = *ideal_result;

  // (a) The scenario run (shedding, faults and all) must stay on the
  // rails numerically: a NaN or infinite estimate anywhere in the merged
  // channel poisons the RMS.
  DT_ASSIGN_OR_RETURN(
      const double rms,
      metrics::RmsError(ideal, run.results, query.num_group_columns,
                        metrics::ResultChannel::kMerged));
  if (!std::isfinite(rms) || rms < 0.0) {
    return Status::Internal(StringPrintf(
        "accuracy: query %zu merged RMS error is %g (must be finite and "
        ">= 0)",
        query_index, rms));
  }

  // (b) With infinite capacity (zero-cost model, queue larger than the
  // whole feed) nothing may be shed and the result must equal the ideal
  // exactly.
  const engine::EngineConfig config =
      IdealConfig(scenario, query, triage::DropPolicyKind::kRandom);
  DT_ASSIGN_OR_RETURN(QueryRunOutput ideal_run,
                      RunSolo(scenario, query, config, feed, nullptr));
  if (ideal_run.snapshot.core.tuples_dropped != 0) {
    return Status::Internal(StringPrintf(
        "accuracy: ideal run of query %zu shed %lld tuple(s) despite "
        "zero-cost model and capacity %zu",
        query_index,
        static_cast<long long>(ideal_run.snapshot.core.tuples_dropped),
        config.queue_capacity));
  }
  DT_ASSIGN_OR_RETURN(
      const double ideal_rms,
      metrics::RmsError(ideal, ideal_run.results,
                        query.num_group_columns,
                        metrics::ResultChannel::kMerged));
  if (ideal_rms != 0.0) {
    return Status::Internal(StringPrintf(
        "accuracy: ideal run of query %zu has RMS error %g (expected "
        "exactly 0)",
        query_index, ideal_rms));
  }
  return Status::OK();
}

namespace {

/// Multiset of exact-channel result rows per window, keyed by the row's
/// rendered values. emit_time is deliberately excluded: it depends on
/// the cost model, and the pattern oracle compares *what* matched, not
/// when the engine got around to emitting it.
std::map<WindowId, std::map<std::string, int>> PatternRowsByWindow(
    const std::vector<engine::WindowResult>& results) {
  std::map<WindowId, std::map<std::string, int>> rows;
  for (const engine::WindowResult& result : results) {
    std::map<std::string, int>& window = rows[result.window];
    for (const Tuple& tuple : result.exact_rows) {
      std::string key;
      for (size_t i = 0; i < tuple.size(); ++i) {
        key += tuple.value(i).ToString();
        key += '|';
      }
      ++window[key];
    }
  }
  return rows;
}

/// Runs `query` alone over `feed` with infinite capacity and a zero-cost
/// model under `policy` (the pattern analogue of CheckAccuracy's ideal
/// run), asserts it shed nothing, and returns the emitted windows.
Result<std::vector<engine::WindowResult>> RunPatternIdeal(
    const SimScenario& scenario, size_t query_index,
    const std::vector<StreamEvent>& feed,
    triage::DropPolicyKind policy) {
  const SimQuery& query = scenario.queries[query_index];
  const engine::EngineConfig config = IdealConfig(scenario, query, policy);
  DT_ASSIGN_OR_RETURN(QueryRunOutput ideal_run,
                      RunSolo(scenario, query, config, feed, nullptr));
  if (ideal_run.snapshot.core.tuples_dropped != 0) {
    return Status::Internal(StringPrintf(
        "pattern: ideal %.*s-policy run of query %zu shed %lld tuple(s) "
        "despite zero-cost model and capacity %zu",
        static_cast<int>(triage::DropPolicyKindToString(policy).size()),
        triage::DropPolicyKindToString(policy).data(), query_index,
        static_cast<long long>(ideal_run.snapshot.core.tuples_dropped),
        config.queue_capacity));
  }
  return std::move(ideal_run.results);
}

}  // namespace

Status CheckPattern(const SimScenario& scenario, size_t query_index,
                    const QueryRunOutput& run) {
  const SimQuery& query = scenario.queries[query_index];
  if (!query.is_pattern) return Status::OK();

  const std::vector<StreamEvent> feed =
      QueryFeed(scenario, query, run.admit_from);
  DT_ASSIGN_OR_RETURN(
      const std::vector<engine::WindowResult> ideal_random,
      RunPatternIdeal(scenario, query_index, feed,
                      triage::DropPolicyKind::kRandom));
  DT_ASSIGN_OR_RETURN(
      const std::vector<engine::WindowResult> ideal_utility,
      RunPatternIdeal(scenario, query_index, feed,
                      triage::DropPolicyKind::kUtility));

  const std::map<WindowId, std::map<std::string, int>> ideal_rows =
      PatternRowsByWindow(ideal_random);

  // (c) Zero-shed parity across policies: a drop policy chooses what to
  // shed and nothing else, so when nothing is shed the NFA must compute
  // identical matches under either policy.
  if (PatternRowsByWindow(ideal_utility) != ideal_rows) {
    return Status::Internal(StringPrintf(
        "pattern: zero-shed ideal runs of query %zu disagree between "
        "the random and utility drop policies — the policy changed what "
        "the NFA computed, not just what was shed",
        query_index));
  }

  // (a) Monotonicity: shedding may lose matches, never invent them —
  // every row the scenario run emitted must appear in the zero-shed run
  // with at least the same per-window multiplicity.
  const std::map<WindowId, std::map<std::string, int>> actual_rows =
      PatternRowsByWindow(run.results);
  for (const auto& [window, rows] : actual_rows) {
    const auto ideal_it = ideal_rows.find(window);
    for (const auto& [row, count] : rows) {
      int ideal_count = 0;
      if (ideal_it != ideal_rows.end()) {
        const auto row_it = ideal_it->second.find(row);
        if (row_it != ideal_it->second.end()) ideal_count = row_it->second;
      }
      if (count > ideal_count) {
        return Status::Internal(StringPrintf(
            "pattern: query %zu window %lld emitted match row [%s] x%d "
            "but the zero-shed ideal run has only x%d — shedding "
            "invented a match",
            query_index, static_cast<long long>(window), row.c_str(),
            count, ideal_count));
      }
    }
  }

  // (b) When the scenario run shed nothing, the containment is two-way.
  // "Nothing" needs both counts: tuples_dropped misses a queued tuple
  // shed from one sliding window but kept for a later one, and the
  // per-window counts miss a late straggler dropped after all its
  // windows emitted.
  int64_t window_drops = 0;
  for (const engine::WindowResult& result : run.results) {
    window_drops += result.dropped_tuples;
  }
  if (run.snapshot.core.tuples_dropped == 0 && window_drops == 0 &&
      actual_rows != ideal_rows) {
    return Status::Internal(StringPrintf(
        "pattern: query %zu shed nothing but its match rows differ from "
        "the zero-shed ideal run's",
        query_index));
  }
  return Status::OK();
}

}  // namespace datatriage::sim
