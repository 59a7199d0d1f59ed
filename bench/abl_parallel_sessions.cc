// Ablation: worker-pool session execution (DESIGN.md Sec. 11).
//
// Co-hosts 8 instances of the paper's Fig. 7 query (distinct seeds, so
// their drop decisions differ) on one StreamServer and replays the
// Fig. 8 constant-rate feed through them at worker_threads in
// {0, 1, 2, 4, 8}. For every setting the bench (a) asserts each
// session's results CSV and metrics JSON are byte-identical to the
// serial (workers=0) run — the determinism contract the parallel mode
// must keep — and (b) measures wall-clock feed throughput, reporting
// the speedup over serial.
//
// Speedup scales with physical cores: the per-event work fans out to
// 8 sessions whose processing is embarrassingly parallel across the
// pool, while the ingest thread only validates, routes, and enqueues.
// On a single-core host the parallel settings degrade to ~1x (the
// pipeline can't overlap), but the equivalence assertions still bite —
// which is exactly what the TSan smoke mode exists for.
//
// The skew section (DESIGN.md Sec. 16) is the scheduler ablation from
// the ROADMAP: one giant three-way-join session next to seven tiny
// single-stream tenants. Placement pins the giant to one worker, so
// with `static` (4 workers) the fleet's wall clock is the giant's serial
// time; `intra` (4 workers, 4 intra-session threads) spreads the giant's
// join kernels across morsel helpers. Both settings must stay
// byte-identical to the serial run; the intra/static speedup is printed
// and recorded, and ci/perf_smoke_gate.py gates it against the merge
// base.
//
// Usage: abl_parallel_sessions [--smoke] [--skew-only]
//   --smoke      small feeds, fewer settings, no JSON — a fast
//                correctness pass for sanitizer CI.
//                Runs the fleet + churn sections; combine with
//                --skew-only for the skew section's smoke pass.
//   --skew-only  run only the skewed-tenant section (the perf-smoke
//                CI gate input).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/string_util.h"
#include "src/io/csv.h"
#include "src/obs/export.h"
#include "src/server/stream_server.h"

namespace datatriage::bench {
namespace {

constexpr size_t kQueries = 8;

/// Per-session outputs of one run, for byte comparison across settings.
struct RunOutputs {
  std::vector<std::string> results_csv;
  std::vector<std::string> metrics_json;
  double seconds = 0.0;
};

workload::Scenario BuildFeed(bool smoke) {
  workload::ScenarioConfig config;
  // ~1.5x the engine's ~400 tuples/s saturation point: sessions shed
  // (so triage, synopses, and force-shed paths all run) while keeping
  // enough tuples that per-window join evaluation dominates the run.
  config.tuples_per_stream = smoke ? 400 : 4000;
  config.tuples_per_window = 60.0;
  config.rate_per_stream = 200.0;
  config.seed = 1;
  auto scenario = workload::BuildPaperScenario(config);
  DT_CHECK(scenario.ok()) << scenario.status().ToString();
  return *std::move(scenario);
}

engine::EngineConfig SessionConfig(size_t query_index) {
  engine::EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDataTriage;
  config.queue_capacity = 100;
  config.synopsis.type = synopsis::SynopsisType::kGridHistogram;
  config.synopsis.grid.cell_width = 4.0;
  // Distinct seeds: co-hosted sessions must not pass equivalence by
  // accidentally being copies of one another.
  config.seed = 1 + 7919 * static_cast<uint64_t>(query_index);
  return config;
}

RunOutputs RunOnce(const workload::Scenario& scenario,
                   size_t worker_threads) {
  engine::StreamServerOptions options;
  options.scheduler.worker_threads = worker_threads;
  server::StreamServer server(scenario.catalog, options);
  std::vector<server::SessionId> ids;
  for (size_t q = 0; q < kQueries; ++q) {
    auto id = server.RegisterQuery(scenario.query_sql, SessionConfig(q));
    DT_CHECK(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  using clock = std::chrono::steady_clock;
  const clock::time_point start = clock::now();
  Status pushed = server.PushBatch(scenario.events);
  DT_CHECK(pushed.ok()) << pushed.ToString();
  Status finished = server.Finish();
  DT_CHECK(finished.ok()) << finished.ToString();
  const double seconds =
      std::chrono::duration<double>(clock::now() - start).count();

  RunOutputs out;
  out.seconds = seconds;
  const std::vector<std::string> columns = {"a", "count"};
  for (server::SessionId id : ids) {
    server::QuerySession& session = server.session(id);
    out.results_csv.push_back(
        io::FormatResultsCsv(session.TakeResults(), columns));
    out.metrics_json.push_back(
        obs::MetricsJson(session.metrics(), &session.trace()));
  }
  return out;
}

/// Churn variant (DESIGN.md Sec. 14): half the fleet is resident from
/// the start, the other half joins mid-feed, and the first quarter
/// retires at the three-quarter mark. Measures the lifecycle machinery
/// on the hot path — mid-stream registration, quiescent unregister
/// drains — against the static-registration baseline.
RunOutputs RunChurnOnce(const workload::Scenario& scenario,
                        size_t worker_threads) {
  engine::StreamServerOptions options;
  options.scheduler.worker_threads = worker_threads;
  server::StreamServer server(scenario.catalog, options);
  std::vector<server::SessionId> ids(kQueries, 0);
  for (size_t q = 0; q < kQueries / 2; ++q) {
    auto id = server.RegisterQuery(scenario.query_sql, SessionConfig(q));
    DT_CHECK(id.ok()) << id.status().ToString();
    ids[q] = *id;
  }

  const std::span<const engine::StreamEvent> feed(scenario.events);
  const size_t half = feed.size() / 2;
  const size_t three_quarters = feed.size() * 3 / 4;

  using clock = std::chrono::steady_clock;
  const clock::time_point start = clock::now();
  Status pushed = server.PushBatch(feed.subspan(0, half));
  DT_CHECK(pushed.ok()) << pushed.ToString();
  for (size_t q = kQueries / 2; q < kQueries; ++q) {
    auto id = server.RegisterQuery(scenario.query_sql, SessionConfig(q));
    DT_CHECK(id.ok()) << id.status().ToString();
    ids[q] = *id;
  }
  pushed = server.PushBatch(feed.subspan(half, three_quarters - half));
  DT_CHECK(pushed.ok()) << pushed.ToString();
  for (size_t q = 0; q < kQueries / 4; ++q) {
    Status detached = server.UnregisterQuery(ids[q]);
    DT_CHECK(detached.ok()) << detached.ToString();
  }
  pushed = server.PushBatch(feed.subspan(three_quarters));
  DT_CHECK(pushed.ok()) << pushed.ToString();
  Status finished = server.Finish();
  DT_CHECK(finished.ok()) << finished.ToString();
  const double seconds =
      std::chrono::duration<double>(clock::now() - start).count();

  RunOutputs out;
  out.seconds = seconds;
  const std::vector<std::string> columns = {"a", "count"};
  for (server::SessionId id : ids) {
    // Detached sessions keep serving results and metrics.
    server::QuerySession& session = server.session(id);
    out.results_csv.push_back(
        io::FormatResultsCsv(session.TakeResults(), columns));
    out.metrics_json.push_back(
        obs::MetricsJson(session.metrics(), &session.trace()));
  }
  return out;
}

void ExpectEquivalent(const RunOutputs& serial, const RunOutputs& run,
                      size_t workers) {
  for (size_t q = 0; q < kQueries; ++q) {
    DT_CHECK(run.results_csv[q] == serial.results_csv[q])
        << "workers=" << workers << " session " << q
        << ": results diverged from the serial run";
    DT_CHECK(run.metrics_json[q] == serial.metrics_json[q])
        << "workers=" << workers << " session " << q
        << ": metrics diverged from the serial run";
  }
}

// --- Skewed tenants: one giant join + tiny counts (DESIGN.md Sec. 16) --

/// One registered query of the skew fleet.
struct QuerySpec {
  std::string sql;
  engine::EngineConfig config;
  std::vector<std::string> columns;
};

/// A feed whose windows are deep enough that the giant's join kernels
/// split into morsels (>= 2 * kMorselRows build/probe rows per window).
workload::Scenario BuildSkewFeed(bool smoke) {
  workload::ScenarioConfig config;
  config.tuples_per_stream = smoke ? 2200 : 6000;
  config.tuples_per_window = smoke ? 2200.0 : 3000.0;
  config.rate_per_stream = 100.0;
  config.seed = 7;
  auto scenario = workload::BuildPaperScenario(config);
  DT_CHECK(scenario.ok()) << scenario.status().ToString();
  return *std::move(scenario);
}

/// The giant runs the scenario's three-way join with a queue deep
/// enough to admit whole windows and a zero tuple cost, so evaluation
/// (not shedding) dominates; the tiny tenants are cheap single-stream
/// counts that finish almost instantly.
std::vector<QuerySpec> SkewedSpecs(const workload::Scenario& scenario) {
  std::vector<QuerySpec> specs;
  QuerySpec giant;
  giant.sql = scenario.query_sql;
  giant.config.strategy = triage::SheddingStrategy::kDropOnly;
  giant.config.queue_capacity = 8192;
  giant.config.drop_policy = triage::DropPolicyKind::kDropNewest;
  giant.config.cost_model.exact_tuple_cost = 0.0;
  giant.config.seed = 11;
  giant.columns = {"a", "count"};
  specs.push_back(std::move(giant));
  for (size_t i = 0; i + 1 < kQueries; ++i) {
    QuerySpec tiny;
    tiny.sql = StringPrintf(
        "SELECT b, COUNT(*) as count FROM S GROUP BY b; "
        "WINDOW S['%.9f seconds'];",
        scenario.window_seconds);
    tiny.config.strategy = triage::SheddingStrategy::kDropOnly;
    tiny.config.queue_capacity = 16 + 4 * i;  // distinct shed patterns
    tiny.config.drop_policy = triage::DropPolicyKind::kDropNewest;
    tiny.config.seed = 100 + i;
    tiny.columns = {"b", "count"};
    specs.push_back(std::move(tiny));
  }
  return specs;
}

RunOutputs RunSpecsOnce(const workload::Scenario& scenario,
                        const std::vector<QuerySpec>& specs,
                        const engine::SchedulerOptions& scheduler) {
  engine::StreamServerOptions options;
  options.scheduler = scheduler;
  server::StreamServer server(scenario.catalog, options);
  std::vector<server::SessionId> ids;
  for (const QuerySpec& spec : specs) {
    auto id = server.RegisterQuery(spec.sql, spec.config);
    DT_CHECK(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  using clock = std::chrono::steady_clock;
  const clock::time_point start = clock::now();
  Status pushed = server.PushBatch(scenario.events);
  DT_CHECK(pushed.ok()) << pushed.ToString();
  Status finished = server.Finish();
  DT_CHECK(finished.ok()) << finished.ToString();
  const double seconds =
      std::chrono::duration<double>(clock::now() - start).count();

  RunOutputs out;
  out.seconds = seconds;
  for (size_t i = 0; i < specs.size(); ++i) {
    server::QuerySession& session = server.session(ids[i]);
    out.results_csv.push_back(
        io::FormatResultsCsv(session.TakeResults(), specs[i].columns));
    out.metrics_json.push_back(
        obs::MetricsJson(session.metrics(), &session.trace()));
  }
  return out;
}

void RunSkew(bool smoke, std::vector<BenchRecord>* records) {
  const workload::Scenario scenario = BuildSkewFeed(smoke);
  const std::vector<QuerySpec> specs = SkewedSpecs(scenario);
  const int reps = smoke ? 1 : 3;

  struct Setting {
    const char* name;
    engine::SchedulerOptions scheduler;
  };
  std::vector<Setting> settings;
  settings.push_back({"serial", engine::SchedulerOptions{}});
  settings.push_back({"static", {.worker_threads = 4}});
  settings.push_back(
      {"intra", {.worker_threads = 4, .intra_session_threads = 4}});

  std::printf("\n== Skewed tenants: 1 giant join + %zu tiny counts, "
              "%zu events ==\n",
              kQueries - 1, scenario.events.size());
  std::printf("%10s %10s %12s %8s\n", "setting", "seconds", "events/s",
              "speedup");

  RunOutputs serial;
  double serial_seconds = 0.0;
  double static_seconds = 0.0;
  double intra_seconds = 0.0;
  for (const Setting& setting : settings) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      RunOutputs run = RunSpecsOnce(scenario, specs, setting.scheduler);
      if (setting.scheduler.worker_threads == 0 && rep == 0) {
        serial = std::move(run);
        best = serial.seconds;
        continue;
      }
      ExpectEquivalent(serial, run, setting.scheduler.worker_threads);
      if (rep == 0 || run.seconds < best) best = run.seconds;
    }
    if (std::strcmp(setting.name, "serial") == 0) serial_seconds = best;
    if (std::strcmp(setting.name, "static") == 0) static_seconds = best;
    if (std::strcmp(setting.name, "intra") == 0) intra_seconds = best;
    const double events_per_sec =
        static_cast<double>(scenario.events.size()) / best;
    std::printf("%10s %10.3f %12.0f %7.2fx\n", setting.name, best,
                events_per_sec, serial_seconds / best);
    if (records != nullptr) {
      BenchRecord record;
      record.name =
          std::string("parallel_skew/giant+7tiny/") + setting.name;
      record.ns_per_op =
          best * 1e9 / static_cast<double>(scenario.events.size());
      record.tuples_per_sec = events_per_sec;
      record.peak_rss_kb = CurrentPeakRssKb();
      records->push_back(std::move(record));
    }
  }

  // Reported, not enforced: the ratio depends on the host's core count,
  // so the CI gate compares it against the merge base on one runner.
  std::printf("intra over static: %.2fx on a %u-core host\n",
              static_seconds / intra_seconds,
              std::thread::hardware_concurrency());
}

void RunFleetAndChurn(bool smoke, std::vector<BenchRecord>& records) {
  const workload::Scenario scenario = BuildFeed(smoke);
  const std::vector<size_t> worker_settings =
      smoke ? std::vector<size_t>{0, 4}
            : std::vector<size_t>{0, 1, 2, 4, 8};
  const int reps = smoke ? 1 : 3;

  std::printf("== Parallel sessions: %zu co-hosted fig8 queries, %zu "
              "events ==\n",
              kQueries, scenario.events.size());
  std::printf("%8s %10s %12s %8s\n", "workers", "seconds", "events/s",
              "speedup");

  RunOutputs serial;
  double serial_seconds = 0.0;
  std::vector<double> static_best(worker_settings.size(), 0.0);
  for (size_t w = 0; w < worker_settings.size(); ++w) {
    const size_t workers = worker_settings[w];
    // Best-of-reps wall time; outputs are checked on every rep.
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      RunOutputs run = RunOnce(scenario, workers);
      if (workers == 0 && rep == 0) {
        serial = std::move(run);
        best = serial.seconds;
        continue;
      }
      ExpectEquivalent(serial, run, workers);
      if (rep == 0 || run.seconds < best) best = run.seconds;
    }
    if (workers == 0) serial_seconds = best;
    static_best[w] = best;
    const double events_per_sec =
        static_cast<double>(scenario.events.size()) / best;
    std::printf("%8zu %10.3f %12.0f %7.2fx\n", workers, best,
                events_per_sec, serial_seconds / best);
    BenchRecord record;
    record.name = "parallel_sessions/q" + std::to_string(kQueries) +
                  "/workers=" + std::to_string(workers);
    record.ns_per_op =
        best * 1e9 / static_cast<double>(scenario.events.size());
    record.tuples_per_sec = events_per_sec;
    records.push_back(std::move(record));
  }

  // Churn scenario: the same fleet under mid-stream registration and
  // unregistration. "vs static" is churn throughput over the static run
  // at the same worker count — the cost of the lifecycle machinery
  // (quiescent drains, mid-stream admission) on the hot path.
  std::printf("\n== Churn: %zu resident, %zu join at 50%%, %zu retire "
              "at 75%% ==\n",
              kQueries / 2, kQueries - kQueries / 2, kQueries / 4);
  std::printf("%8s %10s %12s %8s %10s\n", "workers", "seconds",
              "events/s", "speedup", "vs static");
  RunOutputs churn_serial;
  double churn_serial_seconds = 0.0;
  for (size_t w = 0; w < worker_settings.size(); ++w) {
    const size_t workers = worker_settings[w];
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      RunOutputs run = RunChurnOnce(scenario, workers);
      if (workers == 0 && rep == 0) {
        churn_serial = std::move(run);
        best = churn_serial.seconds;
        continue;
      }
      ExpectEquivalent(churn_serial, run, workers);
      if (rep == 0 || run.seconds < best) best = run.seconds;
    }
    if (workers == 0) churn_serial_seconds = best;
    const double events_per_sec =
        static_cast<double>(scenario.events.size()) / best;
    std::printf("%8zu %10.3f %12.0f %7.2fx %9.2fx\n", workers, best,
                events_per_sec, churn_serial_seconds / best,
                static_best[w] / best);
    BenchRecord record;
    record.name = "parallel_sessions_churn/q" + std::to_string(kQueries) +
                  "/workers=" + std::to_string(workers);
    record.ns_per_op =
        best * 1e9 / static_cast<double>(scenario.events.size());
    record.tuples_per_sec = events_per_sec;
    records.push_back(std::move(record));
  }
}

void Run(bool smoke, bool skew_only) {
  std::vector<BenchRecord> records;
  if (!skew_only) RunFleetAndChurn(smoke, records);
  // In smoke mode the sections are selected one at a time (the TSan job
  // runs them as separate steps); a full run covers both.
  if (skew_only || !smoke) RunSkew(smoke, &records);

  if (!smoke) {
    WriteBenchJson("BENCH_parallel.json", records);
    std::fprintf(stderr, "wrote BENCH_parallel.json (%zu records)\n",
                 records.size());
  } else {
    std::fprintf(stderr,
                 "smoke ok: per-session outputs byte-identical across "
                 "scheduler settings\n");
  }
}

}  // namespace
}  // namespace datatriage::bench

int main(int argc, char** argv) {
  bool smoke = false;
  bool skew_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--skew-only") == 0) skew_only = true;
  }
  datatriage::bench::Run(smoke, skew_only);
  return 0;
}
