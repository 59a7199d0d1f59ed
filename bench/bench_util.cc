#include "bench/bench_util.h"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "src/metrics/ideal.h"
#include "src/metrics/rms.h"
#include "src/obs/export.h"
#include "src/plan/binder.h"
#include "src/server/stream_server.h"
#include "src/sql/parser.h"

namespace datatriage::bench {

RunResult RunScenario(const workload::Scenario& scenario,
                      const engine::EngineConfig& config,
                      bool collect_metrics) {
  server::StreamServer server(scenario.catalog);
  auto id = server.RegisterQuery(scenario.query_sql, config);
  DT_CHECK(id.ok()) << id.status().ToString();
  Status pushed = server.PushBatch(scenario.events);
  DT_CHECK(pushed.ok()) << pushed.ToString();
  Status s = server.Finish();
  DT_CHECK(s.ok()) << s.ToString();
  server::QuerySession& session = server.session(*id);
  std::vector<engine::WindowResult> results = session.TakeResults();

  auto stmt = sql::ParseStatement(scenario.query_sql);
  DT_CHECK(stmt.ok()) << stmt.status().ToString();
  auto bound = plan::BindStatement(*stmt, scenario.catalog);
  DT_CHECK(bound.ok()) << bound.status().ToString();
  auto ideal = metrics::ComputeIdealResults(*bound, scenario.events,
                                            scenario.window_seconds);
  DT_CHECK(ideal.ok()) << ideal.status().ToString();
  const size_t group_columns = bound->group_by.size();
  auto rms = metrics::RmsError(*ideal, results, group_columns,
                               metrics::ResultChannel::kMerged);
  DT_CHECK(rms.ok()) << rms.status().ToString();

  const engine::EngineStatsSnapshot snapshot = session.StatsSnapshot();
  RunResult out;
  out.rms = rms.value();
  out.tuples_dropped = snapshot.core.tuples_dropped;
  out.tuples_kept = snapshot.core.tuples_kept;
  if (collect_metrics) {
    out.metrics_json = obs::MetricsJson(session.metrics(), &session.trace());
  }
  return out;
}

std::vector<double> RunSeeds(workload::ScenarioConfig scenario_config,
                             engine::EngineConfig engine_config,
                             int seeds, std::string* first_seed_metrics) {
  std::vector<double> rms_values;
  rms_values.reserve(static_cast<size_t>(seeds));
  for (int seed = 1; seed <= seeds; ++seed) {
    scenario_config.seed = static_cast<uint64_t>(seed);
    engine_config.seed = static_cast<uint64_t>(seed) * 7919;
    auto scenario = workload::BuildPaperScenario(scenario_config);
    DT_CHECK(scenario.ok()) << scenario.status().ToString();
    const bool want_metrics = seed == 1 && first_seed_metrics != nullptr;
    RunResult result = RunScenario(*scenario, engine_config, want_metrics);
    if (want_metrics) *first_seed_metrics = std::move(result.metrics_json);
    rms_values.push_back(result.rms);
  }
  return rms_values;
}

void PrintRow(const std::string& series, double x,
              const metrics::MeanStd& stats) {
  std::printf("%-16s %10.1f %12.3f %12.3f %6zu\n", series.c_str(), x,
              stats.mean, stats.stddev, stats.n);
}

void PrintHeader(const std::string& title, const std::string& x_label) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-16s %10s %12s %12s %6s\n", "series", x_label.c_str(),
              "rms_mean", "rms_stddev", "runs");
}

double CurrentPeakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // bytes
#else
  return static_cast<double>(usage.ru_maxrss);  // KiB
#endif
#else
  return -1.0;
#endif
}

void WriteBenchJson(const std::string& path,
                    const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  DT_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                 "\"tuples_per_sec\": %.0f",
                 r.name.c_str(), r.ns_per_op, r.tuples_per_sec);
    if (r.allocs_per_op >= 0) {
      std::fprintf(f, ", \"allocs_per_op\": %.1f", r.allocs_per_op);
    }
    if (r.peak_rss_kb >= 0) {
      std::fprintf(f, ", \"peak_rss_kb\": %.0f", r.peak_rss_kb);
    }
    std::fprintf(f, "}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

void WriteSeriesJson(const std::string& path,
                     const std::vector<SeriesPoint>& points) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  DT_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const SeriesPoint& p = points[i];
    std::fprintf(f,
                 "  {\"series\": \"%s\", \"x\": %g, \"rms_mean\": %.6f, "
                 "\"rms_stddev\": %.6f, \"runs\": %zu, \"metrics\": %s}%s\n",
                 p.series.c_str(), p.x, p.rms.mean, p.rms.stddev, p.rms.n,
                 p.metrics_json.empty() ? "null" : p.metrics_json.c_str(),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

}  // namespace datatriage::bench
