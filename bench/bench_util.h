#ifndef DATATRIAGE_BENCH_BENCH_UTIL_H_
#define DATATRIAGE_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "src/engine/config.h"
#include "src/metrics/stats.h"
#include "src/workload/scenario.h"

namespace datatriage::bench {

/// Outcome of one engine run scored against the ideal results.
struct RunResult {
  double rms = 0.0;
  int64_t tuples_dropped = 0;
  int64_t tuples_kept = 0;
  std::string metrics_json;  // filled only when requested (see below)
};

/// Runs one scenario's query alone on a serial StreamServer under
/// `config` and scores the merged results against the ideal
/// (no-shedding) answer. CHECK-fails on internal errors: benchmarks have
/// no useful way to continue. When `collect_metrics` is set,
/// RunResult.metrics_json carries the session's obs registry +
/// per-window trace (obs::MetricsJson schema).
RunResult RunScenario(const workload::Scenario& scenario,
                      const engine::EngineConfig& config,
                      bool collect_metrics = false);

/// Runs `seeds` repetitions of a scenario configuration (re-seeding both
/// the workload and the engine per repetition, as the paper does) and
/// returns the per-seed RMS errors. When `first_seed_metrics` is
/// non-null it receives the obs metrics JSON of the seed-1 run — one
/// representative queue/drop/latency timeseries per data point.
std::vector<double> RunSeeds(workload::ScenarioConfig scenario_config,
                             engine::EngineConfig engine_config,
                             int seeds,
                             std::string* first_seed_metrics = nullptr);

/// Prints one row of a results table: label, x value, mean +/- stddev.
void PrintRow(const std::string& series, double x,
              const metrics::MeanStd& stats);

/// Prints the standard table header used by the figure benches.
void PrintHeader(const std::string& title, const std::string& x_label);

/// One microbenchmark measurement destined for machine-readable output.
struct BenchRecord {
  std::string name;
  double ns_per_op = 0.0;
  double tuples_per_sec = 0.0;
  double allocs_per_op = -1.0;  // < 0 means "not measured"
  /// Process peak RSS (getrusage ru_maxrss) sampled when the case
  /// finished, in KiB; < 0 means "not measured". ru_maxrss is a
  /// process-lifetime high-watermark, so the column is cumulative across
  /// a run's cases — comparable per case between two runs of the same
  /// binary (the CI memory gate), not between cases of one run.
  double peak_rss_kb = -1.0;
};

/// Process-lifetime peak RSS in KiB, from getrusage. Returns -1 when the
/// platform cannot report it.
double CurrentPeakRssKb();

/// Writes `records` to `path` as a JSON array of objects with keys
/// `name`, `ns_per_op`, `tuples_per_sec`, and (when measured)
/// `allocs_per_op` / `peak_rss_kb`. Overwrites the file: callers pass
/// every record of the run so the perf trajectory can be diffed across
/// PRs.
void WriteBenchJson(const std::string& path,
                    const std::vector<BenchRecord>& records);

/// One (series, x) data point of a figure bench: aggregate RMS over the
/// seeded runs plus the representative obs metrics JSON (queue-depth
/// high-watermarks, drop causes by stream, per-window trace).
struct SeriesPoint {
  std::string series;
  double x = 0.0;
  metrics::MeanStd rms;
  std::string metrics_json;  // already JSON; embedded verbatim
};

/// Writes figure-bench points to `path` as a JSON array of
/// `{series, x, rms_mean, rms_stddev, runs, metrics}` objects, so
/// BENCH_fig*.json exposes the queue/drop timeseries behind each plotted
/// point. Overwrites the file.
void WriteSeriesJson(const std::string& path,
                     const std::vector<SeriesPoint>& points);

}  // namespace datatriage::bench

#endif  // DATATRIAGE_BENCH_BENCH_UTIL_H_
