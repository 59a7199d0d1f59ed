// End-to-end StreamServer benchmark.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke]
//
// Replays one seeded workload (workloads.h) through the public
// StreamServer API and checks every replay's per-session output against
// the workload's serial reference. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}, where attempted
// counts the windows checked and failed the windows whose output differed
// plus every non-OK Status; the exit code is 1 when anything failed. A
// human-readable copy of the metrics goes to stderr.
//
// --trace 0 measures the end-to-end metrics with tracing off:
//   events_per_s      saturating replay: events / (first push .. Finish)
//   cpu_us_per_event  process user+sys CPU per event, same replays
//   emit_lag_p50_ms   paced open-loop replay at the workload's fixed rate:
//                     sink arrival minus the wall time the window's
//                     virtual emission deadline fell due
//   peak_rss_mb       ru_maxrss of a fresh process doing one replay
//   setup_s           StreamServer construction + every RegisterQuery
// --trace 1 reports the per-layer metrics: scheduler counters of a
// saturating replay, a serial baseline, and the span totals of the
// traced mirror (mirror.h), whose output must match the server's.
// --smoke shrinks every workload for the benchmark's self-test.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "mirror.h"
#include "replay.h"
#include "src/plan/binder.h"
#include "src/rewrite/data_triage_rewrite.h"
#include "src/sql/parser.h"
#include "util.h"
#include "workloads.h"

extern char** environ;

namespace e2ebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool rss_probe = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Tally of checked windows and failures across a run's replays.
struct Check {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Add(const RunDigest& reference, const RunDigest& run,
           const dt::Status& status, bool compare_metrics = true) {
    attempted += std::max(reference.windows(), run.windows());
    failed += CountFailedWindows(reference, run, compare_metrics);
    if (!status.ok()) {
      ++failed;
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    }
  }
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--rss-probe") {
      args.rss_probe = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

/// Peak RSS of a fresh process that builds the workload and runs one
/// saturating replay (this binary in --rss-probe mode), in MiB.
double ProbePeakRssMb(const Args& args) {
  const std::string seed = std::to_string(args.seed);
  std::vector<std::string> argv_storage = {
      "e2e_bench", "--rss-probe", "--workload", args.workload, "--seed",
      seed};
  if (args.smoke) argv_storage.push_back("--smoke");
  std::vector<char*> child_argv;
  for (std::string& arg : argv_storage) child_argv.push_back(arg.data());
  child_argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                  child_argv.data(), environ) != 0) {
    return -1.0;
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<Metric> EndToEnd(const Args& args, const Workload& workload,
                             Check* check) {
  const ReplayResult reference = Replay(workload, ReplayMode::kSerial);
  check->Add(reference.digest, reference.digest, reference.status);

  // Saturating and paced replays alternate, with set-up timings taken in
  // between, so every metric samples the whole run. The run ends once its
  // time is up and each side has run at least three times. The lag median
  // is taken per paced replay and the run reports its median over
  // replays: a host stall of a few ms delays every window due in it, and
  // the median keeps a minority of stalled replays from setting the
  // run's value. A replay's lag varies more than its throughput does, so
  // paced replays get two thirds of the run.
  const double events = static_cast<double>(workload.events.size());
  std::vector<double> setup_s;
  std::vector<double> events_per_s;
  std::vector<double> cpu_us_per_event;
  std::vector<double> lag_p50_ms;
  size_t lag_samples = 0;
  double saturating_s = 0.0;
  double paced_s = 0.0;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < args.seconds || events_per_s.size() < 3 ||
         lag_p50_ms.size() < 3) {
    for (int i = 0; i < 5; ++i) {
      setup_s.push_back(MeasureSetupSeconds(workload));
    }
    const Clock::time_point replay_start = Clock::now();
    if (2 * saturating_s <= paced_s) {
      const ReplayResult run = Replay(workload, ReplayMode::kSaturating);
      check->Add(reference.digest, run.digest, run.status);
      events_per_s.push_back(events / run.wall_s);
      cpu_us_per_event.push_back(run.cpu_s / events * 1e6);
      saturating_s += SecondsSince(replay_start);
    } else {
      const ReplayResult run = Replay(workload, ReplayMode::kPaced);
      check->Add(reference.digest, run.digest, run.status);
      lag_p50_ms.push_back(Quantile(run.lag_ms, 0.50));
      lag_samples += run.lag_ms.size();
      paced_s += SecondsSince(replay_start);
    }
  }
  std::fprintf(stderr,
               "%s: %zu saturating replays (events/s quartiles %.0f %.0f "
               "%.0f); %zu paced replays at %.0f events/s, %zu lag "
               "samples\n",
               workload.name.c_str(), events_per_s.size(),
               Quantile(events_per_s, 0.25), Quantile(events_per_s, 0.5),
               Quantile(events_per_s, 0.75), lag_p50_ms.size(),
               workload.paced_events_per_s, lag_samples);

  const double peak_rss_mb = ProbePeakRssMb(args);
  if (peak_rss_mb < 0) {
    check->failed += 1;
    std::fprintf(stderr, "error: the peak-RSS probe process failed\n");
  }
  return {
      {"events_per_s", Median(events_per_s), "1/s"},
      {"emit_lag_p50_ms", Median(lag_p50_ms), "ms"},
      {"cpu_us_per_event", Median(cpu_us_per_event), "us"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", Median(setup_s), "s"},
  };
}

/// Medians of the setup stages summed over the workload's queries: SQL
/// parse, bind, the Data Triage rewrite, and whole registrations.
std::vector<Metric> SetupStages(const Workload& workload) {
  std::vector<double> parse_us, bind_us, rewrite_us, register_us;
  for (int rep = 0; rep < 15; ++rep) {
    double parse = 0.0, bind = 0.0, rewrite = 0.0;
    for (const QuerySpec& query : workload.queries) {
      Clock::time_point t = Clock::now();
      dt::Result<dt::sql::Statement> statement =
          dt::sql::ParseStatement(query.sql);
      parse += SecondsSince(t);
      DT_CHECK(statement.ok()) << statement.status().ToString();
      t = Clock::now();
      dt::Result<dt::plan::BoundQuery> bound =
          dt::plan::BindStatement(*statement, workload.catalog);
      bind += SecondsSince(t);
      DT_CHECK(bound.ok()) << bound.status().ToString();
      t = Clock::now();
      dt::Result<dt::rewrite::TriagedQuery> triaged =
          dt::rewrite::RewriteForDataTriage(std::move(bound).value());
      rewrite += SecondsSince(t);
      DT_CHECK(triaged.ok()) << triaged.status().ToString();
    }
    parse_us.push_back(parse * 1e6);
    bind_us.push_back(bind * 1e6);
    rewrite_us.push_back(rewrite * 1e6);
    register_us.push_back(MeasureSetupSeconds(workload) * 1e6);
  }
  return {
      {"setup.parse_us", Median(parse_us), "us"},
      {"setup.bind_us", Median(bind_us), "us"},
      {"setup.rewrite_us", Median(rewrite_us), "us"},
      {"setup.register_us", Median(register_us), "us"},
  };
}

std::vector<Metric> PerLayer(const Workload& workload, Check* check) {
  // Untraced single-threaded baseline; also the output reference.
  const ReplayResult serial = Replay(workload, ReplayMode::kSerial);
  check->Add(serial.digest, serial.digest, serial.status);
  const ReplayResult parallel = Replay(workload, ReplayMode::kSaturating);
  check->Add(serial.digest, parallel.digest, parallel.status);
  const ReplayResult paced = Replay(workload, ReplayMode::kPaced);
  check->Add(serial.digest, paced.digest, paced.status);

  const MirrorResult mirror = RunMirror(workload);
  const int64_t mirror_failed_before = check->failed;
  check->Add(serial.digest, mirror.digest, mirror.status,
             /*compare_metrics=*/false);
  if (check->failed != mirror_failed_before) {
    std::fprintf(stderr,
                 "error: the traced mirror's output differs from the "
                 "server's\n");
  }

  const double events = static_cast<double>(workload.events.size());
  const double windows = std::max<double>(1.0, mirror.windows);
  int64_t ingested = 0, kept = 0, dropped = 0, memory_shed = 0;
  for (const SessionDigest& s : parallel.digest.sessions) {
    ingested += s.ingested;
    kept += s.kept;
    dropped += s.dropped;
    memory_shed += s.memory_shed;
  }
  auto layer = [&](Layer l) -> const LayerTotals& { return mirror.layer(l); };
  auto mean_ns = [&](Layer l) {
    return layer(l).total_s * 1e9 / std::max<double>(1.0, layer(l).spans);
  };
  auto per_window = [&](Layer l, double scale) {
    return layer(l).self_s() * scale / windows;
  };
  double self_sum = 0.0;
  for (const LayerTotals& totals : mirror.layers) self_sum += totals.self_s();
  const LayerTotals& accumulate = layer(Layer::kMergeAccumulate);
  const LayerTotals& estimate = layer(Layer::kMergeEstimate);
  const LayerTotals& build = layer(Layer::kMergeBuildRows);
  const double serial_eps = events / serial.wall_s;
  const double parallel_eps = events / parallel.wall_s;

  std::vector<Metric> metrics = {
      {"ingest.route_ns_per_event",
       layer(Layer::kIngestRoute).self_s() * 1e9 / events, "ns"},
      {"ingest.deliveries", static_cast<double>(mirror.deliveries), "count"},
      {"session.self_ns_per_delivery",
       layer(Layer::kSession).self_s() * 1e9 /
           std::max<double>(1.0, mirror.deliveries),
       "ns"},
      {"sched.tasks", static_cast<double>(parallel.worker_tasks), "count"},
      {"sched.busy_s", parallel.worker_busy_s, "s"},
      {"sched.sys_cpu_s", parallel.sys_s, "s"},
      {"sched.spin_cpu_s",
       parallel.cpu_s - parallel.worker_busy_s - parallel.push_thread_cpu_s,
       "s"},
      {"sched.serial_events_per_s", serial_eps, "1/s"},
      {"sched.speedup", parallel_eps / serial_eps, "ratio"},
      {"triage.push_ns", mean_ns(Layer::kTriagePush), "ns"},
      {"triage.pop_ns", mean_ns(Layer::kTriagePop), "ns"},
      {"triage.evict_us_per_window", per_window(Layer::kTriageEvict, 1e6),
       "us"},
      {"triage.synopsize_ns", mean_ns(Layer::kSynopsize), "ns"},
      {"triage.take_window_us", per_window(Layer::kTakeWindow, 1e6), "us"},
      {"triage.kept_frac",
       static_cast<double>(kept) / std::max<double>(1.0, ingested), "ratio"},
      {"exec.eval_ms_per_window", per_window(Layer::kExec, 1e3), "ms"},
      {"exec.rows_out", static_cast<double>(mirror.exec_rows_out), "count"},
      {"exec.work_units", static_cast<double>(mirror.exec_work_units),
       "count"},
      {"exec.allocs_per_window",
       static_cast<double>(layer(Layer::kExec).allocations) / windows,
       "count"},
      {"exec.minor_faults_per_window",
       static_cast<double>(layer(Layer::kExec).minor_faults) / windows,
       "count"},
      {"shadow.eval_us_per_window", per_window(Layer::kShadow, 1e6), "us"},
      {"shadow.work_units", static_cast<double>(mirror.shadow_work_units),
       "count"},
      {"merge.accumulate_ms_per_window",
       per_window(Layer::kMergeAccumulate, 1e3), "ms"},
      {"merge.estimate_us_per_window", per_window(Layer::kMergeEstimate, 1e6),
       "us"},
      {"merge.build_rows_us_per_window",
       per_window(Layer::kMergeBuildRows, 1e6), "us"},
      {"merge.allocs_per_window",
       static_cast<double>(accumulate.allocations + estimate.allocations +
                           build.allocations) /
           windows,
       "count"},
      {"merge.minor_faults_per_window",
       static_cast<double>(accumulate.minor_faults + estimate.minor_faults +
                           build.minor_faults) /
           windows,
       "count"},
      {"deliver.us_per_window", per_window(Layer::kDeliver, 1e6), "us"},
      {"mem.folds", static_cast<double>(mirror.folds), "count"},
      {"mem.fold_us", layer(Layer::kMemory).self_s() * 1e6, "us"},
      {"mem.memory_shed_frac",
       static_cast<double>(memory_shed) / std::max<double>(1.0, dropped),
       "ratio"},
      {"mem.peak_accounted_mb",
       static_cast<double>(parallel.peak_accounted_bytes) / (1024.0 * 1024.0),
       "MB"},
  };
  for (Metric& m : SetupStages(workload)) metrics.push_back(std::move(m));
  // The lag tail of one paced replay (at least 1000 windows, so p99 has
  // ten samples beyond it). It is reported here rather than end to end:
  // for windows that cost about a millisecond to emit, the tail tracks
  // the host's multi-ms scheduling stalls, and its run-to-run spread on a
  // shared 4-vCPU host (IQR 23-32% of the median) exceeded any bound.
  std::fprintf(stderr, "%s: emit_lag_p99_ms over %zu windows\n",
               workload.name.c_str(), paced.lag_ms.size());
  metrics.push_back({"emit_lag_p99_ms", Quantile(paced.lag_ms, 0.99), "ms"});
  metrics.push_back({"gen.late_p99_ms", Quantile(paced.late_ms, 0.99), "ms"});
  metrics.push_back({"gen.late_max_ms", Quantile(paced.late_ms, 1.0), "ms"});
  metrics.push_back(
      {"trace.unattributed_frac", 1.0 - self_sum / mirror.wall_s, "ratio"});
  metrics.push_back(
      {"trace.overhead_frac", mirror.wall_s / serial.wall_s - 1.0, "ratio"});
  return metrics;
}

void PrintResult(const Check& check, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += check.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(check.attempted);
  json += ", \"failed\": " + std::to_string(check.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  dt::Result<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.smoke);
  if (!workload.ok()) {
    std::fprintf(stderr, "e2e_bench: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  if (args.rss_probe) {
    return Replay(*workload, ReplayMode::kSaturating).status.ok() ? 0 : 1;
  }
  Check check;
  const std::vector<Metric> metrics = args.trace
                                          ? PerLayer(*workload, &check)
                                          : EndToEnd(args, *workload, &check);
  PrintResult(check, metrics);
  return check.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
