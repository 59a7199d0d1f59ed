#include "src/sim/runner.h"

#include <chrono>
#include <fstream>

#include "src/common/string_util.h"
#include "src/sim/oracles.h"
#include "src/sim/scenario_gen.h"

namespace datatriage::sim {
namespace {

Status Annotate(Status status, uint64_t seed, const char* oracle) {
  if (status.ok()) return status;
  return Status::Internal(StringPrintf(
      "seed %llu, oracle %s: %s",
      static_cast<unsigned long long>(seed), oracle,
      status.ToString().c_str()));
}

/// Writes the failing scenario's session snapshot (when one was taken)
/// to options.snapshot_dump_dir, so CI uploads the exact bytes.
void MaybeDumpSnapshot(uint64_t seed, const ServerRunOutput& base,
                       const SimOptions& options, std::ostream* out) {
  if (options.snapshot_dump_dir.empty()) return;
  if (base.session_snapshot.empty()) return;
  const std::string path = StringPrintf(
      "%s/seed-%llu.dtss", options.snapshot_dump_dir.c_str(),
      static_cast<unsigned long long>(seed));
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.is_open()) {
    if (out != nullptr) {
      *out << "could not write snapshot dump " << path << "\n";
    }
    return;
  }
  file.write(base.session_snapshot.data(),
             static_cast<std::streamsize>(base.session_snapshot.size()));
  if (out != nullptr) {
    *out << "  snapshot dumped: " << path << "\n";
  }
}

/// Every oracle after the base serial run, in order. Split out so
/// RunScenarioOnce can dump the failing scenario's snapshot regardless
/// of which oracle tripped.
Status RunOracles(uint64_t seed, const SimScenario& scenario,
                  const ServerRunOutput& base, bool install_faults,
                  const SimOptions& options) {
  // Determinism: the serial run replayed must be byte-identical — this
  // is what makes every other oracle's failure a stable reproduction.
  auto replay = RunOnServer(scenario, 0, install_faults);
  if (!replay.ok()) {
    return Annotate(replay.status(), seed, "serial-replay");
  }
  DT_RETURN_IF_ERROR(Annotate(
      CheckRunsEquivalent(base, *replay, "serial", "serial-replay"),
      seed, "replay-determinism"));

  // Parallel equivalence: every worker count must match the serial
  // baseline per session, faults and all (faults are functions of
  // virtual time, never of scheduling). Includes the session-0 snapshot
  // bytes: a snapshot is a pure function of the delivered subsequence,
  // so it may not depend on the worker count either.
  for (size_t workers : options.worker_counts) {
    auto parallel = RunOnServer(scenario, workers, install_faults);
    if (!parallel.ok()) {
      return Annotate(parallel.status(), seed, "parallel-run");
    }
    const std::string label = "workers=" + std::to_string(workers);
    DT_RETURN_IF_ERROR(Annotate(
        CheckRunsEquivalent(base, *parallel, "serial", label), seed,
        "parallel-equivalence"));
  }

  // Snapshot round-trip: restoring the mid-run snapshot into a fresh
  // server and replaying the remaining feed must reproduce the donor
  // session byte for byte.
  DT_RETURN_IF_ERROR(Annotate(
      CheckSnapshotRestore(scenario, base, install_faults), seed,
      "snapshot-restore"));

  // Executor equivalence: rerun the scenario with every session's
  // executor mode flipped (vectorized <-> scalar, thresholds cleared).
  // The columnar executor's contract is byte-for-byte parity — results
  // CSV, window traces, and the metrics/stats counters must all match
  // the baseline exactly, faults included. Snapshot bytes are exempt:
  // they serialize the (deliberately different) config.
  {
    SimScenario flipped = scenario;
    for (SimQuery& query : flipped.queries) {
      query.config.vectorized_exec = !query.config.vectorized_exec;
      query.config.vectorized_min_rows = 0;
    }
    auto flipped_run = RunOnServer(flipped, 0, install_faults);
    if (!flipped_run.ok()) {
      return Annotate(flipped_run.status(), seed, "exec-mode-flip-run");
    }
    DT_RETURN_IF_ERROR(Annotate(
        CheckRunsEquivalent(base, *flipped_run, "serial", "exec-flipped",
                            /*compare_snapshots=*/false),
        seed, "exec-mode-equivalence"));
  }

  // Standalone-engine equivalence needs a fault-free server: a
  // ContinuousQueryEngine has no fault hooks to mirror them (and the
  // fault-shed counter alone would already skew the metrics export).
  // Churned sessions compare against a standalone engine fed their
  // churn envelope of the feed (admission horizon to unregistration).
  if (!install_faults) {
    DT_RETURN_IF_ERROR(Annotate(CheckEngineEquivalence(scenario, base),
                                seed, "engine-equivalence"));
  }

  for (size_t q = 0; q < base.sessions.size(); ++q) {
    DT_RETURN_IF_ERROR(Annotate(CheckConservation(base.sessions[q]),
                                seed, "conservation"));
    const bool budgeted =
        scenario.queries[q].config.memory_budget_bytes > 0;
    DT_RETURN_IF_ERROR(Annotate(
        CheckMemoryAccounting(base.sessions[q], budgeted), seed,
        "mem-accounting"));
    DT_RETURN_IF_ERROR(Annotate(
        CheckAccuracy(scenario, q, base.sessions[q]), seed, "accuracy"));
    DT_RETURN_IF_ERROR(Annotate(
        CheckPattern(scenario, q, base.sessions[q]), seed, "pattern"));
  }
  return Status::OK();
}

}  // namespace

std::string ReplayCommand(uint64_t seed, const SimOptions& options) {
  std::string workers;
  for (size_t i = 0; i < options.worker_counts.size(); ++i) {
    if (i > 0) workers += ",";
    workers += std::to_string(options.worker_counts[i]);
  }
  std::string command = StringPrintf(
      "sim_main --replay-seed %llu --workers %s",
      static_cast<unsigned long long>(seed), workers.c_str());
  if (!options.with_faults) command += " --no-faults";
  if (options.force_memory_budgets) command += " --force-memory-budgets";
  if (options.force_pattern_queries) command += " --force-pattern-queries";
  return command;
}

Status RunScenarioOnce(uint64_t seed, const SimOptions& options,
                       std::ostream* out) {
  SimScenario scenario = GenerateScenario(seed);
  if (options.force_pattern_queries) {
    // Converts every query, including any the generator already
    // converted organically (ConvertToPatternQuery is idempotent in the
    // sense that reconverting just derives the same pattern again).
    for (size_t q = 0; q < scenario.queries.size(); ++q) {
      ConvertToPatternQuery(&scenario, q);
    }
  }
  if (options.force_memory_budgets) {
    // Same choice table as the generator's organic draw; keyed by
    // (seed, query index) so the override is a pure function of the
    // replay command.
    static constexpr size_t kBudgetChoices[] = {64 * 1024, 96 * 1024,
                                                160 * 1024, 512 * 1024};
    for (size_t q = 0; q < scenario.queries.size(); ++q) {
      scenario.queries[q].config.memory_budget_bytes =
          kBudgetChoices[(seed + q) & 3];
    }
  }
  const bool install_faults = options.with_faults && scenario.use_faults;
  if (options.verbose && out != nullptr) {
    *out << Describe(scenario);
  }

  auto base = RunOnServer(scenario, 0, install_faults);
  if (!base.ok()) {
    return Annotate(base.status(), seed, "serial-run");
  }

  const Status status =
      RunOracles(seed, scenario, *base, install_faults, options);
  if (!status.ok()) {
    MaybeDumpSnapshot(seed, *base, options, out);
  }
  return status;
}

SimReport RunSimulations(const SimOptions& options, std::ostream* out) {
  using clock = std::chrono::steady_clock;
  const clock::time_point start = clock::now();
  SimReport report;
  std::ofstream failures_file;
  if (!options.failures_path.empty()) {
    failures_file.open(options.failures_path, std::ios::trunc);
  }
  for (size_t i = 0; i < options.num_scenarios; ++i) {
    if (options.max_wall_seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(clock::now() - start).count();
      if (elapsed >= options.max_wall_seconds) {
        if (out != nullptr) {
          *out << "time budget reached after " << report.scenarios_run
               << " scenario(s)\n";
        }
        break;
      }
    }
    const uint64_t seed = options.first_seed + i;
    const Status status = RunScenarioOnce(seed, options, out);
    ++report.scenarios_run;
    if (!status.ok()) {
      report.failures.push_back(SimFailure{seed, status.ToString()});
      if (out != nullptr) {
        *out << "FAIL " << status.ToString() << "\n"
             << "  replay: " << ReplayCommand(seed, options) << "\n";
      }
      if (failures_file.is_open()) {
        failures_file << seed << " " << status.ToString() << "\n";
        failures_file.flush();
      }
    } else if (options.verbose && out != nullptr) {
      *out << "ok seed " << seed << "\n";
    }
    if (out != nullptr && !options.verbose &&
        report.scenarios_run % 50 == 0) {
      *out << "..." << report.scenarios_run << "/"
           << options.num_scenarios << " scenarios, "
           << report.failures.size() << " failure(s)\n";
    }
  }
  if (out != nullptr) {
    *out << report.scenarios_run << " scenario(s), "
         << report.failures.size() << " failure(s)\n";
  }
  return report;
}

}  // namespace datatriage::sim
