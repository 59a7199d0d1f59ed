#ifndef DATATRIAGE_SIM_RUNNER_H_
#define DATATRIAGE_SIM_RUNNER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace datatriage::sim {

/// Knobs of one simulation campaign (mirrors sim_main's flags).
struct SimOptions {
  uint64_t first_seed = 1;
  size_t num_scenarios = 100;
  /// Parallel runs to compare against the serial (workers = 0) baseline.
  std::vector<size_t> worker_counts = {1, 2, 4};
  /// Install each scenario's generated SimFaults (--no-faults clears).
  bool with_faults = true;
  /// Override every generated query config with a tight, seed-derived
  /// memory budget (DESIGN.md §15), so a whole campaign exercises
  /// memory-triggered triage instead of the ~1/8 of seeds the generator
  /// budgets organically. The override is deterministic per (seed,
  /// query), so replay commands stay exact reproductions.
  bool force_memory_budgets = false;
  /// Rewrite every generated query into a MATCH pattern query
  /// (DESIGN.md §17), so a whole campaign exercises the NFA executor and
  /// the utility drop policy instead of the ~1/4 of seeds the generator
  /// converts organically. Deterministic per (seed, query), so replay
  /// commands stay exact reproductions.
  bool force_pattern_queries = false;
  /// Wall-clock budget in seconds; 0 = no budget. Checked between
  /// scenarios, so a campaign overruns by at most one scenario.
  double max_wall_seconds = 0.0;
  /// When set, failing seeds are appended to this file, one
  /// "<seed> <first oracle failure>" line each (the CI artifact).
  std::string failures_path;
  /// When set, the base run's session snapshot (if the scenario took
  /// one) is written to <dir>/seed-<seed>.dtss for every failing seed,
  /// so CI can upload the exact bytes that misbehaved. The directory
  /// must already exist.
  std::string snapshot_dump_dir;
  bool verbose = false;
};

struct SimFailure {
  uint64_t seed = 0;
  std::string message;
};

struct SimReport {
  size_t scenarios_run = 0;
  std::vector<SimFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// The one-line command that reproduces `seed` under `options`.
std::string ReplayCommand(uint64_t seed, const SimOptions& options);

/// Generates the scenario for `seed` and runs every oracle against it:
/// serial determinism (two serial runs byte-identical), parallel
/// equivalence for each worker count, solo-server equivalence,
/// conservation, and the accuracy oracles.
/// Returns the first oracle failure, annotated with the seed.
Status RunScenarioOnce(uint64_t seed, const SimOptions& options,
                       std::ostream* out);

/// Runs `options.num_scenarios` seeds starting at `options.first_seed`.
/// Progress and failures go to `out` (may be null); every failure is
/// reported with its replay command.
SimReport RunSimulations(const SimOptions& options, std::ostream* out);

}  // namespace datatriage::sim

#endif  // DATATRIAGE_SIM_RUNNER_H_
