// Tests for the deterministic simulation harness (src/sim/): scenario
// generation determinism, a small end-to-end campaign, fuzz-surfaced
// regression seeds, and — critically — a negative test per oracle
// proving each one can actually fail when fed tampered output.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "src/common/status.h"
#include "src/sim/oracles.h"
#include "src/sim/runner.h"
#include "src/sim/scenario_gen.h"
#include "src/tuple/value.h"

namespace datatriage::sim {
namespace {

// ---------------------------------------------------------------------------
// Scenario generation

TEST(ScenarioGenTest, SameSeedProducesIdenticalScenario) {
  const SimScenario a = GenerateScenario(42);
  const SimScenario b = GenerateScenario(42);
  EXPECT_EQ(Describe(a), Describe(b));
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].stream, b.events[i].stream);
    EXPECT_EQ(a.events[i].tuple.timestamp(), b.events[i].tuple.timestamp());
    EXPECT_EQ(a.events[i].tuple, b.events[i].tuple);
  }
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t q = 0; q < a.queries.size(); ++q) {
    EXPECT_EQ(a.queries[q].sql, b.queries[q].sql);
  }
}

TEST(ScenarioGenTest, DifferentSeedsDiverge) {
  EXPECT_NE(Describe(GenerateScenario(1)), Describe(GenerateScenario(2)));
}

TEST(ScenarioGenTest, EventsAreTimeSorted) {
  const SimScenario scenario = GenerateScenario(7);
  for (size_t i = 1; i < scenario.events.size(); ++i) {
    EXPECT_LE(scenario.events[i - 1].tuple.timestamp(),
              scenario.events[i].tuple.timestamp());
  }
}

// ---------------------------------------------------------------------------
// End-to-end campaign (positive path)

TEST(SimRunnerTest, SmallCampaignPassesEveryOracle) {
  SimOptions options;
  options.first_seed = 1;
  options.num_scenarios = 6;
  options.worker_counts = {2};
  std::ostringstream sink;
  const SimReport report = RunSimulations(options, &sink);
  EXPECT_EQ(report.scenarios_run, 6u);
  EXPECT_TRUE(report.ok()) << sink.str();
}

TEST(SimRunnerTest, ReplayCommandNamesTheSeed) {
  SimOptions options;
  options.worker_counts = {1, 2, 4};
  EXPECT_EQ(ReplayCommand(99, options),
            "sim_main --replay-seed 99 --workers 1,2,4");
  options.with_faults = false;
  EXPECT_EQ(ReplayCommand(99, options),
            "sim_main --replay-seed 99 --workers 1,2,4 --no-faults");
}

// ---------------------------------------------------------------------------
// Fuzz-surfaced regression seeds. Each entry reproduces a bug the fuzzer
// found; the test name records the replay command that found it.

// sim_main --replay-seed 17: a stall fault pushed the session clock past
// the final ProcessUntil target in Finish(), so tuples that arrived after
// their covering window emitted stayed queued forever — ingested but
// neither kept nor dropped. Finish() now evicts such stragglers as
// force-shed. Conservation oracle: "ingested 617 != kept 105 + dropped
// 509" before the fix.
TEST(SimRegressionTest, Seed17StragglersAreForceShedAtFinish) {
  SimOptions options;
  options.worker_counts = {1, 2};
  std::ostringstream sink;
  const Status status = RunScenarioOnce(17, options, &sink);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// sim_main --replay-seed 149: the scenario's window/slide fields kept
// full double precision while the SQL WINDOW clause rendered them at
// %.9f, so the engine (parsing the SQL) and the offline ideal (reading
// the fields) disagreed about window boundaries under sliding windows —
// the zero-RMS oracle reported "RMS error 2.03046 (expected exactly 0)"
// with zero tuples shed. The generator now snaps its geometry to the
// rendered precision.
TEST(SimRegressionTest, Seed149WindowGeometryMatchesRenderedSql) {
  const SimScenario scenario = GenerateScenario(149);
  // The harness invariant the fix enforces: round-tripping through the
  // SQL rendering must be lossless.
  char rendered[64];
  std::snprintf(rendered, sizeof(rendered), "%.9f",
                scenario.window_seconds);
  EXPECT_EQ(std::strtod(rendered, nullptr), scenario.window_seconds);
  std::snprintf(rendered, sizeof(rendered), "%.9f",
                scenario.window_slide);
  EXPECT_EQ(std::strtod(rendered, nullptr), scenario.window_slide);

  SimOptions options;
  options.worker_counts = {1, 2};
  std::ostringstream sink;
  const Status status = RunScenarioOnce(149, options, &sink);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// sim_main --replay-seed 700060: a drop-only MATCH query over a sliding
// window, registered mid-stream. The run shed queued tuples from an
// early covering window while keeping them for a later one, so
// tuples_dropped stayed 0 while the windows reported 18 drops; the
// pattern oracle took tuples_dropped == 0 for "shed nothing" and
// demanded the zero-shed ideal's match rows exactly ("shed nothing but
// its match rows differ"). The oracle now also requires zero per-window
// drops before it demands equality.
TEST(SimRegressionTest, Seed700060PerWindowShedsAreNotAZeroShedRun) {
  SimOptions options;
  options.worker_counts = {1};
  std::ostringstream sink;
  const Status status = RunScenarioOnce(700060, options, &sink);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// ---------------------------------------------------------------------------
// Negative tests: every oracle must be able to fail. Each test runs a
// scenario cleanly, verifies the oracle passes, then tampers with one
// byte/field of the output and verifies the oracle rejects it.

ServerRunOutput MustRunSerial(const SimScenario& scenario) {
  auto run = RunOnServer(scenario, /*worker_threads=*/0,
                         /*install_faults=*/false);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return std::move(*run);
}

TEST(SimOracleNegativeTest, EquivalenceOracleCatchesTamperedCsv) {
  const SimScenario scenario = GenerateScenario(3);
  const ServerRunOutput base = MustRunSerial(scenario);
  ASSERT_TRUE(CheckRunsEquivalent(base, base, "a", "b").ok());

  ServerRunOutput tampered = MustRunSerial(scenario);
  ASSERT_FALSE(tampered.sessions.empty());
  tampered.sessions[0].results_csv += "9,9\n";
  const Status status = CheckRunsEquivalent(base, tampered, "a", "b");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("results"), std::string::npos)
      << status.ToString();
}

TEST(SimOracleNegativeTest, EquivalenceOracleCatchesTamperedMetrics) {
  const SimScenario scenario = GenerateScenario(3);
  const ServerRunOutput base = MustRunSerial(scenario);
  ServerRunOutput tampered = MustRunSerial(scenario);
  ASSERT_FALSE(tampered.sessions.empty());
  tampered.sessions[0].metrics_json.back() = '!';
  EXPECT_FALSE(CheckRunsEquivalent(base, tampered, "a", "b").ok());
}

TEST(SimOracleNegativeTest, ConservationOracleCatchesLeakedTuple) {
  const SimScenario scenario = GenerateScenario(5);
  ServerRunOutput run = MustRunSerial(scenario);
  ASSERT_FALSE(run.sessions.empty());
  ASSERT_TRUE(CheckConservation(run.sessions[0]).ok());
  // Simulate one tuple entering the engine and vanishing uncounted.
  run.sessions[0].snapshot.core.tuples_ingested += 1;
  EXPECT_FALSE(CheckConservation(run.sessions[0]).ok());
}

TEST(SimOracleNegativeTest, ConservationOracleCatchesCounterDrift) {
  const SimScenario scenario = GenerateScenario(5);
  ServerRunOutput run = MustRunSerial(scenario);
  ASSERT_FALSE(run.sessions.empty());
  // Core stats and registry counters must agree; desync the registry.
  auto& counters = run.sessions[0].snapshot.counters;
  ASSERT_TRUE(counters.count("engine.tuples_kept"));
  counters["engine.tuples_kept"] += 1;
  EXPECT_FALSE(CheckConservation(run.sessions[0]).ok());
}

TEST(SimOracleNegativeTest, SoloEquivalenceOracleCatchesDivergence) {
  const SimScenario scenario = GenerateScenario(4);
  ServerRunOutput run = MustRunSerial(scenario);
  ASSERT_TRUE(CheckSoloEquivalence(scenario, run, false).ok());
  ASSERT_FALSE(run.sessions.empty());
  run.sessions[0].results_csv += "tampered\n";
  EXPECT_FALSE(CheckSoloEquivalence(scenario, run, false).ok());
}

// Finds a seed whose scenario has an accuracy-eligible query with at
// least one non-empty merged result, so the RMS tamper has a cell to
// poison. Deterministic: the scan order is fixed.
bool FindAccuracyScenario(SimScenario* scenario_out, size_t* query_out,
                          ServerRunOutput* run_out) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SimScenario scenario = GenerateScenario(seed);
    for (size_t q = 0; q < scenario.queries.size(); ++q) {
      if (!scenario.queries[q].AccuracyEligible()) continue;
      ServerRunOutput run = MustRunSerial(scenario);
      if (q >= run.sessions.size()) continue;
      bool has_rows = false;
      for (const auto& result : run.sessions[q].results) {
        if (!result.merged_rows.empty()) has_rows = true;
      }
      if (!has_rows) continue;
      if (!CheckAccuracy(scenario, q, run.sessions[q]).ok()) continue;
      *scenario_out = std::move(scenario);
      *query_out = q;
      *run_out = std::move(run);
      return true;
    }
  }
  return false;
}

TEST(SimOracleNegativeTest, AccuracyOracleCatchesNonFiniteResults) {
  SimScenario scenario;
  size_t query_index = 0;
  ServerRunOutput run;
  ASSERT_TRUE(FindAccuracyScenario(&scenario, &query_index, &run));

  // Poison one aggregate cell: the merged-channel RMS error must stop
  // being finite, which the oracle rejects.
  QueryRunOutput& session = run.sessions[query_index];
  for (auto& result : session.results) {
    if (result.merged_rows.empty()) continue;
    Tuple& row = result.merged_rows.front();
    row.value(row.size() - 1) =
        Value::Double(std::numeric_limits<double>::quiet_NaN());
    break;
  }
  EXPECT_FALSE(CheckAccuracy(scenario, query_index, session).ok());
}

TEST(SimOracleNegativeTest, IdealRunOracleCatchesWindowGeometryDrift) {
  SimScenario scenario;
  size_t query_index = 0;
  ServerRunOutput run;
  ASSERT_TRUE(FindAccuracyScenario(&scenario, &query_index, &run));

  // The ideal-run oracle recomputes the offline ideal from the scenario's
  // window geometry and demands exactly zero RMS against a no-shedding
  // engine run. Skewing the scenario's recorded geometry away from the
  // SQL's WINDOW clause must break that equality.
  scenario.window_seconds *= 2.0;
  scenario.window_slide *= 2.0;
  EXPECT_FALSE(
      CheckAccuracy(scenario, query_index, run.sessions[query_index]).ok());
}

}  // namespace
}  // namespace datatriage::sim
