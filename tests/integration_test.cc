#include <gtest/gtest.h>

#include "src/metrics/ideal.h"
#include "src/metrics/rms.h"
#include "src/metrics/stats.h"
#include "src/workload/scenario.h"
#include "tests/test_util.h"

namespace datatriage {
namespace {

using engine::EngineConfig;
using triage::SheddingStrategy;

/// End-to-end miniatures of the paper's Figs. 8-9: run all three
/// load-shedding strategies on one scenario and compare RMS errors
/// against the ideal result.

EngineConfig BaseConfig(SheddingStrategy strategy) {
  EngineConfig config;
  config.strategy = strategy;
  config.queue_capacity = 50;
  config.synopsis.type = synopsis::SynopsisType::kGridHistogram;
  config.synopsis.grid.cell_width = 4.0;
  return config;
}

double RunRms(const workload::Scenario& scenario,
              SheddingStrategy strategy, uint64_t engine_seed = 1) {
  EngineConfig config = BaseConfig(strategy);
  config.seed = engine_seed;
  const testing::SoloRun run = testing::RunSolo(
      scenario.catalog, scenario.query_sql, config, scenario.events);

  auto stmt = sql::ParseStatement(scenario.query_sql);
  DT_CHECK(stmt.ok());
  auto bound = plan::BindStatement(*stmt, scenario.catalog);
  DT_CHECK(bound.ok());
  auto ideal = metrics::ComputeIdealResults(*bound, scenario.events,
                                            scenario.window_seconds);
  DT_CHECK(ideal.ok()) << ideal.status().ToString();
  auto rms = metrics::RmsError(*ideal, run.results, 1,
                               metrics::ResultChannel::kMerged);
  DT_CHECK(rms.ok()) << rms.status().ToString();
  return rms.value();
}

workload::Scenario ConstantScenario(double rate_per_stream,
                                    uint64_t seed) {
  workload::ScenarioConfig config;
  config.tuples_per_stream = 1500;
  config.tuples_per_window = 60.0;
  config.rate_per_stream = rate_per_stream;
  config.seed = seed;
  auto scenario = workload::BuildPaperScenario(config);
  DT_CHECK(scenario.ok()) << scenario.status().ToString();
  return std::move(scenario).value();
}

TEST(IntegrationTest, LowLoadAllQueueBasedStrategiesAreExact) {
  // Default capacity ~400 tuples/s total; 3x40 = 120/s is underload.
  workload::Scenario scenario = ConstantScenario(40.0, 11);
  EXPECT_DOUBLE_EQ(RunRms(scenario, SheddingStrategy::kDropOnly), 0.0);
  EXPECT_DOUBLE_EQ(RunRms(scenario, SheddingStrategy::kDataTriage), 0.0);
  // Summarize-only is approximate even at low load.
  EXPECT_GT(RunRms(scenario, SheddingStrategy::kSummarizeOnly), 0.0);
}

TEST(IntegrationTest, HighLoadDataTriageBeatsDropOnly) {
  // 3x250 = 750 tuples/s >> capacity: heavy shedding.
  workload::Scenario scenario = ConstantScenario(250.0, 13);
  const double drop_rms = RunRms(scenario, SheddingStrategy::kDropOnly);
  const double triage_rms =
      RunRms(scenario, SheddingStrategy::kDataTriage);
  EXPECT_GT(drop_rms, 0.0);
  EXPECT_LT(triage_rms, drop_rms);
}

TEST(IntegrationTest, HighLoadDataTriageApproachesSummarizeOnly) {
  workload::Scenario scenario = ConstantScenario(400.0, 17);
  const double triage_rms =
      RunRms(scenario, SheddingStrategy::kDataTriage);
  const double summarize_rms =
      RunRms(scenario, SheddingStrategy::kSummarizeOnly);
  // Under saturation Data Triage degrades toward (and not far past)
  // summarize-only quality.
  EXPECT_LT(triage_rms, summarize_rms * 1.5);
}

TEST(IntegrationTest, SummarizeOnlyErrorRoughlyRateIndependent) {
  // The paper's Fig. 8: the summarize-only curve is nearly flat. Windows
  // scale with rate, so tuples/window — and thus synopsis error — stay
  // comparable.
  workload::Scenario slow = ConstantScenario(60.0, 19);
  workload::Scenario fast = ConstantScenario(500.0, 19);
  const double slow_rms = RunRms(slow, SheddingStrategy::kSummarizeOnly);
  const double fast_rms = RunRms(fast, SheddingStrategy::kSummarizeOnly);
  EXPECT_GT(slow_rms, 0.0);
  EXPECT_LT(std::abs(fast_rms - slow_rms) / slow_rms, 0.75);
}

TEST(IntegrationTest, BurstyLoadDataTriageDominates) {
  // The paper's headline claim (Fig. 9): with bursts from a shifted
  // distribution, Data Triage beats both baselines. Averaged over a few
  // seeds to suppress run-to-run variance.
  std::vector<double> drop, triage, summarize;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    workload::ScenarioConfig config;
    config.tuples_per_stream = 1500;
    config.tuples_per_window = 60.0;
    config.bursty = true;
    config.burst.base_rate = 30.0;  // bursts hit 3000/s per stream
    config.seed = seed;
    auto scenario = workload::BuildPaperScenario(config);
    ASSERT_TRUE(scenario.ok());
    drop.push_back(RunRms(*scenario, SheddingStrategy::kDropOnly));
    triage.push_back(RunRms(*scenario, SheddingStrategy::kDataTriage));
    summarize.push_back(
        RunRms(*scenario, SheddingStrategy::kSummarizeOnly));
  }
  const double drop_mean = metrics::ComputeMeanStd(drop).mean;
  const double triage_mean = metrics::ComputeMeanStd(triage).mean;
  const double summarize_mean = metrics::ComputeMeanStd(summarize).mean;
  EXPECT_LT(triage_mean, drop_mean);
  EXPECT_LT(triage_mean, summarize_mean);
}

TEST(IntegrationTest, ExactSynopsisMakesDataTriageLossless) {
  // With a lossless synopsis, the composite result equals the ideal even
  // under heavy shedding — the strongest end-to-end check of the whole
  // triage path (queue -> synopsizer -> shadow plan -> merge).
  workload::Scenario scenario = ConstantScenario(300.0, 23);
  EngineConfig config = BaseConfig(SheddingStrategy::kDataTriage);
  config.synopsis.type = synopsis::SynopsisType::kExact;
  const testing::SoloRun run = testing::RunSolo(
      scenario.catalog, scenario.query_sql, config, scenario.events);
  EXPECT_GT(run.stats.tuples_dropped, 0);

  auto stmt = sql::ParseStatement(scenario.query_sql);
  ASSERT_TRUE(stmt.ok());
  auto bound = plan::BindStatement(*stmt, scenario.catalog);
  ASSERT_TRUE(bound.ok());
  auto ideal = metrics::ComputeIdealResults(*bound, scenario.events,
                                            scenario.window_seconds);
  ASSERT_TRUE(ideal.ok());
  auto rms = metrics::RmsError(*ideal, run.results, 1,
                               metrics::ResultChannel::kMerged);
  ASSERT_TRUE(rms.ok());
  EXPECT_NEAR(rms.value(), 0.0, 1e-6);
}

}  // namespace
}  // namespace datatriage
