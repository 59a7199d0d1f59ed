#include <gtest/gtest.h>

#include "src/metrics/ideal.h"
#include "src/metrics/rms.h"
#include "src/workload/scenario.h"
#include "tests/test_util.h"

namespace datatriage::engine {
namespace {

using triage::SheddingStrategy;
using testing::PaperCatalog;
using testing::Row;
using testing::RunSolo;
using testing::SoloRun;

EngineConfig FastConfig(SheddingStrategy strategy) {
  EngineConfig config;
  config.strategy = strategy;
  config.queue_capacity = 50;
  config.synopsis.type = synopsis::SynopsisType::kGridHistogram;
  config.synopsis.grid.cell_width = 4.0;
  return config;
}

std::vector<StreamEvent> OneMatchPerWindow(int windows) {
  // Per window w: r=(5), s=(5,7), t=(7) -> exactly one join result with
  // a=5, count 1.
  std::vector<StreamEvent> events;
  for (int w = 0; w < windows; ++w) {
    const double base = static_cast<double>(w);
    events.push_back({"r", Row({5}, base + 0.1)});
    events.push_back({"s", Row({5, 7}, base + 0.2)});
    events.push_back({"t", Row({7}, base + 0.3)});
  }
  return events;
}

TEST(EngineTest, UnderloadProducesExactResults) {
  Catalog catalog = PaperCatalog();
  SoloRun out =
      RunSolo(catalog, testing::kPaperQuery,
              FastConfig(SheddingStrategy::kDataTriage),
              OneMatchPerWindow(5));
  EXPECT_EQ(out.stats.tuples_dropped, 0);
  EXPECT_EQ(out.stats.tuples_kept, 15);
  ASSERT_EQ(out.results.size(), 5u);
  for (const WindowResult& r : out.results) {
    ASSERT_EQ(r.exact_rows.size(), 1u) << "window " << r.window;
    EXPECT_EQ(r.exact_rows[0].value(0).int64(), 5);
    EXPECT_EQ(r.exact_rows[0].value(1).int64(), 1);
    ASSERT_EQ(r.merged_rows.size(), 1u);
    EXPECT_DOUBLE_EQ(r.merged_rows[0].value(1).AsDouble(), 1.0);
    EXPECT_EQ(r.kept_tuples, 3);
    EXPECT_EQ(r.dropped_tuples, 0);
  }
}

TEST(EngineTest, ResultsEmittedInWindowOrderWithDeadlines) {
  Catalog catalog = PaperCatalog();
  SoloRun out =
      RunSolo(catalog, testing::kPaperQuery,
              FastConfig(SheddingStrategy::kDataTriage),
              OneMatchPerWindow(4));
  ASSERT_EQ(out.results.size(), 4u);
  for (size_t i = 0; i < out.results.size(); ++i) {
    EXPECT_EQ(out.results[i].window, static_cast<WindowId>(i));
    // Deadline = window_end + delay_factor * W = w + 2 (1s windows).
    EXPECT_GE(out.results[i].emit_time,
              static_cast<double>(i) + 2.0);
  }
}

TEST(EngineTest, QueueOverflowShedsAndTriageEstimatesLoss) {
  Catalog catalog = PaperCatalog();
  EngineConfig config = FastConfig(SheddingStrategy::kDataTriage);
  config.queue_capacity = 5;
  // Saturate: per-tuple cost default 1/400 s, but send 300 identical
  // tuples per stream within one window at effectively infinite rate.
  std::vector<StreamEvent> events;
  for (int i = 0; i < 300; ++i) {
    const double t = 0.1 + 1e-4 * i;
    events.push_back({"r", Row({5}, t)});
    events.push_back({"s", Row({5, 7}, t)});
    events.push_back({"t", Row({7}, t)});
  }
  SoloRun out = RunSolo(catalog, testing::kPaperQuery, config, events);
  EXPECT_GT(out.stats.tuples_dropped, 0);
  ASSERT_EQ(out.results.size(), 1u);
  const WindowResult& r = out.results[0];
  EXPECT_EQ(r.kept_tuples + r.dropped_tuples, 900);
  // Ideal count for group 5 is 300*300*300 / ... no: join is
  // r(5) x s(5,7) x t(7): 300*300*300? No - each r joins each s (same b),
  // each s joins each t: 300*300*300 = 2.7e7. The merged estimate must be
  // far closer to ideal than the exact-only result.
  const double ideal = 300.0 * 300.0 * 300.0;
  // The histogram spreads its estimate across the cell's integer points,
  // so merged_rows may contain neighbouring groups; score group a=5.
  double merged = 0.0;
  for (const Tuple& row : r.merged_rows) {
    if (row.value(0).int64() == 5) merged = row.value(1).AsDouble();
  }
  ASSERT_GT(merged, 0.0);
  const double exact = r.exact_rows.empty()
                           ? 0.0
                           : r.exact_rows[0].value(1).AsDouble();
  EXPECT_LT(std::abs(merged - ideal), std::abs(exact - ideal));
  EXPECT_GT(merged, exact);
}

TEST(EngineTest, SummarizeOnlyKeepsNothingButEstimates) {
  Catalog catalog = PaperCatalog();
  SoloRun out =
      RunSolo(catalog, testing::kPaperQuery,
              FastConfig(SheddingStrategy::kSummarizeOnly),
              OneMatchPerWindow(3));
  EXPECT_EQ(out.stats.tuples_kept, 0);
  EXPECT_EQ(out.stats.tuples_dropped, 9);
  ASSERT_EQ(out.results.size(), 3u);
  for (const WindowResult& r : out.results) {
    EXPECT_TRUE(r.exact_rows.empty());
    EXPECT_FALSE(r.merged_rows.empty());
  }
}

TEST(EngineTest, DropOnlyNeverEstimates) {
  Catalog catalog = PaperCatalog();
  EngineConfig config = FastConfig(SheddingStrategy::kDropOnly);
  config.queue_capacity = 2;
  std::vector<StreamEvent> events;
  for (int i = 0; i < 50; ++i) {
    const double t = 0.1 + 1e-5 * i;
    events.push_back({"r", Row({5}, t)});
    events.push_back({"s", Row({5, 7}, t)});
    events.push_back({"t", Row({7}, t)});
  }
  SoloRun out = RunSolo(catalog, testing::kPaperQuery, config, events);
  EXPECT_GT(out.stats.tuples_dropped, 0);
  for (const WindowResult& r : out.results) {
    EXPECT_TRUE(r.shadow_estimate.empty());
    EXPECT_EQ(r.result_synopsis, nullptr);
    // Exact and merged coincide (both come from kept tuples only).
    EXPECT_EQ(r.exact_rows.size(), r.merged_rows.size());
  }
}

TEST(EngineTest, NonAggregateQueryDeliversRowsAndLossSynopsis) {
  Catalog catalog = PaperCatalog();
  EngineConfig config = FastConfig(SheddingStrategy::kDataTriage);
  config.queue_capacity = 3;
  std::vector<StreamEvent> events;
  for (int i = 0; i < 40; ++i) {
    events.push_back({"r", Row({5}, 0.1 + 1e-5 * i)});
  }
  SoloRun out = RunSolo(catalog, "SELECT a FROM R", config, events);
  ASSERT_EQ(out.results.size(), 1u);
  const WindowResult& r = out.results[0];
  EXPECT_GT(r.kept_tuples, 0);
  EXPECT_GT(r.dropped_tuples, 0);
  EXPECT_EQ(r.exact_rows.size(), static_cast<size_t>(r.kept_tuples));
  ASSERT_NE(r.result_synopsis, nullptr);
  EXPECT_NEAR(r.result_synopsis->TotalCount(),
              static_cast<double>(r.dropped_tuples), 1e-6);
}

TEST(EngineTest, RejectsBadUsage) {
  Catalog catalog = PaperCatalog();
  EngineConfig config = FastConfig(SheddingStrategy::kDataTriage);
  server::StreamServer server(catalog);
  ASSERT_TRUE(server.RegisterQuery(testing::kPaperQuery, config).ok());
  // Unknown stream.
  EXPECT_EQ(server.Push({"zzz", Row({1}, 0.1)}).code(),
            StatusCode::kNotFound);
  // Arity mismatch.
  EXPECT_EQ(server.Push({"s", Row({1}, 0.1)}).code(),
            StatusCode::kInvalidArgument);
  // Out-of-order timestamps.
  ASSERT_TRUE(server.Push({"r", Row({1}, 5.0)}).ok());
  EXPECT_EQ(server.Push({"r", Row({1}, 4.0)}).code(),
            StatusCode::kInvalidArgument);
  // Push after Finish.
  ASSERT_TRUE(server.Finish().ok());
  EXPECT_FALSE(server.Push({"r", Row({1}, 9.0)}).ok());
  // Finish is idempotent.
  EXPECT_TRUE(server.Finish().ok());
}

TEST(EngineTest, RejectsUnsupportedQueries) {
  server::StreamServer server(PaperCatalog());
  EngineConfig config = FastConfig(SheddingStrategy::kDataTriage);
  EXPECT_EQ(server.RegisterQuery("SELECT DISTINCT a FROM R", config)
                .status()
                .code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(server
                .RegisterQuery(
                    "SELECT a FROM R, S WHERE R.a = S.b WINDOW "
                    "R['1 second'], S['2 seconds']",
                    config)
                .status()
                .code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(server
                .RegisterQuery(
                    "(SELECT a FROM R) EXCEPT (SELECT d FROM T)", config)
                .status()
                .code(),
            StatusCode::kUnimplemented);
  // ... but EXCEPT is fine under drop-only shedding (no shadow plan).
  EngineConfig drop_config = FastConfig(SheddingStrategy::kDropOnly);
  EXPECT_TRUE(server
                  .RegisterQuery(
                      "(SELECT a FROM R) EXCEPT (SELECT d FROM T)",
                      drop_config)
                  .ok());
}

TEST(EngineTest, AllAggregatesLosslessUnderExactSynopsis) {
  // SUM/AVG/MIN/MAX flow through the shadow estimate and the merge; with
  // a lossless synopsis the composite must equal the no-shedding answer
  // for every aggregate function, even under heavy shedding.
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterStream({"m", Schema({{"g", FieldType::kInt64},
                                                {"v", FieldType::kInt64}})})
                  .ok());
  const std::string query =
      "SELECT g, COUNT(*) AS n, SUM(v) AS total, AVG(v) AS mean, "
      "MIN(v) AS lo, MAX(v) AS hi FROM m GROUP BY g "
      "WINDOW m['1 second']";

  Rng rng(21);
  std::vector<StreamEvent> events;
  double t = 0.0;
  std::map<std::pair<WindowId, int64_t>,
           std::vector<int64_t>>
      per_group_values;
  for (int i = 0; i < 1200; ++i) {
    t += rng.Exponential(1000.0);  // well beyond capacity
    const int64_t g = rng.UniformInt(1, 4);
    const int64_t v = rng.UniformInt(1, 100);
    events.push_back({"m", Tuple({Value::Int64(g), Value::Int64(v)}, t)});
    per_group_values[{WindowIdFor(t, 1.0), g}].push_back(v);
  }

  EngineConfig config;
  config.strategy = SheddingStrategy::kDataTriage;
  config.queue_capacity = 30;
  config.synopsis.type = synopsis::SynopsisType::kExact;
  SoloRun out = RunSolo(catalog, query, config, events);
  EXPECT_GT(out.stats.tuples_dropped, 0);

  for (const WindowResult& r : out.results) {
    for (const Tuple& row : r.merged_rows) {
      const auto& values =
          per_group_values[{r.window, row.value(0).int64()}];
      ASSERT_FALSE(values.empty());
      double sum = 0;
      int64_t lo = values[0], hi = values[0];
      for (int64_t v : values) {
        sum += static_cast<double>(v);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      EXPECT_NEAR(row.value(1).AsDouble(),
                  static_cast<double>(values.size()), 1e-9);
      EXPECT_NEAR(row.value(2).AsDouble(), sum, 1e-9);
      EXPECT_NEAR(row.value(3).AsDouble(),
                  sum / static_cast<double>(values.size()), 1e-9);
      EXPECT_NEAR(row.value(4).AsDouble(), static_cast<double>(lo), 1e-9);
      EXPECT_NEAR(row.value(5).AsDouble(), static_cast<double>(hi), 1e-9);
    }
  }
}

TEST(EngineTest, SynergisticPolicyRequiresSynopsizingStrategy) {
  Catalog catalog = PaperCatalog();
  EngineConfig config = FastConfig(SheddingStrategy::kDropOnly);
  config.drop_policy = triage::DropPolicyKind::kSynergistic;
  server::StreamServer server(catalog);
  EXPECT_EQ(server.RegisterQuery(testing::kPaperQuery, config)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, SynergisticPolicyRunsUnderDataTriage) {
  Catalog catalog = PaperCatalog();
  EngineConfig config = FastConfig(SheddingStrategy::kDataTriage);
  config.drop_policy = triage::DropPolicyKind::kSynergistic;
  config.queue_capacity = 10;
  std::vector<StreamEvent> events;
  for (int i = 0; i < 200; ++i) {
    const double t = 0.1 + 1e-5 * i;
    events.push_back({"r", Row({5}, t)});
    events.push_back({"s", Row({5, 7}, t)});
    events.push_back({"t", Row({7}, t)});
  }
  SoloRun out = RunSolo(catalog, testing::kPaperQuery, config, events);
  EXPECT_GT(out.stats.tuples_dropped, 0);
  ASSERT_EQ(out.results.size(), 1u);
  EXPECT_FALSE(out.results[0].merged_rows.empty());
}

TEST(EngineTest, DeterministicForFixedSeed) {
  workload::ScenarioConfig scenario_config;
  scenario_config.tuples_per_stream = 400;
  scenario_config.rate_per_stream = 250.0;  // overload -> drops happen
  scenario_config.seed = 77;
  auto scenario = workload::BuildPaperScenario(scenario_config);
  ASSERT_TRUE(scenario.ok());
  EngineConfig config = FastConfig(SheddingStrategy::kDataTriage);
  config.seed = 5;
  SoloRun a = RunSolo(scenario->catalog, scenario->query_sql, config,
                        scenario->events);
  SoloRun b = RunSolo(scenario->catalog, scenario->query_sql, config,
                        scenario->events);
  ASSERT_EQ(a.results.size(), b.results.size());
  EXPECT_GT(a.stats.tuples_dropped, 0);
  EXPECT_EQ(a.stats.tuples_dropped, b.stats.tuples_dropped);
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_TRUE(testing::SameMultiset(a.results[i].merged_rows,
                                      b.results[i].merged_rows))
        << "window " << i;
  }
}

TEST(EngineTest, ExactMatchesIdealWhenNothingDropped) {
  workload::ScenarioConfig scenario_config;
  scenario_config.tuples_per_stream = 200;
  scenario_config.rate_per_stream = 20.0;  // far below capacity
  scenario_config.seed = 3;
  auto scenario = workload::BuildPaperScenario(scenario_config);
  ASSERT_TRUE(scenario.ok());
  EngineConfig config = FastConfig(SheddingStrategy::kDataTriage);
  SoloRun out = RunSolo(scenario->catalog, scenario->query_sql, config,
                          scenario->events);
  EXPECT_EQ(out.stats.tuples_dropped, 0);

  auto stmt = sql::ParseStatement(scenario->query_sql);
  ASSERT_TRUE(stmt.ok());
  auto bound = plan::BindStatement(*stmt, scenario->catalog);
  ASSERT_TRUE(bound.ok());
  auto ideal = metrics::ComputeIdealResults(*bound, scenario->events,
                                            scenario->window_seconds);
  ASSERT_TRUE(ideal.ok());
  auto rms = metrics::RmsError(*ideal, out.results, 1,
                               metrics::ResultChannel::kExact);
  ASSERT_TRUE(rms.ok()) << rms.status().ToString();
  EXPECT_DOUBLE_EQ(rms.value(), 0.0);
}

}  // namespace
}  // namespace datatriage::engine
