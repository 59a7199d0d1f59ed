// Computed projections (SELECT a + b AS x): binder, evaluator,
// differential rewrite, engine, and SQL re-emission coverage.

#include <gtest/gtest.h>

#include "src/exec/evaluator.h"
#include "src/rewrite/differential.h"
#include "src/rewrite/sql_emitter.h"
#include "tests/test_util.h"

namespace datatriage {
namespace {

using exec::ChannelKey;
using exec::Relation;
using exec::RelationProvider;
using plan::Channel;
using plan::LogicalPlan;
using testing::MustBind;
using testing::PaperCatalog;
using testing::RandomRelation;
using testing::RandomSplit;
using testing::Row;
using testing::SameMultiset;

TEST(ComputeBinderTest, ColumnOnlyListsStayProjections) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery bound = MustBind("SELECT c, b FROM S", catalog);
  EXPECT_FALSE(bound.computed_projection);
  EXPECT_EQ(bound.plan->kind(), LogicalPlan::Kind::kProject);
}

TEST(ComputeBinderTest, ExpressionsBecomeComputeNodes) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery bound =
      MustBind("SELECT b + c AS total, b * 2, c FROM S", catalog);
  EXPECT_TRUE(bound.computed_projection);
  EXPECT_EQ(bound.plan->kind(), LogicalPlan::Kind::kCompute);
  ASSERT_EQ(bound.projection_names.size(), 3u);
  EXPECT_EQ(bound.projection_names[0], "total");
  EXPECT_EQ(bound.projection_names[1], "expr2");  // default name
  EXPECT_EQ(bound.projection_names[2], "c");
  EXPECT_EQ(bound.plan->schema().field(0).type, FieldType::kInt64);
}

TEST(ComputeBinderTest, StarMixesWithExpressions) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery bound =
      MustBind("SELECT *, b + c AS sum FROM S", catalog);
  EXPECT_TRUE(bound.computed_projection);
  EXPECT_EQ(bound.projection_names,
            (std::vector<std::string>{"b", "c", "sum"}));
}

TEST(ComputeBinderTest, DuplicateExprNamesGetSuffixes) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery bound =
      MustBind("SELECT b + 1 AS x, c + 1 AS x FROM S", catalog);
  EXPECT_EQ(bound.projection_names,
            (std::vector<std::string>{"x", "x_2"}));
}

TEST(ComputeEvaluatorTest, EvaluatesExpressionsPerRow) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery bound =
      MustBind("SELECT b + c AS total, b / 2 AS half FROM S", catalog);
  RelationProvider inputs;
  inputs[ChannelKey{"s", Channel::kBase}] = {Row({4, 10}), Row({6, 1})};
  auto result = exec::EvaluatePlan(*bound.plan, inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Relation expected = {
      Tuple({Value::Int64(14), Value::Double(2.0)}),
      Tuple({Value::Int64(7), Value::Double(3.0)}),
  };
  EXPECT_TRUE(SameMultiset(*result, expected))
      << testing::RelationToString(*result);
}

class ComputeDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ComputeDifferentialTest, IdentityHoldsThroughCompute) {
  // Compute is a per-tuple map, so Q = Q_noisy − Q+ + Q− must hold for
  // computed projections exactly as for π.
  Catalog catalog = PaperCatalog();
  plan::BoundQuery bound = MustBind(
      "SELECT a + c AS x FROM R, S WHERE R.a = S.b", catalog);
  ASSERT_TRUE(bound.computed_projection);

  Rng rng(GetParam());
  RelationProvider inputs;
  for (const auto& [stream, arity] :
       std::vector<std::pair<std::string, size_t>>{{"r", 1}, {"s", 2}}) {
    Relation base = RandomRelation(&rng, 40, arity, 1, 8);
    auto [kept, dropped] = RandomSplit(&rng, base, 0.4);
    inputs[ChannelKey{stream, Channel::kBase}] = std::move(base);
    inputs[ChannelKey{stream, Channel::kKept}] = std::move(kept);
    inputs[ChannelKey{stream, Channel::kDropped}] = std::move(dropped);
  }
  auto full = exec::EvaluatePlan(*bound.plan, inputs);
  ASSERT_TRUE(full.ok());
  auto differential = rewrite::DifferentialRewrite(bound.plan);
  ASSERT_TRUE(differential.ok()) << differential.status().ToString();
  auto noisy = exec::EvaluatePlan(*differential->noisy, inputs);
  auto minus = exec::EvaluatePlan(*differential->minus, inputs);
  ASSERT_TRUE(noisy.ok());
  ASSERT_TRUE(minus.ok());
  EXPECT_EQ(differential->plus->kind(), LogicalPlan::Kind::kEmpty);
  Relation reconstructed = *noisy;
  reconstructed.insert(reconstructed.end(), minus->begin(), minus->end());
  EXPECT_TRUE(SameMultiset(*full, reconstructed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComputeDifferentialTest,
                         ::testing::Range<uint64_t>(1, 7));

TEST(ComputeEngineTest, RunsEndToEndWithoutSynopsisView) {
  Catalog catalog = PaperCatalog();
  engine::EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDataTriage;
  config.queue_capacity = 5;
  std::vector<engine::StreamEvent> events;
  for (int i = 0; i < 50; ++i) {
    events.push_back({"r", Row({i % 7}, 0.1 + 1e-5 * i)});
  }
  const std::vector<engine::WindowResult> results =
      testing::RunSolo(catalog, "SELECT a + 100 AS shifted FROM R", config,
                       events)
          .results;
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].kept_tuples, 0);
  EXPECT_GT(results[0].dropped_tuples, 0);
  ASSERT_FALSE(results[0].exact_rows.empty());
  EXPECT_GE(results[0].exact_rows[0].value(0).int64(), 100);
  // Computed projections have no synopsis view of the loss estimate.
  EXPECT_EQ(results[0].result_synopsis, nullptr);
}

TEST(ComputeEmitterTest, KeptViewRendersExpressions) {
  Catalog catalog = PaperCatalog();
  auto triaged = rewrite::RewriteForDataTriage(
      MustBind("SELECT b + c AS total FROM S WHERE b > 2", catalog));
  ASSERT_TRUE(triaged.ok());
  auto view = rewrite::EmitKeptViewSql(*triaged);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_NE(view->find("(s.b + s.c) AS total"), std::string::npos)
      << *view;
  EXPECT_NE(view->find("FROM s_kept s"), std::string::npos) << *view;
}

}  // namespace
}  // namespace datatriage
