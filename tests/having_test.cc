// HAVING clause coverage: parser, binder, offline evaluation, engine
// composite results, and SQL re-emission.

#include <gtest/gtest.h>

#include "src/exec/evaluator.h"
#include "src/metrics/ideal.h"
#include "src/rewrite/sql_emitter.h"
#include "tests/test_util.h"

namespace datatriage {
namespace {

using exec::ChannelKey;
using exec::RelationProvider;
using plan::Channel;
using plan::LogicalPlan;
using testing::MustBind;
using testing::PaperCatalog;
using testing::Row;
using testing::SameMultiset;

TEST(HavingParserTest, ParsesAfterGroupBy) {
  auto stmt = sql::ParseStatement(
      "SELECT b, COUNT(*) AS n FROM S GROUP BY b HAVING n > 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_NE(stmt->select->having, nullptr);
  EXPECT_EQ(stmt->select->having->binary_op, sql::BinaryOp::kGreater);
  // Round-trips through the AST printer.
  auto reparsed = sql::ParseStatement(stmt->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(stmt->ToString(), reparsed->ToString());
}

TEST(HavingParserTest, RequiresGroupBy) {
  EXPECT_FALSE(
      sql::ParseStatement("SELECT b FROM S HAVING b > 3").ok());
}

TEST(HavingBinderTest, BindsAgainstAggregateOutput) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery bound = MustBind(
      "SELECT b, COUNT(*) AS n, SUM(c) AS total FROM S GROUP BY b "
      "HAVING n >= 2 AND total < 100",
      catalog);
  ASSERT_NE(bound.having, nullptr);
  // The full plan is a Filter over the Aggregate.
  EXPECT_EQ(bound.plan->kind(), LogicalPlan::Kind::kFilter);
  EXPECT_EQ(bound.plan->child(0)->kind(), LogicalPlan::Kind::kAggregate);
}

TEST(HavingBinderTest, UnknownColumnRejected) {
  Catalog catalog = PaperCatalog();
  auto stmt = sql::ParseStatement(
      "SELECT b, COUNT(*) AS n FROM S GROUP BY b HAVING zzz > 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(plan::BindStatement(*stmt, catalog).status().code(),
            StatusCode::kBindError);
}

TEST(HavingEvaluatorTest, FiltersGroups) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery bound = MustBind(
      "SELECT b, COUNT(*) AS n FROM S GROUP BY b HAVING n >= 2",
      catalog);
  RelationProvider inputs;
  inputs[ChannelKey{"s", Channel::kBase}] = {Row({1, 0}), Row({1, 0}),
                                             Row({2, 0})};
  auto result = exec::EvaluatePlan(*bound.plan, inputs);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(SameMultiset(*result, {Row({1, 2})}))
      << testing::RelationToString(*result);
}

TEST(HavingEngineTest, AppliesToExactAndMergedRows) {
  Catalog catalog = PaperCatalog();
  engine::EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDataTriage;
  config.queue_capacity = 10;
  config.synopsis.type = synopsis::SynopsisType::kExact;
  const std::string query =
      "SELECT a, COUNT(*) AS n FROM R GROUP BY a HAVING n >= 100 "
      "WINDOW R['1 second']";
  // 150 tuples of a=1 and 30 of a=2, faster than capacity.
  std::vector<engine::StreamEvent> events;
  for (int i = 0; i < 180; ++i) {
    const int64_t a = i < 150 ? 1 : 2;
    events.push_back({"r", Row({a}, 0.1 + 1e-5 * i)});
  }
  const std::vector<engine::WindowResult> results =
      testing::RunSolo(catalog, query, config, events).results;
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].dropped_tuples, 0);
  // Merged: only group a=1 passes HAVING (150 >= 100); exact: the kept
  // subset is below the threshold, so the exact side reports nothing.
  ASSERT_EQ(results[0].merged_rows.size(), 1u);
  EXPECT_EQ(results[0].merged_rows[0].value(0).int64(), 1);
  EXPECT_NEAR(results[0].merged_rows[0].value(1).AsDouble(), 150.0,
              1e-9);
  EXPECT_TRUE(results[0].exact_rows.empty());
}

TEST(HavingEngineTest, IdealComputationAppliesHaving) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery bound = MustBind(
      "SELECT a, COUNT(*) AS n FROM R GROUP BY a HAVING n >= 2", catalog);
  std::vector<engine::StreamEvent> events = {
      {"r", Row({1}, 0.1)}, {"r", Row({1}, 0.2)}, {"r", Row({2}, 0.3)}};
  auto ideal = metrics::ComputeIdealResults(bound, events, 1.0);
  ASSERT_TRUE(ideal.ok());
  ASSERT_EQ(ideal->at(0).size(), 1u);
  EXPECT_EQ(ideal->at(0)[0].value(0).int64(), 1);
}

TEST(HavingEmitterTest, KeptViewRendersHaving) {
  Catalog catalog = PaperCatalog();
  auto triaged = rewrite::RewriteForDataTriage(MustBind(
      "SELECT b, COUNT(*) AS n FROM S GROUP BY b HAVING n > 5",
      catalog));
  ASSERT_TRUE(triaged.ok());
  auto view = rewrite::EmitKeptViewSql(*triaged);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_NE(view->find("HAVING (n > 5)"), std::string::npos) << *view;
}

}  // namespace
}  // namespace datatriage
