// ORDER BY / LIMIT: per-window result ordering and top-k truncation.

#include <gtest/gtest.h>

#include "src/rewrite/sql_emitter.h"
#include "tests/test_util.h"

namespace datatriage {
namespace {

using engine::EngineConfig;
using engine::StreamEvent;
using engine::WindowResult;
using testing::MustBind;
using testing::PaperCatalog;
using testing::Row;

TEST(OrderLimitParserTest, ParsesDirectionAndLimit) {
  auto stmt = sql::ParseStatement(
      "SELECT b, COUNT(*) AS n FROM S GROUP BY b "
      "ORDER BY n DESC, b LIMIT 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->select->order_by.size(), 2u);
  EXPECT_TRUE(stmt->select->order_by[0].descending);
  EXPECT_FALSE(stmt->select->order_by[1].descending);
  EXPECT_EQ(stmt->select->limit, 5);
  auto reparsed = sql::ParseStatement(stmt->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(stmt->ToString(), reparsed->ToString());
}

TEST(OrderLimitParserTest, AscIsAcceptedAndDefault) {
  auto stmt =
      sql::ParseStatement("SELECT a FROM R ORDER BY a ASC LIMIT 0");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(stmt->select->order_by[0].descending);
  EXPECT_EQ(stmt->select->limit, 0);
}

TEST(OrderLimitBinderTest, BindsAgainstOutputColumns) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery bound = MustBind(
      "SELECT b, COUNT(*) AS n FROM S GROUP BY b ORDER BY n DESC LIMIT 3",
      catalog);
  ASSERT_EQ(bound.sort_keys.size(), 1u);
  EXPECT_EQ(bound.sort_keys[0].first, 1u);  // "n" is output column 1
  EXPECT_TRUE(bound.sort_keys[0].second);
  EXPECT_EQ(bound.limit, 3);
}

TEST(OrderLimitBinderTest, UnknownOutputColumnRejected) {
  Catalog catalog = PaperCatalog();
  auto stmt = sql::ParseStatement("SELECT a FROM R ORDER BY zzz");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(plan::BindStatement(*stmt, catalog).status().code(),
            StatusCode::kBindError);
}

TEST(OrderLimitEngineTest, TopKPerWindow) {
  // Classic monitoring query: top-2 busiest groups per window.
  Catalog catalog = PaperCatalog();
  EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDataTriage;
  config.synopsis.type = synopsis::SynopsisType::kExact;
  const std::string query =
      "SELECT a, COUNT(*) AS n FROM R GROUP BY a "
      "ORDER BY n DESC, a LIMIT 2 WINDOW R['1 second']";
  // Window 0: a=1 x5, a=2 x3, a=3 x1.
  std::vector<StreamEvent> events;
  auto push = [&](int64_t a, int copies) {
    for (int c = 0; c < copies; ++c) {
      const double t = 0.1 + 1e-4 * static_cast<double>(events.size());
      events.push_back({"r", Row({a}, t)});
    }
  };
  push(1, 5);
  push(2, 3);
  push(3, 1);
  const std::vector<WindowResult> results =
      testing::RunSolo(catalog, query, config, events).results;
  ASSERT_EQ(results.size(), 1u);
  const auto& rows = results[0].merged_rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].value(0).int64(), 1);  // busiest first
  EXPECT_EQ(rows[1].value(0).int64(), 2);
  ASSERT_EQ(results[0].exact_rows.size(), 2u);
}

TEST(OrderLimitEngineTest, TieBreaksAreStableAcrossKeys) {
  Catalog catalog = PaperCatalog();
  EngineConfig config;
  config.strategy = triage::SheddingStrategy::kDropOnly;
  const std::string query =
      "SELECT a, COUNT(*) AS n FROM R GROUP BY a "
      "ORDER BY n DESC, a DESC WINDOW R['1 second']";
  std::vector<StreamEvent> events;
  for (int i = 0; i < 4; ++i) {
    events.push_back(
        {"r", Row({static_cast<int64_t>(i % 2 + 1)}, 0.1 + 1e-4 * i)});
  }
  const std::vector<WindowResult> results =
      testing::RunSolo(catalog, query, config, events).results;
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].merged_rows.size(), 2u);
  // Equal counts (2 each): secondary key a DESC puts 2 first.
  EXPECT_EQ(results[0].merged_rows[0].value(0).int64(), 2);
  EXPECT_EQ(results[0].merged_rows[1].value(0).int64(), 1);
}

TEST(OrderLimitBinderTest, SetOpBranchesRejectOrderLimit) {
  Catalog catalog = PaperCatalog();
  auto stmt = sql::ParseStatement(
      "(SELECT a FROM R ORDER BY a) UNION ALL (SELECT d FROM T)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(plan::BindStatement(*stmt, catalog).status().code(),
            StatusCode::kBindError);
}

TEST(OrderLimitEmitterTest, KeptViewRendersOrderAndLimit) {
  Catalog catalog = PaperCatalog();
  auto triaged = rewrite::RewriteForDataTriage(MustBind(
      "SELECT b, COUNT(*) AS n FROM S GROUP BY b ORDER BY n DESC LIMIT 7",
      catalog));
  ASSERT_TRUE(triaged.ok());
  auto view = rewrite::EmitKeptViewSql(*triaged);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_NE(view->find("ORDER BY n DESC"), std::string::npos) << *view;
  EXPECT_NE(view->find("LIMIT 7"), std::string::npos) << *view;
}

}  // namespace
}  // namespace datatriage
