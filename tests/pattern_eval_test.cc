// Differential and edge-case tests for the MATCH pattern executor
// (DESIGN.md §17): the NFA-style matcher in src/exec/pattern_eval.cc must
// agree row-for-row (content *and* emission order) with the brute-force
// O(n^k) reference over randomized windows, and must handle the WITHIN
// boundary, key collisions, batch-spanning matches, and empty windows
// exactly.

#include "src/exec/pattern_eval.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/catalog/catalog.h"
#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/exec/evaluator.h"
#include "src/exec/relation.h"
#include "src/plan/binder.h"
#include "src/server/stream_server.h"
#include "src/sql/parser.h"
#include "tests/test_util.h"

namespace datatriage {
namespace {

using exec::Relation;

/// Test stream: key partitions, v and w carry the step predicates.
Catalog PatternCatalog() {
  Catalog catalog;
  DT_CHECK(catalog
               .RegisterStream({"e", Schema({{"key", FieldType::kInt64},
                                             {"v", FieldType::kInt64},
                                             {"w", FieldType::kInt64}})})
               .ok());
  return catalog;
}

/// Binds a MATCH query and returns its kPattern plan node.
plan::PlanPtr BindPattern(const std::string& match_clause,
                          const Catalog& catalog) {
  const std::string sql =
      "SELECT * FROM e MATCH " + match_clause + " WINDOW e['10 seconds']";
  plan::BoundQuery bound = testing::MustBind(sql, catalog);
  DT_CHECK(bound.is_pattern());
  return bound.pattern_node;
}

/// Runs the NFA matcher and materializes its output.
Relation RunNfa(const plan::LogicalPlan& plan, const Relation& input) {
  exec::ExecStats stats;
  return std::move(exec::EvaluatePattern(
                       plan, exec::RelationView::Borrow(input), &stats))
      .Materialize();
}

/// Ordered equality with a readable failure message.
void ExpectSameRows(const Relation& nfa, const Relation& brute,
                    const std::string& context) {
  ASSERT_EQ(nfa.size(), brute.size())
      << context << "\n  nfa:   " << testing::RelationToString(nfa)
      << "\n  brute: " << testing::RelationToString(brute);
  for (size_t i = 0; i < nfa.size(); ++i) {
    EXPECT_TRUE(nfa[i] == brute[i] &&
                nfa[i].timestamp() == brute[i].timestamp())
        << context << ": row " << i << " differs\n  nfa:   "
        << nfa[i].ToString() << "\n  brute: " << brute[i].ToString();
  }
}

/// Seed-derived random window: keys from a small domain so collisions and
/// multi-partial interleavings are routine, non-decreasing timestamps.
Relation RandomWindow(Rng* rng) {
  const size_t n = static_cast<size_t>(rng->UniformInt(0, 28));
  const int64_t key_domain = rng->UniformInt(1, 4);
  Relation window;
  window.reserve(n);
  double ts = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ts += 0.1 * static_cast<double>(rng->UniformInt(0, 12));
    window.push_back(testing::Row({rng->UniformInt(0, key_domain - 1),
                                   rng->UniformInt(0, 4),
                                   rng->UniformInt(0, 4)},
                                  ts));
  }
  return window;
}

/// Seed-derived random 2–3 step MATCH clause over v / w.
std::string RandomMatchClause(Rng* rng) {
  const size_t k = static_cast<size_t>(rng->UniformInt(2, 3));
  std::string clause = "(";
  for (size_t j = 0; j < k; ++j) {
    if (j > 0) clause += " THEN ";
    const char* column = rng->Bernoulli(0.5) ? "v" : "w";
    switch (rng->UniformInt(0, 2)) {
      case 0:
        clause += StringPrintf("%s >= %lld", column,
                               static_cast<long long>(
                                   rng->UniformInt(1, 3)));
        break;
      case 1:
        clause += StringPrintf("%s < %lld", column,
                               static_cast<long long>(
                                   rng->UniformInt(2, 4)));
        break;
      default:
        clause += StringPrintf("%s = %lld", column,
                               static_cast<long long>(
                                   rng->UniformInt(0, 4)));
        break;
    }
  }
  static constexpr const char* kWithin[] = {"'0.5 seconds'", "'1 seconds'",
                                            "'2.5 seconds'",
                                            "'100 seconds'"};
  clause += StringPrintf(") PARTITION BY key WITHIN %s",
                         kWithin[rng->UniformInt(0, 3)]);
  return clause;
}

// The tentpole property: on 600 seeded (pattern, window) draws the NFA
// and the brute-force reference emit identical rows in identical order.
TEST(PatternEvalProperty, NfaMatchesBruteForceOnRandomWindows) {
  const Catalog catalog = PatternCatalog();
  for (uint64_t seed = 1; seed <= 600; ++seed) {
    Rng rng(seed);
    const std::string clause = RandomMatchClause(&rng);
    const plan::PlanPtr plan = BindPattern(clause, catalog);
    const Relation window = RandomWindow(&rng);
    const Relation nfa = RunNfa(*plan, window);
    const Relation brute = exec::EvaluatePatternBruteForce(*plan, window);
    ExpectSameRows(nfa, brute,
                   StringPrintf("seed %llu, MATCH %s, %zu tuple(s)",
                                static_cast<unsigned long long>(seed),
                                clause.c_str(), window.size()));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PatternEvalEdge, EmptyWindowEmitsNothing) {
  const Catalog catalog = PatternCatalog();
  const plan::PlanPtr plan = BindPattern(
      "(v >= 1 THEN v < 3) PARTITION BY key WITHIN '5 seconds'", catalog);
  const Relation empty;
  EXPECT_TRUE(RunNfa(*plan, empty).empty());
  EXPECT_TRUE(exec::EvaluatePatternBruteForce(*plan, empty).empty());
}

// The WITHIN check is inclusive: a span of exactly `within` seconds
// matches, one tick past it expires the partial.
TEST(PatternEvalEdge, WithinBoundaryIsInclusive) {
  const Catalog catalog = PatternCatalog();
  const plan::PlanPtr plan = BindPattern(
      "(v = 1 THEN v = 2) PARTITION BY key WITHIN '2 seconds'", catalog);

  const Relation exact = {testing::Row({7, 1, 0}, 1.0),
                          testing::Row({7, 2, 0}, 3.0)};
  const Relation rows = RunNfa(*plan, exact);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].value(0) == Value::Int64(7));
  EXPECT_EQ(rows[0].value(1).AsDouble(), 1.0);
  EXPECT_EQ(rows[0].value(2).AsDouble(), 3.0);

  const Relation expired = {testing::Row({7, 1, 0}, 1.0),
                            testing::Row({7, 2, 0}, 3.0 + 1e-9)};
  EXPECT_TRUE(RunNfa(*plan, expired).empty());
  EXPECT_TRUE(exec::EvaluatePatternBruteForce(*plan, expired).empty());
}

// Tuples under different partition keys never combine, even when they
// interleave tightly and each key alone completes the pattern.
TEST(PatternEvalEdge, KeyCollisionsStayPartitioned) {
  const Catalog catalog = PatternCatalog();
  const plan::PlanPtr plan = BindPattern(
      "(v = 1 THEN v = 2 THEN v = 3) PARTITION BY key WITHIN "
      "'10 seconds'",
      catalog);
  // Keys 1 and 2 interleave: 1:v1, 2:v1, 1:v2, 2:v2, 1:v3, 2:v3.
  Relation window;
  for (int step = 1; step <= 3; ++step) {
    for (int64_t key = 1; key <= 2; ++key) {
      window.push_back(testing::Row(
          {key, step, 0}, static_cast<double>(window.size())));
    }
  }
  const Relation nfa = RunNfa(*plan, window);
  const Relation brute = exec::EvaluatePatternBruteForce(*plan, window);
  ExpectSameRows(nfa, brute, "interleaved keys");
  ASSERT_EQ(nfa.size(), 2u);  // one match per key, no cross-key rows
  EXPECT_FALSE(nfa[0].value(0) == nfa[1].value(0));
}

// A match whose steps arrive in different PushBatch chunks must still be
// found: batching is a transport detail, the window is the match scope.
TEST(PatternEvalEdge, MatchSpansPushBatchChunks) {
  const Catalog catalog = PatternCatalog();
  engine::EngineConfig config;
  config.queue_capacity = 64;
  server::StreamServer server(catalog);
  auto id = server.RegisterQuery(
      "SELECT * FROM e MATCH (v = 1 THEN v = 2) PARTITION BY key WITHIN "
      "'5 seconds' WINDOW e['10 seconds']",
      config);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  const std::vector<engine::StreamEvent> chunk1 = {
      {"e", testing::Row({5, 1, 0}, 1.0)},
      {"e", testing::Row({5, 0, 0}, 2.0)}};
  const std::vector<engine::StreamEvent> chunk2 = {
      {"e", testing::Row({5, 2, 0}, 3.0)}};
  const Status push1 = server.PushBatch(chunk1);
  ASSERT_TRUE(push1.ok()) << push1.ToString();
  const Status push2 = server.PushBatch(chunk2);
  ASSERT_TRUE(push2.ok()) << push2.ToString();
  const Status finish = server.Finish();
  ASSERT_TRUE(finish.ok()) << finish.ToString();

  const std::vector<engine::WindowResult> results =
      server.session(*id).TakeResults();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].exact_rows.size(), 1u);
  const Tuple& row = results[0].exact_rows[0];
  EXPECT_TRUE(row.value(0) == Value::Int64(5));
  EXPECT_EQ(row.value(1).AsDouble(), 1.0);
  EXPECT_EQ(row.value(2).AsDouble(), 3.0);
}

// Sanity on emission order for a known multi-match window: ascending by
// the reversed index sequence (completions in arrival order).
TEST(PatternEvalEdge, EmitsInCreationOrder) {
  const Catalog catalog = PatternCatalog();
  const plan::PlanPtr plan = BindPattern(
      "(v = 1 THEN v = 2) PARTITION BY key WITHIN '100 seconds'",
      catalog);
  const Relation window = {
      testing::Row({1, 1, 0}, 0.0),   // first-step partial A
      testing::Row({1, 1, 0}, 1.0),   // first-step partial B
      testing::Row({1, 2, 0}, 2.0),   // completes A then B
      testing::Row({1, 2, 0}, 3.0)};  // completes A then B again
  const Relation nfa = RunNfa(*plan, window);
  const Relation brute = exec::EvaluatePatternBruteForce(*plan, window);
  ExpectSameRows(nfa, brute, "creation order");
  ASSERT_EQ(nfa.size(), 4u);
  EXPECT_EQ(nfa[0].value(1).AsDouble(), 0.0);
  EXPECT_EQ(nfa[0].value(2).AsDouble(), 2.0);
  EXPECT_EQ(nfa[1].value(1).AsDouble(), 1.0);
  EXPECT_EQ(nfa[1].value(2).AsDouble(), 2.0);
  EXPECT_EQ(nfa[2].value(1).AsDouble(), 0.0);
  EXPECT_EQ(nfa[2].value(2).AsDouble(), 3.0);
  EXPECT_EQ(nfa[3].value(1).AsDouble(), 1.0);
  EXPECT_EQ(nfa[3].value(2).AsDouble(), 3.0);
}

}  // namespace
}  // namespace datatriage
