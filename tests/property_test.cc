// Cross-cutting property tests: randomized invariants that tie the
// subsystems together beyond what the per-module suites cover.

#include <gtest/gtest.h>

#include "src/exec/evaluator.h"
#include "src/rewrite/differential.h"
#include "src/sql/parser.h"
#include "src/synopsis/grid_histogram.h"
#include "tests/test_util.h"

namespace datatriage {
namespace {

using exec::ChannelKey;
using exec::Relation;
using exec::RelationProvider;
using plan::Channel;
using plan::LogicalPlan;
using plan::PlanPtr;
using testing::MustBind;
using testing::PaperCatalog;
using testing::RandomRelation;
using testing::RelationToString;
using testing::Row;
using testing::SameMultiset;

class PropertyTest : public ::testing::TestWithParam<uint64_t> {};

// ---------------------------------------------------------------------
// Hash join == nested-loop reference.
// ---------------------------------------------------------------------

Relation NestedLoopJoin(const Relation& left, const Relation& right,
                        size_t lk, size_t rk) {
  Relation out;
  for (const Tuple& l : left) {
    for (const Tuple& r : right) {
      if (l.value(lk) == r.value(rk)) out.push_back(l.Concat(r));
    }
  }
  return out;
}

TEST_P(PropertyTest, HashJoinMatchesNestedLoopReference) {
  Rng rng(GetParam());
  // Vary sizes so both build-side choices get exercised.
  const size_t left_size = static_cast<size_t>(rng.UniformInt(0, 60));
  const size_t right_size = static_cast<size_t>(rng.UniformInt(0, 60));
  Relation left = RandomRelation(&rng, left_size, 2, 1, 6);
  Relation right = RandomRelation(&rng, right_size, 1, 1, 6);

  RelationProvider inputs;
  inputs[ChannelKey{"s", Channel::kBase}] = left;
  inputs[ChannelKey{"t", Channel::kBase}] = right;
  PlanPtr l = LogicalPlan::StreamScan(
      "s", Channel::kBase,
      Schema({{"s.b", FieldType::kInt64}, {"s.c", FieldType::kInt64}}));
  PlanPtr r = LogicalPlan::StreamScan(
      "t", Channel::kBase, Schema({{"t.d", FieldType::kInt64}}));
  auto join = LogicalPlan::Join(l, r, {{1, 0}});
  ASSERT_TRUE(join.ok());
  auto result = exec::EvaluatePlan(**join, inputs);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(SameMultiset(*result, NestedLoopJoin(left, right, 1, 0)))
      << RelationToString(*result);
}

// ---------------------------------------------------------------------
// Grid-histogram algebra: mass conservation and bilinearity — the
// identities the Data Triage merge relies on (estimate(all) =
// estimate(kept parts) + estimate(cross terms) + ...).
// ---------------------------------------------------------------------

synopsis::SynopsisPtr GridOf(const Relation& rows, size_t cols,
                             double width = 4.0) {
  std::vector<Field> fields;
  for (size_t i = 0; i < cols; ++i) {
    fields.push_back({"c" + std::to_string(i), FieldType::kInt64});
  }
  auto made =
      synopsis::GridHistogram::Make(Schema(std::move(fields)), {width});
  DT_CHECK(made.ok());
  for (const Tuple& t : rows) (*made)->Insert(t);
  return std::move(made).value();
}

TEST_P(PropertyTest, GridUnionAndProjectConserveMass) {
  Rng rng(GetParam());
  Relation a = RandomRelation(&rng, 80, 2, 1, 50);
  Relation b = RandomRelation(&rng, 40, 2, 1, 50);
  auto ga = GridOf(a, 2);
  auto gb = GridOf(b, 2);
  auto merged = ga->UnionAllWith(*gb, nullptr);
  ASSERT_TRUE(merged.ok());
  EXPECT_NEAR((*merged)->TotalCount(), 120.0, 1e-9);
  auto projected = (*merged)->ProjectColumns({1}, {"c1"}, nullptr);
  ASSERT_TRUE(projected.ok());
  EXPECT_NEAR((*projected)->TotalCount(), 120.0, 1e-9);
}

TEST_P(PropertyTest, GridJoinEstimateIsBilinear) {
  // est((A ∪ B) ⋈ C) == est(A ⋈ C) + est(B ⋈ C): the identity that makes
  // "estimate of everything" decompose into kept/dropped cross terms.
  Rng rng(GetParam());
  Relation a = RandomRelation(&rng, 50, 1, 1, 30);
  Relation b = RandomRelation(&rng, 30, 1, 1, 30);
  Relation c = RandomRelation(&rng, 40, 2, 1, 30);
  auto ga = GridOf(a, 1);
  auto gb = GridOf(b, 1);
  auto gc = GridOf(c, 2);
  auto gab = ga->UnionAllWith(*gb, nullptr);
  ASSERT_TRUE(gab.ok());

  auto joint = (*gab)->EquiJoinWith(*gc, {{0, 0}}, nullptr);
  auto part_a = ga->EquiJoinWith(*gc, {{0, 0}}, nullptr);
  auto part_b = gb->EquiJoinWith(*gc, {{0, 0}}, nullptr);
  ASSERT_TRUE(joint.ok());
  ASSERT_TRUE(part_a.ok());
  ASSERT_TRUE(part_b.ok());
  EXPECT_NEAR((*joint)->TotalCount(),
              (*part_a)->TotalCount() + (*part_b)->TotalCount(), 1e-6);
}

TEST_P(PropertyTest, GridGroupEstimateMassMatchesTotal) {
  Rng rng(GetParam());
  Relation rows = RandomRelation(&rng, 120, 2, 1, 40);
  auto grid = GridOf(rows, 2);
  auto groups =
      grid->EstimateGroups({0}, {synopsis::kCountOnlyColumn, 1});
  ASSERT_TRUE(groups.ok());
  double count_mass = 0, sum_mass = 0, direct_sum = 0;
  for (const auto& [key, accs] : *groups) {
    count_mass += accs[0].count;
    sum_mass += accs[1].sum;
  }
  for (const Tuple& t : rows) direct_sum += t.value(1).AsDouble();
  EXPECT_NEAR(count_mass, 120.0, 1e-6);
  // SUM estimates use cell midpoints: allow half-cell-width error per row.
  EXPECT_NEAR(sum_mass, direct_sum, 120.0 * 2.0 + 1e-6);
}

// ---------------------------------------------------------------------
// Differential rewrite: the noisy plan is exactly the kept-retargeted
// plan (so Q_kept needs no separate derivation).
// ---------------------------------------------------------------------

TEST_P(PropertyTest, NoisyPlanEqualsKeptRetarget) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery bound = MustBind(testing::kPaperQuery, catalog);
  auto differential = rewrite::DifferentialRewrite(bound.spj_core);
  auto kept = rewrite::RetargetScans(bound.spj_core, Channel::kKept);
  ASSERT_TRUE(differential.ok());
  ASSERT_TRUE(kept.ok());

  Rng rng(GetParam());
  RelationProvider inputs;
  inputs[ChannelKey{"r", Channel::kKept}] =
      RandomRelation(&rng, 30, 1, 1, 6);
  inputs[ChannelKey{"s", Channel::kKept}] =
      RandomRelation(&rng, 30, 2, 1, 6);
  inputs[ChannelKey{"t", Channel::kKept}] =
      RandomRelation(&rng, 30, 1, 1, 6);
  auto from_noisy = exec::EvaluatePlan(*differential->noisy, inputs);
  auto from_kept = exec::EvaluatePlan(**kept, inputs);
  ASSERT_TRUE(from_noisy.ok());
  ASSERT_TRUE(from_kept.ok());
  EXPECT_TRUE(SameMultiset(*from_noisy, *from_kept));
}

// ---------------------------------------------------------------------
// Engine conservation: every ingested tuple is either kept or dropped,
// and each window's accounting matches its arrivals (tumbling).
// ---------------------------------------------------------------------

TEST_P(PropertyTest, EngineConservesTuplesAcrossStrategies) {
  Catalog catalog = PaperCatalog();
  Rng rng(GetParam());
  std::vector<engine::StreamEvent> events;
  std::map<WindowId, int64_t> arrivals_per_window;
  double t = 0.0;
  for (int i = 0; i < 800; ++i) {
    t += rng.Exponential(700.0);  // overload
    events.push_back({"r", Row({rng.UniformInt(1, 9)}, t)});
    arrivals_per_window[WindowIdFor(t, 1.0)] += 1;
  }
  for (triage::SheddingStrategy strategy :
       {triage::SheddingStrategy::kDropOnly,
        triage::SheddingStrategy::kSummarizeOnly,
        triage::SheddingStrategy::kDataTriage}) {
    engine::EngineConfig config;
    config.strategy = strategy;
    config.queue_capacity = 25;
    const testing::SoloRun run = testing::RunSolo(
        catalog, "SELECT a, COUNT(*) AS n FROM R GROUP BY a", config, events);
    const engine::EngineStats& stats = run.stats;
    EXPECT_EQ(stats.tuples_ingested,
              stats.tuples_kept + stats.tuples_dropped)
        << triage::SheddingStrategyToString(strategy);
    for (const engine::WindowResult& r : run.results) {
      EXPECT_EQ(r.kept_tuples + r.dropped_tuples,
                arrivals_per_window[r.window])
          << "strategy "
          << triage::SheddingStrategyToString(strategy) << " window "
          << r.window;
    }
  }
}

// ---------------------------------------------------------------------
// Parser robustness: mutated query text never crashes the front end.
// ---------------------------------------------------------------------

TEST_P(PropertyTest, ParserSurvivesMutatedQueries) {
  Rng rng(GetParam());
  const std::string base = testing::kPaperQuery;
  const char mutations[] =
      "()[]',;.*/+-<>=_abcXYZ0123456789 \t\n\"";
  for (int round = 0; round < 200; ++round) {
    std::string text = base;
    const int edits = static_cast<int>(rng.UniformInt(1, 6));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:  // replace
          text[pos] = mutations[rng.UniformInt(
              0, static_cast<int64_t>(sizeof(mutations)) - 2)];
          break;
        case 1:  // delete
          text.erase(pos, 1);
          break;
        default:  // insert
          text.insert(pos, 1,
                      mutations[rng.UniformInt(
                          0, static_cast<int64_t>(sizeof(mutations)) -
                                 2)]);
          break;
      }
      if (text.empty()) text = "x";
    }
    // Must terminate and return either a statement or an error — and if
    // it parses, binding must also terminate cleanly.
    auto stmt = sql::ParseStatement(text);
    if (stmt.ok()) {
      Catalog catalog = PaperCatalog();
      auto bound = plan::BindStatement(*stmt, catalog);
      (void)bound;  // any Status is acceptable; crashing is not
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace datatriage
