#include "src/synopsis/avi_histogram.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "src/common/random.h"
#include "src/common/serde.h"
#include "src/synopsis/grid_histogram.h"
#include "tests/test_util.h"

namespace datatriage::synopsis {
namespace {

using testing::Row;

Schema OneCol() { return Schema({{"a", FieldType::kInt64}}); }
Schema TwoCol() {
  return Schema({{"b", FieldType::kInt64}, {"c", FieldType::kInt64}});
}

SynopsisPtr MakeAvi(Schema schema, double width = 4.0) {
  auto made = AviHistogram::Make(std::move(schema), {width});
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return std::move(made).value();
}

TEST(AviHistogramTest, RejectsBadConfig) {
  EXPECT_FALSE(AviHistogram::Make(OneCol(), {0.0}).ok());
  EXPECT_FALSE(
      AviHistogram::Make(Schema({{"s", FieldType::kString}}), {4.0}).ok());
}

TEST(AviHistogramTest, MarginalsTrackInserts) {
  SynopsisPtr s = MakeAvi(TwoCol());
  s->Insert(Row({1, 9}));
  s->Insert(Row({2, 9}));
  EXPECT_DOUBLE_EQ(s->TotalCount(), 2.0);
  // 1 and 2 share a b-cell; both 9s share a c-cell: 1 + 1 cells.
  EXPECT_EQ(s->SizeInCells(), 2u);
}

TEST(AviHistogramTest, PointEstimateIsProductOfMarginals) {
  SynopsisPtr s = MakeAvi(TwoCol(), 4.0);
  // 8 tuples, all in b-cell [0,4) and c-cell [8,12).
  for (int i = 0; i < 8; ++i) s->Insert(Row({1, 9}));
  // share_b = 1, share_c = 1; per integer point 1/4 each dimension:
  // 8 * (1/4) * (1/4) = 0.5.
  EXPECT_DOUBLE_EQ(s->EstimatePointCount(Row({1, 9})), 0.5);
  EXPECT_DOUBLE_EQ(s->EstimatePointCount(Row({1, 50})), 0.0);
}

TEST(AviHistogramTest, IndependenceAssumptionLosesCorrelation) {
  // Perfectly correlated columns: (v, v) for v in two far-apart clusters.
  // The joint grid histogram keeps the diagonal structure; AVI smears
  // mass onto the off-diagonal combinations.
  SynopsisPtr avi = MakeAvi(TwoCol(), 4.0);
  auto grid = GridHistogram::Make(TwoCol(), {4.0});
  ASSERT_TRUE(grid.ok());
  for (int i = 0; i < 50; ++i) {
    avi->Insert(Row({10, 10}));
    (*grid)->Insert(Row({10, 10}));
    avi->Insert(Row({90, 90}));
    (*grid)->Insert(Row({90, 90}));
  }
  // Off-diagonal point (10, 90) never occurs.
  EXPECT_DOUBLE_EQ((*grid)->EstimatePointCount(Row({10, 90})), 0.0);
  EXPECT_GT(avi->EstimatePointCount(Row({10, 90})), 0.5);
}

TEST(AviHistogramTest, UnionAddsMarginalwise) {
  SynopsisPtr a = MakeAvi(OneCol());
  SynopsisPtr b = MakeAvi(OneCol());
  for (int i = 0; i < 10; ++i) a->Insert(Row({1}));
  for (int i = 0; i < 30; ++i) b->Insert(Row({9}));
  auto u = a->UnionAllWith(*b, nullptr);
  ASSERT_TRUE(u.ok());
  EXPECT_DOUBLE_EQ((*u)->TotalCount(), 40.0);
  EXPECT_FALSE(a->UnionAllWith(*MakeAvi(OneCol(), 2.0), nullptr).ok());
}

TEST(AviHistogramTest, EquiJoinEstimateOnUniformData) {
  SynopsisPtr a = MakeAvi(OneCol(), 4.0);
  SynopsisPtr b = MakeAvi(TwoCol(), 4.0);
  for (int64_t v = 0; v < 4; ++v) {
    a->Insert(Row({v}));
    b->Insert(Row({v, 10}));
  }
  auto joined = a->EquiJoinWith(*b, {{0, 0}}, nullptr);
  ASSERT_TRUE(joined.ok());
  // True join count 4; estimate 4*4/4 = 4 (single shared cell).
  EXPECT_NEAR((*joined)->TotalCount(), 4.0, 1e-9);
  EXPECT_EQ((*joined)->schema().num_fields(), 3u);
}

TEST(AviHistogramTest, JoinTotalsMatchGridOnSharedCellData) {
  // When all mass of the join columns lives in matching single cells the
  // two estimators agree on totals.
  Rng rng(3);
  SynopsisPtr avi_a = MakeAvi(OneCol(), 4.0);
  SynopsisPtr avi_b = MakeAvi(OneCol(), 4.0);
  auto grid_a = GridHistogram::Make(OneCol(), {4.0});
  auto grid_b = GridHistogram::Make(OneCol(), {4.0});
  ASSERT_TRUE(grid_a.ok());
  ASSERT_TRUE(grid_b.ok());
  for (int i = 0; i < 200; ++i) {
    Tuple ta = Row({rng.UniformInt(1, 40)});
    Tuple tb = Row({rng.UniformInt(1, 40)});
    avi_a->Insert(ta);
    (*grid_a)->Insert(ta);
    avi_b->Insert(tb);
    (*grid_b)->Insert(tb);
  }
  auto avi_join = avi_a->EquiJoinWith(*avi_b, {{0, 0}}, nullptr);
  auto grid_join = (*grid_a)->EquiJoinWith(**grid_b, {{0, 0}}, nullptr);
  ASSERT_TRUE(avi_join.ok());
  ASSERT_TRUE(grid_join.ok());
  // 1-D join: both estimators use per-cell products, so totals agree.
  EXPECT_NEAR((*avi_join)->TotalCount(), (*grid_join)->TotalCount(),
              1e-6);
}

TEST(AviHistogramTest, ProjectKeepsSelectedMarginals) {
  SynopsisPtr s = MakeAvi(TwoCol());
  s->Insert(Row({1, 9}));
  s->Insert(Row({2, 9}));
  auto p = s->ProjectColumns({1}, {"c"}, nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->schema().num_fields(), 1u);
  EXPECT_DOUBLE_EQ((*p)->TotalCount(), 2.0);
  EXPECT_FALSE(s->ProjectColumns({7}, {"x"}, nullptr).ok());
}

TEST(AviHistogramTest, SingleColumnFilterScalesOtherMarginals) {
  SynopsisPtr s = MakeAvi(TwoCol(), 4.0);
  for (int i = 0; i < 30; ++i) s->Insert(Row({1, 9}));
  for (int i = 0; i < 10; ++i) s->Insert(Row({50, 9}));
  auto pred = plan::BoundExpr::Binary(
      sql::BinaryOp::kLess, plan::BoundExpr::Column(0, FieldType::kInt64),
      plan::BoundExpr::Literal(Value::Int64(10)));
  auto f = s->Filter(*pred, nullptr);
  ASSERT_TRUE(f.ok());
  EXPECT_NEAR((*f)->TotalCount(), 30.0, 1e-9);
}

TEST(AviHistogramTest, MultiColumnFilterUnimplemented) {
  SynopsisPtr s = MakeAvi(TwoCol());
  s->Insert(Row({1, 2}));
  auto pred = plan::BoundExpr::Binary(
      sql::BinaryOp::kLess, plan::BoundExpr::Column(0, FieldType::kInt64),
      plan::BoundExpr::Column(1, FieldType::kInt64));
  EXPECT_EQ(s->Filter(*pred, nullptr).status().code(),
            StatusCode::kUnimplemented);
}

TEST(AviHistogramTest, EstimateGroupsPreservesMass) {
  Rng rng(5);
  SynopsisPtr s = MakeAvi(TwoCol(), 4.0);
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    s->Insert(Row({rng.UniformInt(1, 30), rng.UniformInt(1, 30)}));
  }
  auto groups = s->EstimateGroups({0}, {kCountOnlyColumn});
  ASSERT_TRUE(groups.ok());
  double mass = 0;
  for (const auto& [key, accs] : *groups) mass += accs[0].count;
  EXPECT_NEAR(mass, n, 1e-6);
}

TEST(AviHistogramTest, CloneIsIndependent) {
  SynopsisPtr s = MakeAvi(OneCol());
  s->Insert(Row({1}));
  SynopsisPtr c = s->Clone();
  c->Insert(Row({2}));
  EXPECT_DOUBLE_EQ(s->TotalCount(), 1.0);
  EXPECT_DOUBLE_EQ(c->TotalCount(), 2.0);
}

// ---------------------------------------------------------------------
// LoadState rejects snapshot bytes that would break the histogram, and
// replaces nothing when it does. The states are written field by field
// in SaveState's layout: cell width, marginal count, per marginal its
// cell count and (coordinate, mass) cells, then the total.

std::string AviState(double width, uint64_t marginals) {
  serde::Writer writer;
  writer.WriteDouble(width);
  writer.WriteU64(marginals);
  for (uint64_t d = 0; d < marginals; ++d) {
    writer.WriteU64(1);
    writer.WriteI64(0);
    writer.WriteDouble(1.0);
  }
  writer.WriteDouble(1.0);
  return writer.TakeBytes();
}

/// Loads `bytes` into a two-column histogram already holding two rows,
/// and checks a rejection left them in place.
Status LoadAvi(const std::string& bytes) {
  SynopsisPtr h = MakeAvi(TwoCol());
  h->Insert(Row({1, 2}));
  h->Insert(Row({5, 6}));
  serde::Reader reader(bytes);
  const Status status = h->LoadState(&reader);
  if (!status.ok()) EXPECT_DOUBLE_EQ(h->TotalCount(), 2.0);
  return status;
}

TEST(AviHistogramLoadStateTest, RejectsMarginalCountOtherThanSchema) {
  for (const uint64_t marginals : {0u, 1u, 3u}) {
    const Status status = LoadAvi(AviState(4.0, marginals));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << marginals << " marginal(s): " << status.ToString();
  }
}

TEST(AviHistogramLoadStateTest, RejectsNonFiniteOrNonPositiveWidth) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double width :
       {0.0, -0.0, -4.0, kInf, -kInf,
        std::numeric_limits<double>::quiet_NaN()}) {
    const Status status = LoadAvi(AviState(width, 2));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "width " << width << ": " << status.ToString();
  }
  EXPECT_FALSE(AviHistogram::Make(OneCol(), {kInf}).ok());
}

TEST(AviHistogramLoadStateTest, PristineStateRoundTrips) {
  SynopsisPtr h = MakeAvi(TwoCol());
  const std::string bytes = AviState(2.5, 2);
  serde::Reader reader(bytes);
  ASSERT_TRUE(h->LoadState(&reader).ok());
  serde::Writer resaved;
  h->SaveState(&resaved);
  EXPECT_EQ(resaved.bytes(), bytes);
}

}  // namespace
}  // namespace datatriage::synopsis
