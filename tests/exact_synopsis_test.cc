#include "src/synopsis/exact_synopsis.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/serde.h"
#include "src/synopsis/grid_histogram.h"
#include "src/tuple/serde.h"
#include "tests/test_util.h"

namespace datatriage::synopsis {
namespace {

using testing::Row;

Schema OneCol() { return Schema({{"a", FieldType::kInt64}}); }
Schema TwoCol() {
  return Schema({{"b", FieldType::kInt64}, {"c", FieldType::kInt64}});
}

SynopsisPtr MakeExact(Schema schema) {
  auto made = ExactSynopsis::Make(std::move(schema));
  EXPECT_TRUE(made.ok());
  return std::move(made).value();
}

TEST(ExactSynopsisTest, InsertAndCount) {
  SynopsisPtr s = MakeExact(OneCol());
  s->Insert(Row({1}));
  s->Insert(Row({1}));
  EXPECT_DOUBLE_EQ(s->TotalCount(), 2.0);
  EXPECT_DOUBLE_EQ(s->EstimatePointCount(Row({1})), 2.0);
  EXPECT_DOUBLE_EQ(s->EstimatePointCount(Row({2})), 0.0);
}

TEST(ExactSynopsisTest, WeightedRows) {
  auto made = ExactSynopsis::Make(OneCol());
  ASSERT_TRUE(made.ok());
  auto* s = static_cast<ExactSynopsis*>(made->get());
  s->AddRow(Row({5}), 2.5);
  s->AddRow(Row({5}), -1.0);  // non-positive weights ignored
  EXPECT_DOUBLE_EQ(s->TotalCount(), 2.5);
}

TEST(ExactSynopsisTest, EquiJoinIsExact) {
  SynopsisPtr r = MakeExact(OneCol());
  SynopsisPtr s = MakeExact(TwoCol());
  r->Insert(Row({1}));
  r->Insert(Row({2}));
  s->Insert(Row({1, 10}));
  s->Insert(Row({1, 20}));
  auto joined = r->EquiJoinWith(*s, {{0, 0}}, nullptr);
  ASSERT_TRUE(joined.ok());
  EXPECT_DOUBLE_EQ((*joined)->TotalCount(), 2.0);
  EXPECT_DOUBLE_EQ((*joined)->EstimatePointCount(Row({1, 1, 10})), 1.0);
  EXPECT_DOUBLE_EQ((*joined)->EstimatePointCount(Row({2, 1, 10})), 0.0);
}

TEST(ExactSynopsisTest, UnionProjectFilter) {
  SynopsisPtr a = MakeExact(TwoCol());
  SynopsisPtr b = MakeExact(TwoCol());
  a->Insert(Row({1, 10}));
  b->Insert(Row({2, 20}));
  auto u = a->UnionAllWith(*b, nullptr);
  ASSERT_TRUE(u.ok());
  EXPECT_DOUBLE_EQ((*u)->TotalCount(), 2.0);

  auto p = (*u)->ProjectColumns({1}, {"c"}, nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ((*p)->EstimatePointCount(Row({10})), 1.0);

  auto pred = plan::BoundExpr::Binary(
      sql::BinaryOp::kGreater, plan::BoundExpr::Column(0, FieldType::kInt64),
      plan::BoundExpr::Literal(Value::Int64(1)));
  auto f = (*u)->Filter(*pred, nullptr);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ((*f)->TotalCount(), 1.0);
}

TEST(ExactSynopsisTest, TypeMismatchRejected) {
  SynopsisPtr exact = MakeExact(OneCol());
  auto grid = GridHistogram::Make(OneCol(), {4.0});
  ASSERT_TRUE(grid.ok());
  EXPECT_FALSE(exact->UnionAllWith(**grid, nullptr).ok());
  EXPECT_FALSE(exact->EquiJoinWith(**grid, {{0, 0}}, nullptr).ok());
}

TEST(ExactSynopsisTest, EstimateGroupsMatchesManualAggregation) {
  SynopsisPtr s = MakeExact(TwoCol());
  s->Insert(Row({1, 10}));
  s->Insert(Row({1, 30}));
  s->Insert(Row({2, 5}));
  auto groups = s->EstimateGroups({0}, {kCountOnlyColumn, 1});
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 2u);
  const auto& g1 = groups->at({Value::Int64(1)});
  EXPECT_DOUBLE_EQ(g1[0].count, 2.0);
  EXPECT_DOUBLE_EQ(g1[1].sum, 40.0);
  EXPECT_DOUBLE_EQ(g1[1].min, 10.0);
  EXPECT_DOUBLE_EQ(g1[1].max, 30.0);
  const auto& g2 = groups->at({Value::Int64(2)});
  EXPECT_DOUBLE_EQ(g2[0].count, 1.0);
  EXPECT_DOUBLE_EQ(g2[1].sum, 5.0);
}

TEST(AggAccumulatorTest, AddAndMerge) {
  AggAccumulator a;
  a.Add(10.0, 2.0);
  a.Add(0.0, 0.0);  // zero weight ignored
  EXPECT_DOUBLE_EQ(a.count, 2.0);
  EXPECT_DOUBLE_EQ(a.sum, 20.0);
  EXPECT_DOUBLE_EQ(a.min, 10.0);

  AggAccumulator b;
  b.Add(5.0, 1.0);
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.count, 3.0);
  EXPECT_DOUBLE_EQ(a.sum, 25.0);
  EXPECT_DOUBLE_EQ(a.min, 5.0);
  EXPECT_DOUBLE_EQ(a.max, 10.0);
}

// ---------------------------------------------------------------------
// LoadState rejects restored rows that do not fit the schema, and
// replaces nothing when it does. The states are written field by field
// in SaveState's layout: the executor flag, then the (row, weight) pairs.

std::string ExactState(const std::vector<Tuple>& rows) {
  serde::Writer writer;
  writer.WriteBool(true);
  writer.WriteU64(rows.size());
  for (const Tuple& row : rows) {
    SaveTuple(&writer, row);
    writer.WriteDouble(1.0);
  }
  return writer.TakeBytes();
}

TEST(ExactSynopsisLoadStateTest, RejectsRowsThatDoNotFitTheSchema) {
  for (const Tuple& row :
       {Row({1}), Row({1, 2, 3}),
        Tuple({Value::Int64(1), Value::String("x")})}) {
    SynopsisPtr s = MakeExact(TwoCol());
    s->Insert(Row({4, 5}));
    const std::string bytes = ExactState({Row({1, 2}), row});
    serde::Reader reader(bytes);
    const Status status = s->LoadState(&reader);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_DOUBLE_EQ(s->EstimatePointCount(Row({4, 5})), 1.0);
  }
}

TEST(ExactSynopsisLoadStateTest, PristineStateRoundTrips) {
  SynopsisPtr s = MakeExact(TwoCol());
  const std::string bytes = ExactState({Row({1, 2}), Row({3, 4})});
  serde::Reader reader(bytes);
  ASSERT_TRUE(s->LoadState(&reader).ok());
  serde::Writer resaved;
  s->SaveState(&resaved);
  EXPECT_EQ(resaved.bytes(), bytes);
}

}  // namespace
}  // namespace datatriage::synopsis
