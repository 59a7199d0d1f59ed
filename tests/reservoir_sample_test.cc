#include "src/synopsis/reservoir_sample.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/common/serde.h"
#include "src/tuple/serde.h"
#include "tests/test_util.h"

namespace datatriage::synopsis {
namespace {

using testing::Row;

Schema OneCol() { return Schema({{"a", FieldType::kInt64}}); }

SynopsisPtr MakeReservoir(size_t capacity, uint64_t seed = 1) {
  auto made = ReservoirSample::Make(OneCol(), {capacity, seed});
  EXPECT_TRUE(made.ok());
  return std::move(made).value();
}

TEST(ReservoirSampleTest, RejectsZeroCapacity) {
  EXPECT_FALSE(ReservoirSample::Make(OneCol(), {0, 1}).ok());
}

TEST(ReservoirSampleTest, UnderCapacityKeepsEverything) {
  SynopsisPtr s = MakeReservoir(10);
  for (int64_t v = 1; v <= 5; ++v) s->Insert(Row({v}));
  EXPECT_EQ(s->SizeInCells(), 5u);
  EXPECT_DOUBLE_EQ(s->TotalCount(), 5.0);
  EXPECT_DOUBLE_EQ(s->EstimatePointCount(Row({3})), 1.0);
}

TEST(ReservoirSampleTest, OverCapacityCapsSampleButTracksTotal) {
  SynopsisPtr s = MakeReservoir(8);
  for (int64_t v = 0; v < 100; ++v) s->Insert(Row({v % 10}));
  EXPECT_EQ(s->SizeInCells(), 8u);
  EXPECT_DOUBLE_EQ(s->TotalCount(), 100.0);
}

TEST(ReservoirSampleTest, ScaledWeightsSumToPopulation) {
  auto made = ReservoirSample::Make(OneCol(), {16, 42});
  ASSERT_TRUE(made.ok());
  auto* s = static_cast<ReservoirSample*>(made->get());
  for (int64_t v = 0; v < 1000; ++v) s->Insert(Row({v}));
  double total = 0;
  for (const WeightedRow& r : s->ScaledRows()) total += r.weight;
  EXPECT_NEAR(total, 1000.0, 1e-9);
}

TEST(ReservoirSampleTest, SamplingIsApproximatelyUniform) {
  // Insert 0..999 many times with different seeds; each value should be
  // kept a similar fraction of the time.
  int first_half_hits = 0, total_hits = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    auto made = ReservoirSample::Make(OneCol(), {32, seed});
    ASSERT_TRUE(made.ok());
    auto* s = static_cast<ReservoirSample*>(made->get());
    for (int64_t v = 0; v < 1000; ++v) s->Insert(Row({v}));
    for (const WeightedRow& r : s->ScaledRows()) {
      ++total_hits;
      if (r.tuple.value(0).int64() < 500) ++first_half_hits;
    }
  }
  // Expect ~50% from each half; tolerate sampling noise.
  const double frac =
      static_cast<double>(first_half_hits) / static_cast<double>(total_hits);
  EXPECT_NEAR(frac, 0.5, 0.06);
}

TEST(ReservoirSampleTest, GroupEstimateIsUnbiasedOnAverage) {
  // 70% of tuples have a=1, 30% a=2; averaged over seeds the grouped
  // count estimate should recover those proportions.
  double est_1 = 0, est_2 = 0;
  const int seeds = 40;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SynopsisPtr s = MakeReservoir(16, seed);
    for (int i = 0; i < 700; ++i) s->Insert(Row({1}));
    for (int i = 0; i < 300; ++i) s->Insert(Row({2}));
    auto groups = s->EstimateGroups({0}, {kCountOnlyColumn});
    ASSERT_TRUE(groups.ok());
    auto it1 = groups->find({Value::Int64(1)});
    auto it2 = groups->find({Value::Int64(2)});
    if (it1 != groups->end()) est_1 += it1->second[0].count;
    if (it2 != groups->end()) est_2 += it2->second[0].count;
  }
  EXPECT_NEAR(est_1 / seeds, 700.0, 120.0);
  EXPECT_NEAR(est_2 / seeds, 300.0, 120.0);
}

TEST(ReservoirSampleTest, JoinOfScaledSamples) {
  SynopsisPtr a = MakeReservoir(64, 7);
  SynopsisPtr b = MakeReservoir(64, 8);
  for (int64_t v = 1; v <= 20; ++v) {
    a->Insert(Row({v}));
    b->Insert(Row({v}));
  }
  // Under capacity, so the join is exact: 20 matches.
  auto joined = a->EquiJoinWith(*b, {{0, 0}}, nullptr);
  ASSERT_TRUE(joined.ok());
  EXPECT_DOUBLE_EQ((*joined)->TotalCount(), 20.0);
  EXPECT_EQ((*joined)->schema().num_fields(), 2u);
}

TEST(ReservoirSampleTest, UnionCombinesScaledRows) {
  SynopsisPtr a = MakeReservoir(4, 1);
  SynopsisPtr b = MakeReservoir(4, 2);
  for (int i = 0; i < 40; ++i) a->Insert(Row({1}));
  for (int i = 0; i < 60; ++i) b->Insert(Row({2}));
  auto u = a->UnionAllWith(*b, nullptr);
  ASSERT_TRUE(u.ok());
  EXPECT_NEAR((*u)->TotalCount(), 100.0, 1e-9);
}

TEST(ReservoirSampleTest, FilterAndProjectOperateOnSample) {
  SynopsisPtr s = MakeReservoir(64, 5);
  for (int64_t v = 1; v <= 10; ++v) s->Insert(Row({v}));
  auto pred = plan::BoundExpr::Binary(
      sql::BinaryOp::kLessEq, plan::BoundExpr::Column(0, FieldType::kInt64),
      plan::BoundExpr::Literal(Value::Int64(5)));
  auto f = s->Filter(*pred, nullptr);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ((*f)->TotalCount(), 5.0);
  auto p = s->ProjectColumns({0}, {"renamed"}, nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->schema().field(0).name, "renamed");
}

TEST(ReservoirSampleTest, DeterministicForFixedSeed) {
  SynopsisPtr a = MakeReservoir(8, 99);
  SynopsisPtr b = MakeReservoir(8, 99);
  for (int64_t v = 0; v < 500; ++v) {
    a->Insert(Row({v}));
    b->Insert(Row({v}));
  }
  auto ga = a->EstimateGroups({0}, {kCountOnlyColumn});
  auto gb = b->EstimateGroups({0}, {kCountOnlyColumn});
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(ga->size(), gb->size());
}

// ---------------------------------------------------------------------
// LoadState rejects restored rows that do not fit the schema, and
// replaces nothing when it does. The states are written field by field
// in SaveState's layout: capacity, seed, RNG engine, materialized flag,
// tuples seen, then the (row, weight) pairs.

std::string ReservoirState(const std::vector<Tuple>& rows) {
  serde::Writer writer;
  writer.WriteU64(8);
  writer.WriteU64(1);
  serde::SaveRngEngine(&writer, std::mt19937_64(1));
  writer.WriteBool(false);
  writer.WriteI64(static_cast<int64_t>(rows.size()));
  writer.WriteU64(rows.size());
  for (const Tuple& row : rows) {
    SaveTuple(&writer, row);
    writer.WriteDouble(1.0);
  }
  return writer.TakeBytes();
}

TEST(ReservoirSampleLoadStateTest, RejectsRowsThatDoNotFitTheSchema) {
  for (const Tuple& row :
       {Row({1, 2}), Row({}), Tuple({Value::String("x")})}) {
    SynopsisPtr s = MakeReservoir(8);
    s->Insert(Row({4}));
    const std::string bytes = ReservoirState({Row({1}), row});
    serde::Reader reader(bytes);
    const Status status = s->LoadState(&reader);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_DOUBLE_EQ(s->EstimatePointCount(Row({4})), 1.0);
  }
}

TEST(ReservoirSampleLoadStateTest, PristineStateRoundTrips) {
  SynopsisPtr s = MakeReservoir(8);
  const std::string bytes = ReservoirState({Row({1}), Row({2})});
  serde::Reader reader(bytes);
  ASSERT_TRUE(s->LoadState(&reader).ok());
  serde::Writer resaved;
  s->SaveState(&resaved);
  EXPECT_EQ(resaved.bytes(), bytes);
}

}  // namespace
}  // namespace datatriage::synopsis
