#include "src/synopsis/mhist.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/serde.h"
#include "src/tuple/serde.h"
#include "tests/test_util.h"

namespace datatriage::synopsis {
namespace {

using testing::Row;

Schema OneCol() { return Schema({{"a", FieldType::kInt64}}); }
Schema TwoCol() {
  return Schema({{"b", FieldType::kInt64}, {"c", FieldType::kInt64}});
}

SynopsisPtr MakeMHist(Schema schema, size_t max_buckets = 16,
                      bool aligned = false, double step = 4.0) {
  auto made = MHist::Make(std::move(schema), {max_buckets, aligned, step});
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return std::move(made).value();
}

TEST(MHistTest, RejectsBadConfig) {
  EXPECT_FALSE(MHist::Make(OneCol(), {0, false, 4.0}).ok());
  EXPECT_FALSE(MHist::Make(OneCol(), {8, true, 0.0}).ok());
  EXPECT_FALSE(
      MHist::Make(Schema({{"s", FieldType::kString}}), {8, false, 4.0})
          .ok());
}

TEST(MHistTest, TypeReflectsAlignment) {
  EXPECT_EQ(MakeMHist(OneCol(), 8, false)->type(), SynopsisType::kMHist);
  EXPECT_EQ(MakeMHist(OneCol(), 8, true)->type(),
            SynopsisType::kAlignedMHist);
}

TEST(MHistTest, EmptyHistogramHasNoBuckets) {
  SynopsisPtr h = MakeMHist(OneCol());
  EXPECT_DOUBLE_EQ(h->TotalCount(), 0.0);
  EXPECT_EQ(h->SizeInCells(), 0u);
}

TEST(MHistTest, BuildRespectsBucketBudget) {
  Rng rng(3);
  SynopsisPtr h = MakeMHist(TwoCol(), 8);
  for (int i = 0; i < 500; ++i) {
    h->Insert(Row({rng.UniformInt(1, 100), rng.UniformInt(1, 100)}));
  }
  EXPECT_LE(h->SizeInCells(), 8u);
  EXPECT_GE(h->SizeInCells(), 2u);
  EXPECT_DOUBLE_EQ(h->TotalCount(), 500.0);
}

TEST(MHistTest, BucketCountsSumToTotal) {
  Rng rng(5);
  auto made = MHist::Make(TwoCol(), {16, false, 4.0});
  ASSERT_TRUE(made.ok());
  auto* h = static_cast<MHist*>(made->get());
  for (int i = 0; i < 300; ++i) {
    h->Insert(Row({rng.UniformInt(1, 50), rng.UniformInt(1, 50)}));
  }
  double sum = 0;
  for (const MHist::Bucket& b : h->buckets()) sum += b.count;
  EXPECT_DOUBLE_EQ(sum, 300.0);
}

TEST(MHistTest, MaxDiffSplitsSeparateSkewedModes) {
  // Two tight modes far apart: MAXDIFF must give each its own bucket(s),
  // so a point estimate between the modes is ~0.
  SynopsisPtr h = MakeMHist(OneCol(), 8);
  for (int i = 0; i < 100; ++i) h->Insert(Row({10}));
  for (int i = 0; i < 100; ++i) h->Insert(Row({90}));
  EXPECT_GT(h->EstimatePointCount(Row({10})), 50.0);
  EXPECT_GT(h->EstimatePointCount(Row({90})), 50.0);
  EXPECT_LT(h->EstimatePointCount(Row({50})), 5.0);
}

TEST(MHistTest, AlignedSplitsSnapToGrid) {
  Rng rng(9);
  auto made = MHist::Make(OneCol(), {16, true, 4.0});
  ASSERT_TRUE(made.ok());
  auto* h = static_cast<MHist*>(made->get());
  for (int i = 0; i < 400; ++i) h->Insert(Row({rng.UniformInt(1, 64)}));
  for (const MHist::Bucket& b : h->buckets()) {
    // Interior boundaries (every lo except the global min) are multiples
    // of the alignment step.
    const double rem = std::fmod(b.lo[0], 4.0);
    const bool aligned = rem == 0.0 || b.lo[0] == 1.0;  // global min is 1
    EXPECT_TRUE(aligned) << "unaligned boundary " << b.lo[0];
  }
}

TEST(MHistTest, UnionConcatenatesBuckets) {
  SynopsisPtr a = MakeMHist(OneCol(), 8);
  SynopsisPtr b = MakeMHist(OneCol(), 8);
  for (int i = 0; i < 10; ++i) a->Insert(Row({5}));
  for (int i = 0; i < 20; ++i) b->Insert(Row({50}));
  auto u = a->UnionAllWith(*b, nullptr);
  ASSERT_TRUE(u.ok());
  EXPECT_DOUBLE_EQ((*u)->TotalCount(), 30.0);
}

TEST(MHistTest, UnionRejectsCrossTypeOperands) {
  SynopsisPtr plain = MakeMHist(OneCol(), 8, false);
  SynopsisPtr aligned = MakeMHist(OneCol(), 8, true);
  EXPECT_FALSE(plain->UnionAllWith(*aligned, nullptr).ok());
}

TEST(MHistTest, EquiJoinEstimateOnUniformData) {
  // Uniform single-bucket data: estimate should approximate n^2/V.
  SynopsisPtr a = MakeMHist(OneCol(), 1);
  SynopsisPtr b = MakeMHist(OneCol(), 1);
  for (int64_t v = 1; v <= 10; ++v) {
    a->Insert(Row({v}));
    b->Insert(Row({v}));
  }
  auto joined = a->EquiJoinWith(*b, {{0, 0}}, nullptr);
  ASSERT_TRUE(joined.ok());
  // True count 10; estimate 10*10/10 = 10.
  EXPECT_NEAR((*joined)->TotalCount(), 10.0, 1e-9);
}

TEST(MHistTest, UnalignedJoinBlowsUpBucketCount) {
  // The paper's Sec. 5.2.2 pathology: joining two MHISTs with unaligned
  // boundaries yields ~quadratically many output buckets, while the
  // aligned variant stays linear.
  Rng rng(11);
  SynopsisPtr a = MakeMHist(OneCol(), 32, false);
  SynopsisPtr b = MakeMHist(OneCol(), 32, false);
  SynopsisPtr aa = MakeMHist(OneCol(), 32, true, 8.0);
  SynopsisPtr ab = MakeMHist(OneCol(), 32, true, 8.0);
  for (int i = 0; i < 2000; ++i) {
    int64_t va = rng.UniformInt(1, 256);
    int64_t vb = rng.UniformInt(1, 256);
    a->Insert(Row({va}));
    aa->Insert(Row({va}));
    b->Insert(Row({vb}));
    ab->Insert(Row({vb}));
  }
  OpStats unaligned_stats, aligned_stats;
  auto unaligned = a->EquiJoinWith(*b, {{0, 0}}, &unaligned_stats);
  auto aligned = aa->EquiJoinWith(*ab, {{0, 0}}, &aligned_stats);
  ASSERT_TRUE(unaligned.ok());
  ASSERT_TRUE(aligned.ok());
  EXPECT_GT((*unaligned)->SizeInCells(), (*aligned)->SizeInCells());
}

TEST(MHistTest, ProjectDropsDimensions) {
  Rng rng(13);
  SynopsisPtr h = MakeMHist(TwoCol(), 8);
  for (int i = 0; i < 100; ++i) {
    h->Insert(Row({rng.UniformInt(1, 20), rng.UniformInt(1, 20)}));
  }
  auto p = h->ProjectColumns({1}, {"c"}, nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->schema().num_fields(), 1u);
  EXPECT_DOUBLE_EQ((*p)->TotalCount(), 100.0);
}

TEST(MHistTest, FilterByBucketCenter) {
  SynopsisPtr h = MakeMHist(OneCol(), 8);
  for (int i = 0; i < 50; ++i) h->Insert(Row({10}));
  for (int i = 0; i < 50; ++i) h->Insert(Row({90}));
  auto pred = plan::BoundExpr::Binary(
      sql::BinaryOp::kLess, plan::BoundExpr::Column(0, FieldType::kInt64),
      plan::BoundExpr::Literal(Value::Int64(50)));
  auto f = h->Filter(*pred, nullptr);
  ASSERT_TRUE(f.ok());
  EXPECT_NEAR((*f)->TotalCount(), 50.0, 1e-9);
}

TEST(MHistTest, EstimateGroupsTotalMassPreserved) {
  Rng rng(17);
  SynopsisPtr h = MakeMHist(OneCol(), 16);
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    int64_t v = std::clamp<int64_t>(std::llround(rng.Gaussian(50, 10)), 1,
                                    100);
    h->Insert(Row({v}));
  }
  auto groups = h->EstimateGroups({0}, {kCountOnlyColumn});
  ASSERT_TRUE(groups.ok());
  double total = 0;
  for (const auto& [key, accs] : *groups) total += accs[0].count;
  EXPECT_NEAR(total, n, n * 0.01);
}

TEST(MHistTest, CloneBeforeBuildIsIndependent) {
  SynopsisPtr h = MakeMHist(OneCol(), 8);
  h->Insert(Row({1}));
  SynopsisPtr c = h->Clone();
  c->Insert(Row({2}));
  EXPECT_DOUBLE_EQ(h->TotalCount(), 1.0);
  EXPECT_DOUBLE_EQ(c->TotalCount(), 2.0);
}

TEST(MHistTest, MoreBucketsGiveBetterAccuracy) {
  // Design-choice check (DESIGN.md A1/A3): at equal data, a larger bucket
  // budget should not be less accurate on point estimates.
  Rng rng(19);
  std::vector<Tuple> data;
  for (int i = 0; i < 2000; ++i) {
    data.push_back(Row({std::clamp<int64_t>(
        std::llround(rng.Gaussian(50, 15)), 1, 100)}));
  }
  auto err = [&](size_t buckets) {
    SynopsisPtr h = MakeMHist(OneCol(), buckets);
    std::vector<double> truth(101, 0.0);
    for (const Tuple& t : data) {
      h->Insert(t);
      truth[static_cast<size_t>(t.value(0).int64())] += 1.0;
    }
    double sq = 0;
    for (int64_t v = 1; v <= 100; ++v) {
      double diff = h->EstimatePointCount(Row({v})) -
                    truth[static_cast<size_t>(v)];
      sq += diff * diff;
    }
    return std::sqrt(sq / 100.0);
  };
  EXPECT_LE(err(64), err(2) * 1.05);
}

// ---------------------------------------------------------------------
// LoadState rejects snapshot bytes that would break the histogram, and
// replaces nothing when it does. The states are written field by field
// in SaveState's layout: bucket budget, aligned flag, alignment step,
// the buffered rows, the built flag, then per bucket its arity word, lo
// and hi coordinates and count, then the total.

std::string MHistState(uint64_t max_buckets,
                       const std::vector<Tuple>& buffered,
                       const std::vector<uint64_t>& bucket_dims) {
  serde::Writer writer;
  writer.WriteU64(max_buckets);
  writer.WriteBool(false);
  writer.WriteDouble(4.0);
  writer.WriteU64(buffered.size());
  for (const Tuple& t : buffered) SaveTuple(&writer, t);
  writer.WriteBool(!bucket_dims.empty());
  writer.WriteU64(bucket_dims.size());
  for (const uint64_t dims : bucket_dims) {
    writer.WriteU64(dims);
    for (uint64_t d = 0; d < dims; ++d) writer.WriteDouble(0.0);
    for (uint64_t d = 0; d < dims; ++d) writer.WriteDouble(8.0);
    writer.WriteDouble(1.0);
  }
  writer.WriteDouble(static_cast<double>(buffered.size()) +
                     static_cast<double>(bucket_dims.size()));
  return writer.TakeBytes();
}

/// Loads `bytes` into a two-column histogram already holding three
/// rows, and checks a rejection left them in place.
Status LoadMHist(const std::string& bytes) {
  SynopsisPtr h = MakeMHist(TwoCol());
  for (const int64_t a : {1, 5, 9}) h->Insert(Row({a, a}));
  serde::Reader reader(bytes);
  const Status status = h->LoadState(&reader);
  if (!status.ok()) EXPECT_DOUBLE_EQ(h->TotalCount(), 3.0);
  return status;
}

TEST(MHistLoadStateTest, RejectsBucketArityOtherThanSchema) {
  for (const auto& dims : std::vector<std::vector<uint64_t>>{
           {1}, {3}, {2, 1}, {0}}) {
    const Status status = LoadMHist(MHistState(16, {}, dims));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

TEST(MHistLoadStateTest, RejectsBufferedRowsThatDoNotFitTheSchema) {
  for (const Tuple& row :
       {Row({1}), Row({1, 2, 3}),
        Tuple({Value::Int64(1), Value::String("x")})}) {
    const Status status = LoadMHist(MHistState(16, {row}, {}));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

TEST(MHistLoadStateTest, RejectsZeroBucketBudget) {
  const Status status = LoadMHist(MHistState(0, {Row({1, 2})}, {}));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
}

TEST(MHistLoadStateTest, PristineStateRoundTripsAndEstimates) {
  SynopsisPtr h = MakeMHist(TwoCol());
  const std::string bytes = MHistState(16, {}, {2, 2});
  serde::Reader reader(bytes);
  ASSERT_TRUE(h->LoadState(&reader).ok());
  serde::Writer resaved;
  h->SaveState(&resaved);
  EXPECT_EQ(resaved.bytes(), bytes);
  auto groups = h->EstimateGroups({0, 1}, {kCountOnlyColumn});
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  EXPECT_FALSE(groups->empty());
}

}  // namespace
}  // namespace datatriage::synopsis
