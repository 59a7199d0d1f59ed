#include "src/engine/merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/column_batch.h"
#include "src/exec/vector_eval.h"
#include "tests/test_util.h"

namespace datatriage::engine {
namespace {

using synopsis::AggAccumulator;
using synopsis::GroupedEstimate;
using testing::MustBind;
using testing::PaperCatalog;
using testing::Row;

plan::BoundQuery PaperQuery() {
  Catalog catalog = PaperCatalog();
  return MustBind(testing::kPaperQuery, catalog);
}

TEST(MergeTest, SpecFromPaperQuery) {
  plan::BoundQuery query = PaperQuery();
  auto spec = MakeAggregationSpec(query);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->group_columns, (std::vector<size_t>{0}));
  EXPECT_EQ(spec->agg_columns,
            (std::vector<size_t>{synopsis::kCountOnlyColumn}));
}

TEST(MergeTest, SpecRequiresAggregates) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery query = MustBind("SELECT a FROM R", catalog);
  EXPECT_FALSE(MakeAggregationSpec(query).ok());
}

TEST(MergeTest, AccumulateExactCountsPerGroup) {
  plan::BoundQuery query = PaperQuery();
  AggregationSpec spec = MakeAggregationSpec(query).value();
  // SPJ rows: schema (r.a, s.b, s.c, t.d); group on column 0.
  exec::Relation rows = {Row({1, 1, 7, 7}), Row({1, 1, 8, 8}),
                         Row({2, 2, 7, 7})};
  GroupedEstimate groups = AccumulateExact(rows, spec);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_DOUBLE_EQ(groups.at({Value::Int64(1)})[0].count, 2.0);
  EXPECT_DOUBLE_EQ(groups.at({Value::Int64(2)})[0].count, 1.0);
}

TEST(MergeTest, MergeAddsAccumulators) {
  GroupedEstimate a, b;
  a[{Value::Int64(1)}].resize(1);
  a[{Value::Int64(1)}][0].count = 2.0;
  b[{Value::Int64(1)}].resize(1);
  b[{Value::Int64(1)}][0].count = 3.5;
  b[{Value::Int64(9)}].resize(1);
  b[{Value::Int64(9)}][0].count = 1.0;
  MergeGroupedEstimates(&a, b);
  EXPECT_DOUBLE_EQ(a.at({Value::Int64(1)})[0].count, 5.5);
  EXPECT_DOUBLE_EQ(a.at({Value::Int64(9)})[0].count, 1.0);
}

TEST(MergeTest, BuildRowsExactTypesRoundCounts) {
  plan::BoundQuery query = PaperQuery();
  AggregationSpec spec = MakeAggregationSpec(query).value();
  GroupedEstimate groups;
  groups[{Value::Int64(5)}].resize(1);
  groups[{Value::Int64(5)}][0].count = 3.0;
  auto rows = BuildAggregateRows(groups, query, spec, /*exact_types=*/true);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].value(0).int64(), 5);
  EXPECT_TRUE((*rows)[0].value(1).is_int64());
  EXPECT_EQ((*rows)[0].value(1).int64(), 3);
}

TEST(MergeTest, BuildRowsEstimatesStayFractional) {
  plan::BoundQuery query = PaperQuery();
  AggregationSpec spec = MakeAggregationSpec(query).value();
  GroupedEstimate groups;
  groups[{Value::Int64(5)}].resize(1);
  groups[{Value::Int64(5)}][0].count = 2.25;
  auto rows =
      BuildAggregateRows(groups, query, spec, /*exact_types=*/false);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_DOUBLE_EQ((*rows)[0].value(1).dbl(), 2.25);
}

TEST(MergeTest, BuildRowsSkipsZeroWeightGroups) {
  plan::BoundQuery query = PaperQuery();
  AggregationSpec spec = MakeAggregationSpec(query).value();
  GroupedEstimate groups;
  groups[{Value::Int64(1)}].resize(1);  // zero count
  groups[{Value::Int64(2)}].resize(1);
  groups[{Value::Int64(2)}][0].count = 1.0;
  auto rows =
      BuildAggregateRows(groups, query, spec, /*exact_types=*/false);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].value(0).int64(), 2);
}

TEST(MergeTest, AllAggregateFunctionsRender) {
  Catalog catalog = PaperCatalog();
  plan::BoundQuery query = MustBind(
      "SELECT b, COUNT(*), SUM(c), AVG(c), MIN(c), MAX(c) FROM S "
      "GROUP BY b",
      catalog);
  AggregationSpec spec = MakeAggregationSpec(query).value();
  // SPJ rows have schema (s.b, s.c).
  exec::Relation rows = {Row({1, 10}), Row({1, 30})};
  GroupedEstimate groups = AccumulateExact(rows, spec);
  auto out = BuildAggregateRows(groups, query, spec, /*exact_types=*/true);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  const Tuple& row = (*out)[0];
  EXPECT_EQ(row.value(0).int64(), 1);   // group b
  EXPECT_EQ(row.value(1).int64(), 2);   // count
  EXPECT_EQ(row.value(2).int64(), 40);  // sum
  EXPECT_DOUBLE_EQ(row.value(3).dbl(), 20.0);  // avg (double even exact)
  EXPECT_EQ(row.value(4).int64(), 10);  // min
  EXPECT_EQ(row.value(5).int64(), 30);  // max
}

// --- The columnar kernel against the row-at-a-time reference -------------

/// COUNT(*) and an aggregate over column 1, grouped on column 0.
AggregationSpec CountAndColumnOneByColumnZero() {
  return AggregationSpec{{0}, {synopsis::kCountOnlyColumn, 1}};
}

/// Runs the BatchView kernel on `view` and the scalar reference on the
/// rows it selects, then checks exact agreement: the same keys with the
/// same Value types, bit-equal accumulators, and the same merge_state
/// peak. Returns the kernel's peak so callers can check it was charged.
size_t ExpectKernelParity(const exec::BatchView& view,
                          const AggregationSpec& spec) {
  mem::SessionAccount view_account;
  const GroupedEstimate got = AccumulateExact(view, spec, &view_account);
  mem::SessionAccount row_account;
  const GroupedEstimate want = AccumulateExact(
      view.ToRelation(), spec, /*vectorized=*/false, &row_account);

  EXPECT_EQ(got.size(), want.size());
  for (auto g = got.begin(), w = want.begin();
       g != got.end() && w != want.end(); ++g, ++w) {
    const std::vector<Value>& key = w->first;
    EXPECT_EQ(g->first.size(), key.size());
    for (size_t k = 0; k < std::min(g->first.size(), key.size()); ++k) {
      // Value::operator== promotes numerics; pin the representation.
      EXPECT_EQ(g->first[k].type(), key[k].type()) << key[k].ToString();
      EXPECT_EQ(g->first[k].ToString(), key[k].ToString());
    }
    EXPECT_EQ(g->second.size(), w->second.size());
    for (size_t a = 0; a < std::min(g->second.size(), w->second.size());
         ++a) {
      const AggAccumulator& x = g->second[a];
      const AggAccumulator& y = w->second[a];
      SCOPED_TRACE("group " + key.front().ToString() + ", aggregate " +
                   std::to_string(a));
      EXPECT_EQ(std::bit_cast<uint64_t>(x.count),
                std::bit_cast<uint64_t>(y.count));
      EXPECT_EQ(std::bit_cast<uint64_t>(x.sum), std::bit_cast<uint64_t>(y.sum));
      EXPECT_EQ(std::bit_cast<uint64_t>(x.min), std::bit_cast<uint64_t>(y.min));
      EXPECT_EQ(std::bit_cast<uint64_t>(x.max), std::bit_cast<uint64_t>(y.max));
    }
  }
  const size_t peak = view_account.peak_bytes(mem::Component::kMergeState);
  EXPECT_EQ(peak, row_account.peak_bytes(mem::Component::kMergeState));
  // Merge state is transient: both calls drain their charge.
  EXPECT_EQ(view_account.TotalBytes(), 0u);
  EXPECT_EQ(row_account.TotalBytes(), 0u);
  return peak;
}

TEST(MergeKernelParityTest, FilterSelectionVectorReadsAbsoluteRows) {
  // S(b, c): b cycles over 5 groups and c varies by row, so reading the
  // aggregate column at a domain position instead of the selected
  // absolute row changes the sums.
  exec::Relation rows;
  for (int64_t r = 0; r < 200; ++r) {
    rows.push_back(Row({r % 5, (r * 37) % 101}, 0.01 * r));
  }
  plan::PlanPtr scan = plan::LogicalPlan::StreamScan(
      "s", plan::Channel::kBase,
      Schema({{"s.b", FieldType::kInt64}, {"s.c", FieldType::kInt64}}));
  auto filter = plan::LogicalPlan::Filter(
      scan, plan::BoundExpr::Binary(
                sql::BinaryOp::kGreater,
                plan::BoundExpr::Column(1, FieldType::kInt64),
                plan::BoundExpr::Literal(Value::Int64(40))));
  ASSERT_TRUE(filter.ok()) << filter.status().ToString();
  exec::ExecStats stats;
  const exec::BatchView view = exec::vectorized::Filter(
      **filter, exec::BatchView{exec::ColumnBatch::FromRelation(rows), nullptr},
      &stats);
  ASSERT_NE(view.sel, nullptr);
  ASSERT_GT(view.size(), 0u);
  ASSERT_LT(view.size(), rows.size());
  ASSERT_NE(view.RowIndex(view.size() - 1), view.size() - 1)
      << "the selection must not be a prefix of the batch";
  EXPECT_GT(ExpectKernelParity(view, CountAndColumnOneByColumnZero()), 0u);
}

TEST(MergeKernelParityTest, ExceptionRowsMatchTheRowLoop) {
  // Group column b is declared Int64 (its first row) and holds a Double
  // equal to 1 (same group by promotion), a Double 2.5 (its own group,
  // keyed by a Double), and strings (kCrossClass, keyed by a String).
  // The aggregate column c holds a same-class Double, and in row 5 a
  // string; AsDouble() rejects strings in either path, so that row is
  // only ever present unselected.
  const exec::Relation rows = {
      Row({1, 10}, 0.1),
      Tuple({Value::Double(1.0), Value::Int64(5)}, 0.2),
      Tuple({Value::Double(2.5), Value::Int64(3)}, 0.3),
      Tuple({Value::String("x"), Value::Int64(7)}, 0.4),
      Tuple({Value::Int64(2), Value::Double(4.5)}, 0.5),
      Tuple({Value::Int64(1), Value::String("skip")}, 0.6),
      Tuple({Value::String("x"), Value::Int64(11)}, 0.7),
      Row({2, 8}, 0.8),
  };
  const AggregationSpec spec = CountAndColumnOneByColumnZero();

  // Without row 5, c has only same-class exceptions: the f64 sweep.
  exec::Relation clean_c = rows;
  clean_c.erase(clean_c.begin() + 5);
  const auto clean_batch = exec::ColumnBatch::FromRelation(clean_c);
  ASSERT_TRUE(clean_batch->col(0).has_cross_class);
  ASSERT_FALSE(clean_batch->col(1).clean());
  ASSERT_FALSE(clean_batch->col(1).has_cross_class);
  EXPECT_GT(ExpectKernelParity(exec::BatchView{clean_batch, nullptr}, spec),
            0u);

  // With it, c is cross-class and the kernel reads Values; a selection
  // vector skips the string row.
  const auto mixed_batch = exec::ColumnBatch::FromRelation(rows);
  ASSERT_TRUE(mixed_batch->col(1).has_cross_class);
  const exec::BatchView skip_string{
      mixed_batch, std::make_shared<const std::vector<uint32_t>>(
                       std::vector<uint32_t>{0, 1, 2, 3, 4, 6, 7})};
  EXPECT_GT(ExpectKernelParity(skip_string, spec), 0u);
}

TEST(MergeKernelParityTest, EmptyViewsYieldNoGroupsAndNoCharge) {
  const AggregationSpec spec = CountAndColumnOneByColumnZero();
  // No batch at all, an empty batch, and a selection that keeps nothing.
  const exec::Relation no_rows;
  const exec::Relation two_rows = {Row({1, 2}), Row({3, 4})};
  EXPECT_EQ(ExpectKernelParity(exec::BatchView{}, spec), 0u);
  EXPECT_EQ(ExpectKernelParity(
                exec::BatchView{exec::ColumnBatch::FromRelation(no_rows),
                                nullptr},
                spec),
            0u);
  const exec::BatchView none_selected{
      exec::ColumnBatch::FromRelation(two_rows),
      std::make_shared<const std::vector<uint32_t>>()};
  EXPECT_EQ(ExpectKernelParity(none_selected, spec), 0u);
}

}  // namespace
}  // namespace datatriage::engine
