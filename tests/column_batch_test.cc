// Tests for the column-major batch representation (ColumnBatch /
// BatchView / ColumnBuilder / HashRows) and for the vectorized executor's
// byte-for-byte contract against the scalar reference: empty batches,
// all-rows-filtered plans, exception-mask ("null"-mask) propagation
// through projection -> filter -> join chains, morsel-parallel join and
// aggregate kernels, and engine windows whose content spans multiple
// PushBatch chunks.

#include "src/exec/column_batch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/exec/evaluator.h"
#include "src/exec/task_pool.h"
#include "src/io/csv.h"
#include "src/server/stream_server.h"
#include "tests/test_util.h"

namespace datatriage::exec {
namespace {

using plan::Channel;
using plan::LogicalPlan;
using plan::PlanPtr;
using testing::PaperCatalog;
using testing::Row;

Schema RSchema() { return Schema({{"r.a", FieldType::kInt64}}); }
Schema SSchema() {
  return Schema({{"s.b", FieldType::kInt64}, {"s.c", FieldType::kInt64}});
}

/// A relation whose declared-int columns carry same-class (Double) and
/// cross-class (String) exception rows, with distinct timestamps.
Relation MixedRelation() {
  Relation rel;
  rel.push_back(Row({1, 10}, 0.1));
  rel.push_back(Tuple({Value::Double(2.5), Value::Int64(20)}, 0.2));
  rel.push_back(Tuple({Value::String("x"), Value::Int64(30)}, 0.3));
  rel.push_back(Row({2, 40}, 0.4));
  return rel;
}

void ExpectSameRelationExact(const Relation& got, const Relation& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "row " << i << ": " << got[i].ToString()
                               << " vs " << want[i].ToString();
    EXPECT_EQ(got[i].timestamp(), want[i].timestamp()) << "row " << i;
    // Value::operator== promotes numerics; pin the exact representation
    // (Int64 vs Double vs String) through the rendered form.
    EXPECT_EQ(got[i].ToString(), want[i].ToString()) << "row " << i;
  }
}

void ExpectSameStats(const ExecStats& got, const ExecStats& want) {
  EXPECT_EQ(got.tuples_scanned, want.tuples_scanned);
  EXPECT_EQ(got.tuples_output, want.tuples_output);
  EXPECT_EQ(got.join_probes, want.join_probes);
  EXPECT_EQ(got.join_build_inserts, want.join_build_inserts);
  EXPECT_EQ(got.comparisons, want.comparisons);
}

/// Evaluates `plan` on both executors and checks byte-for-byte parity of
/// rows, row order, timestamps, and ExecStats; returns the scalar result.
Relation ExpectExecParity(const LogicalPlan& plan,
                          const RelationProvider& inputs) {
  ExecStats scalar_stats;
  auto scalar = EvaluatePlan(plan, inputs, &scalar_stats);
  DT_CHECK(scalar.ok()) << scalar.status().ToString();
  ExecStats vector_stats;
  auto vectorized = EvaluatePlan(plan, inputs, &vector_stats,
                                 EvalOptions{/*vectorized=*/true});
  DT_CHECK(vectorized.ok()) << vectorized.status().ToString();
  ExpectSameRelationExact(*vectorized, *scalar);
  ExpectSameStats(vector_stats, scalar_stats);
  return *std::move(scalar);
}

// --- ColumnBatch construction -------------------------------------------

TEST(ColumnBatchTest, EmptyRelationBuildsEmptyBatch) {
  auto batch = ColumnBatch::FromRelation(Relation{});
  EXPECT_EQ(batch->num_rows(), 0u);
  EXPECT_EQ(batch->num_cols(), 0u);
  BatchView view{batch, nullptr};
  EXPECT_TRUE(view.empty());
  EXPECT_TRUE(view.ToRelation().empty());

  // The default view (no batch at all) behaves like an empty relation.
  BatchView none;
  EXPECT_EQ(none.size(), 0u);
  EXPECT_TRUE(none.ToRelation().empty());
}

TEST(ColumnBatchTest, RoundTripPreservesValuesAndTimestamps) {
  const Relation rel = MixedRelation();
  auto batch = ColumnBatch::FromRelation(rel);
  ASSERT_EQ(batch->num_rows(), rel.size());
  ASSERT_EQ(batch->num_cols(), 2u);
  Relation round;
  for (size_t r = 0; r < batch->num_rows(); ++r) {
    round.push_back(batch->RowAt(r));
  }
  ExpectSameRelationExact(round, rel);
}

TEST(ColumnBatchTest, ExceptionMaskLevelsMatchValueClasses) {
  auto batch = ColumnBatch::FromRelation(MixedRelation());
  const Column& a = batch->col(0);
  EXPECT_EQ(a.kind, FieldType::kInt64);
  EXPECT_FALSE(a.clean());
  EXPECT_TRUE(a.has_cross_class);
  EXPECT_EQ(a.ExceptionLevel(0), 0);
  EXPECT_EQ(a.ExceptionLevel(1), Column::kSameClass);
  EXPECT_EQ(a.ExceptionLevel(2), Column::kCrossClass);
  EXPECT_EQ(a.ExceptionLevel(3), 0);
  // Same-class exceptions keep a valid promoted double.
  EXPECT_EQ(a.f64[1], 2.5);
  EXPECT_EQ(a.ValueAt(1).ToString(), Value::Double(2.5).ToString());
  EXPECT_EQ(a.ValueAt(2).str(), "x");

  const Column& b = batch->col(1);
  EXPECT_TRUE(b.clean());
  EXPECT_FALSE(b.has_cross_class);
}

TEST(ColumnBatchTest, ColumnBuilderRoundTripsMixedValues) {
  std::vector<Value> values = {
      Value::String("alpha"), Value::String(""), Value::Int64(7),
      Value::String("beta")};
  ColumnBuilder builder;
  builder.Reserve(values.size());
  for (const Value& v : values) builder.Append(v);
  auto col = builder.Finish();
  ASSERT_EQ(col->kind, FieldType::kString);
  EXPECT_EQ(col->ExceptionLevel(2), Column::kCrossClass);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(col->ValueAt(i).ToString(), values[i].ToString()) << i;
  }
  // Builder-owned strings survive the builder (Finish patches pointers
  // into the owned store).
  EXPECT_EQ(*col->str[0], "alpha");
  EXPECT_NE(col->str_storage, nullptr);
}

TEST(ColumnBatchTest, ColumnsEqualAtFollowsValuePromotion) {
  Relation left = {Tuple({Value::Int64(3)}, 0.0),
                   Tuple({Value::String("s")}, 0.0)};
  Relation right = {Tuple({Value::Double(3.0)}, 9.0),
                    Tuple({Value::Int64(0)}, 9.0)};
  auto lb = ColumnBatch::FromRelation(left);
  auto rb = ColumnBatch::FromRelation(right);
  // Int64(3) == Double(3.0) under Value promotion; timestamps are not
  // part of equality.
  EXPECT_TRUE(ColumnsEqualAt(lb->col(0), 0, rb->col(0), 0));
  // String never equals a numeric.
  EXPECT_FALSE(ColumnsEqualAt(lb->col(0), 1, rb->col(0), 1));
  EXPECT_FALSE(ColumnsEqualAt(lb->col(0), 1, rb->col(0), 0));
}

TEST(ColumnBatchTest, HashRowsMatchesTupleHashing) {
  const Relation rel = MixedRelation();
  auto batch = ColumnBatch::FromRelation(rel);

  std::vector<const Column*> all = {&batch->col(0), &batch->col(1)};
  std::vector<uint64_t> hashes;
  HashRows(all, nullptr, rel.size(), &hashes);
  ASSERT_EQ(hashes.size(), rel.size());
  for (size_t r = 0; r < rel.size(); ++r) {
    EXPECT_EQ(hashes[r], rel[r].Hash()) << "row " << r;
  }

  // A column subset over a row-index domain matches HashValuesAt.
  std::vector<const Column*> just_a = {&batch->col(0)};
  const std::vector<uint32_t> rows = {3, 1};
  HashRows(just_a, rows.data(), rows.size(), &hashes);
  const std::vector<size_t> indices = {0};
  EXPECT_EQ(hashes[0], HashValuesAt(rel[3], indices));
  EXPECT_EQ(hashes[1], HashValuesAt(rel[1], indices));
}

// --- Executor parity ----------------------------------------------------

TEST(ColumnBatchExecTest, AllRowsFilteredYieldsEmptyParity) {
  RelationProvider inputs;
  inputs[{"r", Channel::kBase}] = {Row({1}, 0.1), Row({2}, 0.2),
                                   Row({3}, 0.3)};
  PlanPtr scan = LogicalPlan::StreamScan("r", Channel::kBase, RSchema());
  auto filter = LogicalPlan::Filter(
      scan, plan::BoundExpr::Binary(
                sql::BinaryOp::kGreater,
                plan::BoundExpr::Column(0, FieldType::kInt64),
                plan::BoundExpr::Literal(Value::Int64(100))));
  ASSERT_TRUE(filter.ok());
  EXPECT_TRUE(ExpectExecParity(**filter, inputs).empty());

  // And an aggregate over the empty filter output: zero groups, parity
  // on the way through.
  auto agg = LogicalPlan::Aggregate(
      *filter, {plan::GroupBySpec{0, "a"}},
      {plan::AggregateSpec{sql::AggFunc::kCount, true, 0, "count"}});
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_TRUE(ExpectExecParity(**agg, inputs).empty());
}

TEST(ColumnBatchExecTest, ExceptionRowsThroughProjectFilterJoin) {
  // Declared-int columns carrying Double and String values: the masks
  // must ride through a projection, gate the filter onto the row-at-a-
  // time fallback, and still join by Value semantics.
  RelationProvider inputs;
  inputs[{"r", Channel::kBase}] = {
      Row({1}, 0.1),
      Tuple({Value::Double(2.0)}, 0.2),
      Tuple({Value::String("x")}, 0.3),
      Row({2}, 0.4),
  };
  inputs[{"s", Channel::kBase}] = {
      Row({2, 10}, 1.1),
      Tuple({Value::Double(2.0), Value::Double(20.5)}, 1.2),
      Tuple({Value::String("x"), Value::Int64(30)}, 1.3),
      Row({5, 50}, 1.4),
  };

  PlanPtr r = LogicalPlan::StreamScan("r", Channel::kBase, RSchema());
  PlanPtr s = LogicalPlan::StreamScan("s", Channel::kBase, SSchema());
  auto proj = LogicalPlan::Project(s, {1, 0}, {"c", "b"});
  ASSERT_TRUE(proj.ok());
  // Filter on the projected b column; 0 < "x" is true under Value
  // ordering (numerics sort before strings), so the string row passes.
  auto filt = LogicalPlan::Filter(
      *proj, plan::BoundExpr::Binary(
                 sql::BinaryOp::kGreater,
                 plan::BoundExpr::Column(1, FieldType::kInt64),
                 plan::BoundExpr::Literal(Value::Int64(0))));
  ASSERT_TRUE(filt.ok());
  auto join = LogicalPlan::Join(r, *filt, {{0, 1}});
  ASSERT_TRUE(join.ok()) << join.status().ToString();

  const Relation out = ExpectExecParity(**join, inputs);
  // Int64 2 and Double 2.0 each match both s-side 2s; "x" matches "x".
  EXPECT_EQ(out.size(), 5u);
  for (const Tuple& t : out) {
    // Join output timestamps are max(left, right) = the s-side arrival.
    EXPECT_GE(t.timestamp(), 1.1);
  }
}

TEST(ColumnBatchExecTest, ExceptionRowsThroughAggregate) {
  RelationProvider inputs;
  inputs[{"s", Channel::kBase}] = {
      Row({1, 10}, 0.1),
      Tuple({Value::Double(1.0), Value::Int64(5)}, 0.2),
      Tuple({Value::String("g"), Value::Double(2.5)}, 0.3),
      Row({1, 7}, 0.4),
      Tuple({Value::String("g"), Value::String("oops")}, 0.5),
  };
  PlanPtr s = LogicalPlan::StreamScan("s", Channel::kBase, SSchema());
  auto agg = LogicalPlan::Aggregate(
      s, {plan::GroupBySpec{0, "b"}},
      {plan::AggregateSpec{sql::AggFunc::kCount, true, 0, "count"},
       plan::AggregateSpec{sql::AggFunc::kSum, false, 1, "sum_c"},
       plan::AggregateSpec{sql::AggFunc::kMin, false, 1, "min_c"},
       plan::AggregateSpec{sql::AggFunc::kMax, false, 1, "max_c"},
       plan::AggregateSpec{sql::AggFunc::kAvg, false, 1, "avg_c"}});
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  const Relation out = ExpectExecParity(**agg, inputs);
  // Groups: {1 / 1.0} (promotion-equal), {"g"}.
  EXPECT_EQ(out.size(), 2u);
}

TEST(ColumnBatchExecTest, MorselSplitsAreInvisibleInOutputAndStats) {
  // 3000-row inputs span more than two 1024-row morsels, so with a pool
  // and no floor the join build/probe and the group discovery split;
  // a SIZE_MAX floor or no pool keeps them serial. Rows, row order,
  // timestamps, and ExecStats must not notice. Join keys repeat (two r
  // rows per key) so the central merge has duplicate chains to splice.
  constexpr int kRows = 3000;
  RelationProvider inputs;
  Relation& r = inputs[{"r", Channel::kBase}];
  Relation& s = inputs[{"s", Channel::kBase}];
  for (int i = 0; i < kRows; ++i) {
    r.push_back(Row({i % 1500}, 0.001 * i));
    s.push_back(Row({(7 * i) % 2000, i}, 0.001 * i + 0.0005));
  }
  PlanPtr r_scan = LogicalPlan::StreamScan("r", Channel::kBase, RSchema());
  PlanPtr s_scan = LogicalPlan::StreamScan("s", Channel::kBase, SSchema());
  auto join = LogicalPlan::Join(r_scan, s_scan, {{0, 0}});
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  auto group_by = LogicalPlan::Aggregate(
      s_scan, {plan::GroupBySpec{0, "b"}},
      {plan::AggregateSpec{sql::AggFunc::kCount, true, 0, "count"},
       plan::AggregateSpec{sql::AggFunc::kSum, false, 1, "sum_c"},
       plan::AggregateSpec{sql::AggFunc::kMin, false, 1, "min_c"},
       plan::AggregateSpec{sql::AggFunc::kAvg, false, 1, "avg_c"}});
  ASSERT_TRUE(group_by.ok()) << group_by.status().ToString();

  TaskPool pool(3);
  for (const PlanPtr& plan : {*join, *group_by}) {
    ExecStats serial_stats;
    auto serial = EvaluatePlan(*plan, inputs, &serial_stats,
                               EvalOptions{true, 0, nullptr, 0});
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_GT(serial->size(), 1000u);
    for (const EvalOptions& options :
         {EvalOptions{true, 0, &pool, 0},
          EvalOptions{true, 0, &pool, SIZE_MAX}}) {
      SCOPED_TRACE("parallel_min_rows=" +
                   std::to_string(options.parallel_min_rows));
      ExecStats stats;
      auto run = EvaluatePlan(*plan, inputs, &stats, options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ExpectSameRelationExact(*run, *serial);
      ExpectSameStats(stats, serial_stats);
    }
  }
}

// --- Engine windows spanning PushBatch chunks ---------------------------

TEST(ColumnBatchEngineTest, WindowSpanningMultiplePushChunksStaysScalarParity) {
  const Catalog catalog = PaperCatalog();
  // Three one-second windows, nine events; deliver them in chunks of two
  // so every window's contents straddle a PushBatch boundary.
  std::vector<engine::StreamEvent> events;
  for (int w = 0; w < 3; ++w) {
    const double base = static_cast<double>(w);
    events.push_back({"r", Row({5}, base + 0.1)});
    events.push_back({"s", Row({5, 7}, base + 0.4)});
    events.push_back({"t", Row({7}, base + 0.7)});
  }

  auto run = [&](bool vectorized, size_t min_rows) {
    engine::EngineConfig config;
    config.vectorized_exec = vectorized;
    config.vectorized_min_rows = min_rows;
    server::StreamServer server(catalog);
    auto id = server.RegisterQuery(testing::kPaperQuery, config);
    DT_CHECK(id.ok()) << id.status().ToString();
    for (size_t i = 0; i < events.size(); i += 2) {
      const size_t n = std::min<size_t>(2, events.size() - i);
      DT_CHECK(server
                   .PushBatch(std::span<const engine::StreamEvent>(
                       events.data() + i, n))
                   .ok());
    }
    DT_CHECK(server.Finish().ok());
    return io::FormatResultsCsv(server.session(*id).TakeResults(),
                                {"a", "count"});
  };

  const std::string scalar_csv = run(false, 0);
  EXPECT_EQ(run(true, 0), scalar_csv);
  // A min-rows threshold above the window size keeps the vectorized
  // engine on the scalar path; output is identical either way.
  EXPECT_EQ(run(true, 1u << 20), scalar_csv);
  EXPECT_EQ(run(true, 1), scalar_csv);
}

}  // namespace
}  // namespace datatriage::exec
