#include "src/synopsis/grid_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/serde.h"
#include "tests/test_util.h"

namespace datatriage::synopsis {
namespace {

using testing::Row;

Schema OneCol() { return Schema({{"a", FieldType::kInt64}}); }
Schema TwoCol() {
  return Schema({{"b", FieldType::kInt64}, {"c", FieldType::kInt64}});
}

SynopsisPtr MakeGrid(Schema schema, double width = 4.0) {
  auto made = GridHistogram::Make(std::move(schema), {width});
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return std::move(made).value();
}

TEST(GridHistogramTest, RejectsBadConfigAndSchema) {
  EXPECT_FALSE(GridHistogram::Make(OneCol(), {0.0}).ok());
  EXPECT_FALSE(GridHistogram::Make(OneCol(), {-1.0}).ok());
  EXPECT_FALSE(GridHistogram::Make(
                   OneCol(), {std::numeric_limits<double>::quiet_NaN()})
                   .ok());
  EXPECT_FALSE(GridHistogram::Make(
                   OneCol(), {std::numeric_limits<double>::infinity()})
                   .ok());
  EXPECT_FALSE(
      GridHistogram::Make(Schema({{"s", FieldType::kString}}), {4.0}).ok());
}

TEST(GridHistogramTest, InsertAccumulatesCounts) {
  SynopsisPtr h = MakeGrid(OneCol());
  h->Insert(Row({1}));
  h->Insert(Row({2}));  // same cell as 1 with width 4
  h->Insert(Row({9}));
  EXPECT_DOUBLE_EQ(h->TotalCount(), 3.0);
  EXPECT_EQ(h->SizeInCells(), 2u);
}

TEST(GridHistogramTest, NegativeValuesLandInFloorCells) {
  SynopsisPtr h = MakeGrid(OneCol());
  h->Insert(Row({-1}));  // cell floor(-1/4) = -1
  h->Insert(Row({-5}));  // cell -2
  EXPECT_EQ(h->SizeInCells(), 2u);
}

TEST(GridHistogramTest, CloneIsIndependent) {
  SynopsisPtr h = MakeGrid(OneCol());
  h->Insert(Row({1}));
  SynopsisPtr c = h->Clone();
  c->Insert(Row({2}));
  EXPECT_DOUBLE_EQ(h->TotalCount(), 1.0);
  EXPECT_DOUBLE_EQ(c->TotalCount(), 2.0);
}

TEST(GridHistogramTest, UnionAddsCellwise) {
  SynopsisPtr a = MakeGrid(OneCol());
  SynopsisPtr b = MakeGrid(OneCol());
  a->Insert(Row({1}));
  a->Insert(Row({9}));
  b->Insert(Row({2}));
  OpStats stats;
  auto u = a->UnionAllWith(*b, &stats);
  ASSERT_TRUE(u.ok());
  EXPECT_DOUBLE_EQ((*u)->TotalCount(), 3.0);
  EXPECT_EQ((*u)->SizeInCells(), 2u);  // cells {0} and {2}
  EXPECT_GT(stats.work, 0);
}

TEST(GridHistogramTest, UnionRejectsMismatchedWidth) {
  SynopsisPtr a = MakeGrid(OneCol(), 4.0);
  SynopsisPtr b = MakeGrid(OneCol(), 2.0);
  EXPECT_FALSE(a->UnionAllWith(*b, nullptr).ok());
}

TEST(GridHistogramTest, EquiJoinEstimatesMatchUniformData) {
  // With all values in one cell, the estimate is exactly c1*c2/width.
  SynopsisPtr a = MakeGrid(OneCol(), 4.0);
  SynopsisPtr b = MakeGrid(OneCol(), 4.0);
  for (int64_t v = 0; v < 4; ++v) {
    a->Insert(Row({v}));
    b->Insert(Row({v}));
  }
  auto joined = a->EquiJoinWith(*b, {{0, 0}}, nullptr);
  ASSERT_TRUE(joined.ok());
  // True join count: each value matches once -> 4. Estimate: 4*4/4 = 4.
  EXPECT_NEAR((*joined)->TotalCount(), 4.0, 1e-9);
  EXPECT_EQ((*joined)->schema().num_fields(), 2u);
}

TEST(GridHistogramTest, EquiJoinMissesCrossCellPairs) {
  SynopsisPtr a = MakeGrid(OneCol(), 4.0);
  SynopsisPtr b = MakeGrid(OneCol(), 4.0);
  a->Insert(Row({1}));   // cell 0
  b->Insert(Row({9}));   // cell 2
  auto joined = a->EquiJoinWith(*b, {{0, 0}}, nullptr);
  ASSERT_TRUE(joined.ok());
  EXPECT_DOUBLE_EQ((*joined)->TotalCount(), 0.0);
}

TEST(GridHistogramTest, CrossProductIsExactOnCounts) {
  SynopsisPtr a = MakeGrid(OneCol(), 4.0);
  SynopsisPtr b = MakeGrid(TwoCol(), 4.0);
  a->Insert(Row({1}));
  a->Insert(Row({9}));
  b->Insert(Row({2, 3}));
  auto cross = a->EquiJoinWith(*b, {}, nullptr);
  ASSERT_TRUE(cross.ok());
  EXPECT_DOUBLE_EQ((*cross)->TotalCount(), 2.0);
  EXPECT_EQ((*cross)->schema().num_fields(), 3u);
}

TEST(GridHistogramTest, ProjectMergesCells) {
  SynopsisPtr h = MakeGrid(TwoCol(), 4.0);
  h->Insert(Row({1, 1}));
  h->Insert(Row({1, 9}));  // same b-cell, different c-cell
  auto p = h->ProjectColumns({0}, {"b"}, nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->SizeInCells(), 1u);
  EXPECT_DOUBLE_EQ((*p)->TotalCount(), 2.0);
  EXPECT_FALSE(h->ProjectColumns({5}, {"x"}, nullptr).ok());
}

TEST(GridHistogramTest, FilterKeepsWholeCellsByMidpoint) {
  SynopsisPtr h = MakeGrid(OneCol(), 4.0);
  h->Insert(Row({1}));   // cell [0,4), midpoint 2
  h->Insert(Row({9}));   // cell [8,12), midpoint 10
  auto pred = plan::BoundExpr::Binary(
      sql::BinaryOp::kGreater, plan::BoundExpr::Column(0, FieldType::kInt64),
      plan::BoundExpr::Literal(Value::Int64(5)));
  auto f = h->Filter(*pred, nullptr);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ((*f)->TotalCount(), 1.0);
}

TEST(GridHistogramTest, EstimateGroupsSpreadsCellMass) {
  SynopsisPtr h = MakeGrid(OneCol(), 4.0);
  // 8 tuples in cell [0,4).
  for (int i = 0; i < 8; ++i) h->Insert(Row({1}));
  auto groups = h->EstimateGroups({0}, {kCountOnlyColumn});
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 4u);  // integer points 0..3
  for (const auto& [key, accs] : *groups) {
    EXPECT_DOUBLE_EQ(accs[0].count, 2.0);  // 8 / 4 points
  }
}

TEST(GridHistogramTest, EstimateGroupsSumUsesPointValueForGroupColumn) {
  SynopsisPtr h = MakeGrid(OneCol(), 4.0);
  for (int i = 0; i < 4; ++i) h->Insert(Row({1}));
  // SUM over the group column itself: each point v contributes v * 1.
  auto groups = h->EstimateGroups({0}, {0});
  ASSERT_TRUE(groups.ok());
  double total_sum = 0;
  for (const auto& [key, accs] : *groups) total_sum += accs[0].sum;
  EXPECT_DOUBLE_EQ(total_sum, 0.0 + 1.0 + 2.0 + 3.0);
}

TEST(GridHistogramTest, EstimateGroupsEmptyGroupByGivesGlobalGroup) {
  SynopsisPtr h = MakeGrid(TwoCol(), 4.0);
  h->Insert(Row({1, 2}));
  h->Insert(Row({9, 2}));
  auto groups = h->EstimateGroups({}, {kCountOnlyColumn});
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 1u);
  EXPECT_DOUBLE_EQ(groups->begin()->second[0].count, 2.0);
}

TEST(GridHistogramTest, PointEstimateDividesCellMass) {
  SynopsisPtr h = MakeGrid(OneCol(), 4.0);
  for (int i = 0; i < 8; ++i) h->Insert(Row({2}));
  EXPECT_DOUBLE_EQ(h->EstimatePointCount(Row({2})), 2.0);  // 8 / 4
  EXPECT_DOUBLE_EQ(h->EstimatePointCount(Row({3})), 2.0);  // same cell
  EXPECT_DOUBLE_EQ(h->EstimatePointCount(Row({7})), 0.0);
}

TEST(GridHistogramTest, GroupedCountsApproximateGaussianData) {
  // Statistical sanity: total estimated mass equals inserted mass, and
  // per-point estimates track a heavily populated distribution.
  Rng rng(77);
  SynopsisPtr h = MakeGrid(OneCol(), 4.0);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    int64_t v = std::llround(rng.Gaussian(50, 10));
    v = std::clamp<int64_t>(v, 1, 100);
    h->Insert(Row({v}));
  }
  auto groups = h->EstimateGroups({0}, {kCountOnlyColumn});
  ASSERT_TRUE(groups.ok());
  double total = 0;
  for (const auto& [key, accs] : *groups) total += accs[0].count;
  EXPECT_NEAR(total, n, 1e-6);
  // The mode region should carry far more mass than the tail.
  double near_mode = 0, tail = 0;
  for (const auto& [key, accs] : *groups) {
    int64_t v = key[0].int64();
    if (v >= 45 && v <= 55) near_mode += accs[0].count;
    if (v <= 20) tail += accs[0].count;
  }
  EXPECT_GT(near_mode, 10 * (tail + 1));
}

// ---------------------------------------------------------------------
// LoadState rejects snapshot bytes that would break the histogram's
// invariants. The states below are written field by field in SaveState's
// layout: cell width, cell count, then per cell its arity word,
// coordinates and count, then the total.

std::string GridState(double width,
                      const std::vector<std::vector<int64_t>>& cells) {
  serde::Writer writer;
  writer.WriteDouble(width);
  writer.WriteU64(cells.size());
  for (const std::vector<int64_t>& coords : cells) {
    writer.WriteU64(coords.size());
    for (const int64_t c : coords) writer.WriteI64(c);
    writer.WriteDouble(1.0);
  }
  writer.WriteDouble(static_cast<double>(cells.size()));
  return writer.TakeBytes();
}

Status LoadGrid(Schema schema, const std::string& bytes) {
  SynopsisPtr h = MakeGrid(std::move(schema));
  serde::Reader reader(bytes);
  return h->LoadState(&reader);
}

TEST(GridHistogramLoadStateTest, RejectsNonFiniteOrNonPositiveWidth) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double width :
       {0.0, -0.0, -4.0, kInf, -kInf,
        std::numeric_limits<double>::quiet_NaN()}) {
    const Status status = LoadGrid(TwoCol(), GridState(width, {{0, 1}}));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "width " << width << ": " << status.ToString();
  }
}

TEST(GridHistogramLoadStateTest, RejectsCellArityOtherThanSchema) {
  for (const auto& cells : std::vector<std::vector<std::vector<int64_t>>>{
           {{0}}, {{0, 1, 2}}, {{0, 1}, {0}}, {{}}}) {
    const Status status = LoadGrid(TwoCol(), GridState(4.0, cells));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

TEST(GridHistogramLoadStateTest, RejectsCellsNotStrictlyAscending) {
  for (const auto& cells : std::vector<std::vector<std::vector<int64_t>>>{
           {{1, 0}, {0, 5}}, {{0, 1}, {0, 1}}, {{0, 1}, {2, 2}, {2, 1}}}) {
    const Status status = LoadGrid(TwoCol(), GridState(4.0, cells));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

TEST(GridHistogramLoadStateTest, PristineStateRoundTrips) {
  // A hand-written ascending state loads as written.
  SynopsisPtr hand = MakeGrid(TwoCol());
  const std::string bytes = GridState(2.5, {{-3, 7}, {0, -1}, {0, 4}});
  serde::Reader hand_reader(bytes);
  ASSERT_TRUE(hand->LoadState(&hand_reader).ok());
  EXPECT_EQ(hand->SizeInCells(), 3u);
  EXPECT_DOUBLE_EQ(hand->TotalCount(), 3.0);
  serde::Writer hand_resaved;
  hand->SaveState(&hand_resaved);
  EXPECT_EQ(hand_resaved.bytes(), bytes);

  // A populated histogram survives save, load and re-save byte for byte.
  Rng rng(5);
  SynopsisPtr h = MakeGrid(TwoCol(), 3.0);
  for (int i = 0; i < 200; ++i) {
    h->Insert(Row({rng.UniformInt(-20, 20), rng.UniformInt(-20, 20)}));
  }
  serde::Writer saved;
  h->SaveState(&saved);
  SynopsisPtr restored = MakeGrid(TwoCol());
  serde::Reader reader(saved.bytes());
  ASSERT_TRUE(restored->LoadState(&reader).ok());
  serde::Writer resaved;
  restored->SaveState(&resaved);
  EXPECT_EQ(resaved.bytes(), saved.bytes());
  EXPECT_EQ(restored->SizeInCells(), h->SizeInCells());
  EXPECT_EQ(restored->MemoryBytes(), h->MemoryBytes());
  EXPECT_DOUBLE_EQ(restored->EstimatePointCount(Row({1, 1})),
                   h->EstimatePointCount(Row({1, 1})));
}

// ---------------------------------------------------------------------
// Differential test against a std::map-keyed reference. RefGrid holds its
// cells in a std::map keyed by coordinate vector and runs each operator
// the direct way: walk the input map(s) in key order and `+=` into the
// output map. The flat histogram must match it bit for bit: serialized
// state (which holds every cell, count and the total), OpStats::work,
// point estimates and every GroupedEstimate accumulator. At widths 2.5, 3
// and 5 join selectivities are not powers of two, so counts are inexact
// and any change in summation order changes bits; width 4 keeps every
// sum exact, as the fig8, golden-seed and sim pins do.

struct RefGrid {
  RefGrid(Schema s, double w) : schema(std::move(s)), width(w) {}

  Schema schema;
  double width;
  std::map<std::vector<int64_t>, double> cells;
  double total = 0.0;

  int64_t Coord(double v) const {
    return static_cast<int64_t>(std::floor(v / width));
  }
  double Mid(int64_t c) const {
    return (static_cast<double>(c) + 0.5) * width;
  }
  std::vector<int64_t> CellOf(const Tuple& t) const {
    std::vector<int64_t> coords;
    for (size_t i = 0; i < t.size(); ++i) {
      coords.push_back(Coord(t.value(i).AsDouble()));
    }
    return coords;
  }

  void Insert(const Tuple& t) {
    cells[CellOf(t)] += 1.0;
    total += 1.0;
  }

  RefGrid UnionAll(const RefGrid& rhs, int64_t* work) const {
    RefGrid out = *this;
    for (const auto& [coords, count] : rhs.cells) {
      out.cells[coords] += count;
      out.total += count;
    }
    *work += static_cast<int64_t>(cells.size() + rhs.cells.size());
    return out;
  }

  RefGrid EquiJoin(const RefGrid& rhs,
                   const std::vector<std::pair<size_t, size_t>>& keys,
                   Schema joined, int64_t* work) const {
    std::map<std::vector<int64_t>,
             std::vector<std::pair<std::vector<int64_t>, double>>>
        index;
    for (const auto& [coords, count] : rhs.cells) {
      std::vector<int64_t> key;
      for (const auto& [l, r] : keys) key.push_back(coords[r]);
      index[key].emplace_back(coords, count);
    }
    const double selectivity =
        std::pow(1.0 / std::max(1.0, std::round(width)),
                 static_cast<double>(keys.size()));
    RefGrid out{std::move(joined), width};
    *work += static_cast<int64_t>(rhs.cells.size());
    for (const auto& [lcoords, lcount] : cells) {
      ++*work;
      std::vector<int64_t> key;
      for (const auto& [l, r] : keys) key.push_back(lcoords[l]);
      auto it = index.find(key);
      if (it == index.end()) continue;
      for (const auto& [rcoords, rcount] : it->second) {
        ++*work;
        std::vector<int64_t> coords = lcoords;
        coords.insert(coords.end(), rcoords.begin(), rcoords.end());
        const double count = lcount * rcount * selectivity;
        if (count <= 0) continue;
        out.cells[coords] += count;
        out.total += count;
      }
    }
    return out;
  }

  RefGrid Project(const std::vector<size_t>& indices, Schema projected,
                  int64_t* work) const {
    RefGrid out{std::move(projected), width};
    for (const auto& [coords, count] : cells) {
      std::vector<int64_t> key;
      for (const size_t i : indices) key.push_back(coords[i]);
      out.cells[key] += count;
      out.total += count;
    }
    *work += static_cast<int64_t>(cells.size());
    return out;
  }

  RefGrid Filter(const plan::BoundExpr& predicate, int64_t* work) const {
    RefGrid out{schema, width};
    for (const auto& [coords, count] : cells) {
      std::vector<Value> midpoint;
      for (const int64_t c : coords) midpoint.push_back(Value::Double(Mid(c)));
      if (predicate.EvaluatesToTrue(Tuple(std::move(midpoint)))) {
        out.cells[coords] += count;
        out.total += count;
      }
    }
    *work += static_cast<int64_t>(cells.size());
    return out;
  }

  double PointCount(const Tuple& point) const {
    auto it = cells.find(CellOf(point));
    if (it == cells.end()) return 0.0;
    double points = 1.0;
    for (const Field& f : schema.fields()) {
      if (f.type == FieldType::kInt64) {
        points *= std::max(1.0, std::round(width));
      }
    }
    return it->second / points;
  }

  GroupedEstimate Groups(const std::vector<size_t>& group_columns,
                         const std::vector<size_t>& agg_columns) const {
    GroupedEstimate groups;
    for (const auto& [coords, count] : cells) {
      // Per group column: its integer points, or the cell midpoint.
      std::vector<std::vector<double>> per_dim;
      for (const size_t g : group_columns) {
        std::vector<double> pts;
        if (schema.field(g).type == FieldType::kInt64) {
          const auto lo = static_cast<int64_t>(std::ceil(coords[g] * width));
          const auto hi =
              static_cast<int64_t>(std::ceil((coords[g] + 1) * width)) - 1;
          for (int64_t v = lo; v <= hi; ++v) {
            pts.push_back(static_cast<double>(v));
          }
          if (pts.empty()) pts.push_back(coords[g] * width);
        } else {
          pts.push_back(Mid(coords[g]));
        }
        per_dim.push_back(std::move(pts));
      }
      double num_points = 1.0;
      for (const auto& pts : per_dim) {
        num_points *= static_cast<double>(pts.size());
      }
      const double weight = count / num_points;
      std::vector<size_t> cursor(per_dim.size(), 0);
      while (true) {
        std::vector<Value> key;
        for (size_t d = 0; d < per_dim.size(); ++d) {
          const double v = per_dim[d][cursor[d]];
          key.push_back(schema.field(group_columns[d]).type ==
                                FieldType::kInt64
                            ? Value::Int64(static_cast<int64_t>(v))
                            : Value::Double(v));
        }
        auto [it, inserted] = groups.try_emplace(std::move(key));
        if (inserted) it->second.resize(agg_columns.size());
        for (size_t a = 0; a < agg_columns.size(); ++a) {
          if (agg_columns[a] == kCountOnlyColumn) {
            it->second[a].count += weight;
            continue;
          }
          double value = Mid(coords[agg_columns[a]]);
          for (size_t d = 0; d < group_columns.size(); ++d) {
            if (group_columns[d] == agg_columns[a]) {
              value = per_dim[d][cursor[d]];
              break;
            }
          }
          it->second[a].Add(value, weight);
        }
        size_t d = 0;
        for (; d < cursor.size(); ++d) {
          if (++cursor[d] < per_dim[d].size()) break;
          cursor[d] = 0;
        }
        if (d == cursor.size()) break;
      }
    }
    return groups;
  }

  std::string State() const {
    serde::Writer writer;
    writer.WriteDouble(width);
    writer.WriteU64(cells.size());
    for (const auto& [coords, count] : cells) {
      writer.WriteU64(coords.size());
      for (const int64_t c : coords) writer.WriteI64(c);
      writer.WriteDouble(count);
    }
    writer.WriteDouble(total);
    return writer.TakeBytes();
  }
};

/// A histogram under test and its reference, built from the same inputs.
struct Twin {
  SynopsisPtr got;
  RefGrid want;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameState(const Twin& t, const std::string& what) {
  serde::Writer writer;
  t.got->SaveState(&writer);
  EXPECT_EQ(writer.bytes(), t.want.State()) << what;
  EXPECT_EQ(Bits(t.got->TotalCount()), Bits(t.want.total)) << what;
  EXPECT_EQ(t.got->SizeInCells(), t.want.cells.size()) << what;
}

void ExpectSameGroups(const Twin& t, const std::vector<size_t>& group_columns,
                      const std::vector<size_t>& agg_columns,
                      const std::string& what) {
  auto got = t.got->EstimateGroups(group_columns, agg_columns);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const GroupedEstimate want = t.want.Groups(group_columns, agg_columns);
  ASSERT_EQ(got->size(), want.size()) << what;
  auto g = got->begin();
  for (const auto& [key, accs] : want) {
    ASSERT_EQ(g->first.size(), key.size()) << what;
    for (size_t i = 0; i < key.size(); ++i) {
      EXPECT_EQ(g->first[i].type(), key[i].type()) << what;
      EXPECT_TRUE(g->first[i] == key[i]) << what;
    }
    ASSERT_EQ(g->second.size(), accs.size()) << what;
    for (size_t a = 0; a < accs.size(); ++a) {
      EXPECT_EQ(Bits(g->second[a].count), Bits(accs[a].count)) << what;
      EXPECT_EQ(Bits(g->second[a].sum), Bits(accs[a].sum)) << what;
      EXPECT_EQ(Bits(g->second[a].min), Bits(accs[a].min)) << what;
      EXPECT_EQ(Bits(g->second[a].max), Bits(accs[a].max)) << what;
    }
    ++g;
  }
}

/// EstimateGroups without GROUP BY, and grouped by the first column (and
/// by the first two when there are two), each with COUNT(*) and
/// accumulators over the first and last columns.
void ExpectSameGroupings(const Twin& t, const std::string& what) {
  const size_t arity = t.want.schema.num_fields();
  const std::vector<size_t> aggs = {kCountOnlyColumn, 0, arity - 1};
  ExpectSameGroups(t, {}, aggs, what + " global");
  ExpectSameGroups(t, {0}, aggs, what + " by 0");
  if (arity >= 2) ExpectSameGroups(t, {1, 0}, aggs, what + " by 1,0");
}

Schema RandomSchema(Rng* rng, size_t arity, const std::string& prefix) {
  std::vector<Field> fields;
  for (size_t i = 0; i < arity; ++i) {
    fields.push_back({prefix + std::to_string(i),
                      rng->Bernoulli(0.7) ? FieldType::kInt64
                                          : FieldType::kDouble});
  }
  return Schema(std::move(fields));
}

Tuple RandomTuple(Rng* rng, const Schema& schema) {
  std::vector<Value> values;
  for (const Field& f : schema.fields()) {
    values.push_back(f.type == FieldType::kInt64
                         ? Value::Int64(rng->UniformInt(-12, 12))
                         : Value::Double(rng->UniformDouble(-12, 12)));
  }
  return Tuple(std::move(values));
}

Twin RandomTwin(Rng* rng, const Schema& schema, double width) {
  Twin t{MakeGrid(schema, width), RefGrid{schema, width}};
  const int64_t rows = rng->UniformInt(0, 80);
  for (int64_t r = 0; r < rows; ++r) {
    const Tuple tuple = RandomTuple(rng, schema);
    t.got->Insert(tuple);
    t.want.Insert(tuple);
  }
  return t;
}

Twin UnionOf(const Twin& l, const Twin& r, const std::string& what) {
  OpStats stats;
  auto got = l.got->UnionAllWith(*r.got, &stats);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  int64_t work = 0;
  Twin out{std::move(got).value(), l.want.UnionAll(r.want, &work)};
  EXPECT_EQ(stats.work, work) << what;
  ExpectSameState(out, what);
  return out;
}

Twin JoinOf(const Twin& l, const Twin& r,
            const std::vector<std::pair<size_t, size_t>>& keys,
            const std::string& what) {
  OpStats stats;
  auto got = l.got->EquiJoinWith(*r.got, keys, &stats);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  int64_t work = 0;
  RefGrid want = l.want.EquiJoin(r.want, keys, (*got)->schema(), &work);
  Twin out{std::move(got).value(), std::move(want)};
  EXPECT_EQ(stats.work, work) << what;
  ExpectSameState(out, what);
  return out;
}

Twin ProjectOf(const Twin& in, const std::vector<size_t>& indices,
               const std::string& what) {
  std::vector<std::string> names;
  for (const size_t i : indices) names.push_back("p" + std::to_string(i));
  OpStats stats;
  auto got = in.got->ProjectColumns(indices, names, &stats);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  int64_t work = 0;
  RefGrid want = in.want.Project(indices, (*got)->schema(), &work);
  Twin out{std::move(got).value(), std::move(want)};
  EXPECT_EQ(stats.work, work) << what;
  ExpectSameState(out, what);
  return out;
}

Twin FilterOf(const Twin& in, Rng* rng, const std::string& what) {
  const size_t column = static_cast<size_t>(rng->UniformInt(
      0, static_cast<int64_t>(in.want.schema.num_fields()) - 1));
  const auto predicate = plan::BoundExpr::Binary(
      sql::BinaryOp::kGreater,
      plan::BoundExpr::Column(column, in.want.schema.field(column).type),
      plan::BoundExpr::Literal(Value::Double(rng->UniformDouble(-12, 12))));
  OpStats stats;
  auto got = in.got->Filter(*predicate, &stats);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  int64_t work = 0;
  Twin out{std::move(got).value(), in.want.Filter(*predicate, &work)};
  EXPECT_EQ(stats.work, work) << what;
  ExpectSameState(out, what);
  return out;
}

/// Between one column and all but one, drawn without replacement in
/// random order, so projections merge cells.
std::vector<size_t> MergingProjection(Rng* rng, size_t arity) {
  std::vector<size_t> columns(arity);
  for (size_t i = 0; i < arity; ++i) columns[i] = i;
  for (size_t i = arity; i > 1; --i) {
    std::swap(columns[i - 1],
              columns[static_cast<size_t>(
                  rng->UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
  const int64_t keep =
      rng->UniformInt(1, std::max<int64_t>(1, static_cast<int64_t>(arity) - 1));
  columns.resize(static_cast<size_t>(keep));
  return columns;
}

class GridHistogramDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(GridHistogramDifferentialTest, MatchesMapReference) {
  for (const double width : {2.5, 3.0, 4.0, 5.0}) {
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919 +
            static_cast<uint64_t>(width * 2));
    const std::string at = "seed " + std::to_string(GetParam()) +
                           " width " + std::to_string(width) + ": ";
    const size_t left_arity = static_cast<size_t>(rng.UniformInt(1, 3));
    const size_t right_arity = static_cast<size_t>(rng.UniformInt(1, 3));
    const Schema left_schema = RandomSchema(&rng, left_arity, "l");
    const Schema right_schema = RandomSchema(&rng, right_arity, "r");
    const Twin a = RandomTwin(&rng, left_schema, width);
    const Twin b = RandomTwin(&rng, left_schema, width);
    const Twin c = RandomTwin(&rng, right_schema, width);
    ExpectSameState(a, at + "insert");
    ExpectSameState(c, at + "insert");
    for (int i = 0; i < 8; ++i) {
      // Points inside the populated range, and one cell far outside it.
      const Tuple point =
          rng.Bernoulli(0.3)
              ? Tuple(std::vector<Value>(left_arity, Value::Int64(100)))
              : RandomTuple(&rng, left_schema);
      EXPECT_EQ(Bits(a.got->EstimatePointCount(point)),
                Bits(a.want.PointCount(point)))
          << at << "point " << point.ToString();
    }
    ExpectSameGroupings(a, at + "groups of insert");

    const Twin u = UnionOf(a, b, at + "union");
    for (size_t num_keys = 0; num_keys <= 2; ++num_keys) {
      std::vector<std::pair<size_t, size_t>> keys;
      for (size_t k = 0; k < num_keys; ++k) {
        keys.emplace_back(
            static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(left_arity) - 1)),
            static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(right_arity) - 1)));
      }
      const std::string join = at + std::to_string(num_keys) + "-key join";
      const Twin j = JoinOf(u, c, keys, join);
      const Twin p = ProjectOf(
          j, MergingProjection(&rng, j.want.schema.num_fields()),
          join + " project");
      ExpectSameGroupings(p, join + " project");
      const Twin f = FilterOf(p, &rng, join + " project filter");
      ExpectSameGroupings(f, join + " project filter");
      // Chains: lhs-only, shared and rhs-only cells in both union orders,
      // then a second merging projection.
      const Twin pf = UnionOf(p, f, join + " project ∪ filter");
      const Twin fp = UnionOf(f, p, join + " filter ∪ project");
      const Twin chain = ProjectOf(
          UnionOf(pf, fp, join + " chain union"),
          MergingProjection(&rng, p.want.schema.num_fields()),
          join + " chain project");
      ExpectSameGroupings(chain, join + " chain");
      ExpectSameGroupings(FilterOf(j, &rng, join + " filter"),
                          join + " filter");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridHistogramDifferentialTest,
                         ::testing::Range(1, 41));

}  // namespace
}  // namespace datatriage::synopsis
