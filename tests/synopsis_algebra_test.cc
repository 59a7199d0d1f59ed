// The synopsis algebra's argument contract, family by family: a bad
// union, join, projection or grouped estimate returns a Status with the
// same code whatever the family, and whether or not the synopsis holds
// data (DESIGN.md §3: no exceptions, no crashes).

#include <gtest/gtest.h>

#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "src/synopsis/factory.h"

namespace datatriage::synopsis {
namespace {

constexpr SynopsisType kFamilies[] = {
    SynopsisType::kGridHistogram,   SynopsisType::kMHist,
    SynopsisType::kAlignedMHist,    SynopsisType::kReservoirSample,
    SynopsisType::kAviHistogram,    SynopsisType::kExact,
};

struct Case {
  SynopsisType type;
  bool filled;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << SynopsisTypeToString(c.type) << (c.filled ? ", filled" : ", empty");
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return std::string(SynopsisTypeToString(info.param.type)) +
         (info.param.filled ? "_filled" : "_empty");
}

SynopsisPtr Make(SynopsisType type, size_t arity, bool filled) {
  SynopsisConfig config;
  config.type = type;
  config.mhist.max_buckets = 8;
  config.reservoir.capacity = 16;
  std::vector<Field> fields;
  for (size_t i = 0; i < arity; ++i) {
    fields.push_back({"c" + std::to_string(i), FieldType::kInt64});
  }
  auto made = MakeSynopsis(config, Schema(fields));
  DT_CHECK(made.ok()) << made.status().ToString();
  SynopsisPtr s = std::move(made).value();
  if (filled) {
    for (int64_t i = 0; i < 40; ++i) {
      std::vector<Value> values;
      for (size_t c = 0; c < arity; ++c) {
        values.push_back(Value::Int64((i * (3 + static_cast<int64_t>(c))) %
                                      17));
      }
      s->Insert(Tuple(std::move(values)));
    }
  }
  return s;
}

/// A family other than `type` (the next one in kFamilies).
SynopsisType OtherFamily(SynopsisType type) {
  const size_t n = std::size(kFamilies);
  for (size_t i = 0; i < n; ++i) {
    if (kFamilies[i] == type) return kFamilies[(i + 1) % n];
  }
  return type;
}

class SynopsisAlgebraContractTest : public ::testing::TestWithParam<Case> {
 protected:
  SynopsisPtr Self(size_t arity = 2) const {
    return Make(GetParam().type, arity, GetParam().filled);
  }
};

TEST_P(SynopsisAlgebraContractTest, WellFormedCallsSucceed) {
  const SynopsisPtr s = Self();
  const SynopsisPtr t = Self();
  OpStats stats;
  EXPECT_TRUE(s->UnionAllWith(*t, &stats).ok());
  auto joined = s->EquiJoinWith(*t, {{0, 1}}, &stats);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ((*joined)->schema().num_fields(), 4u);
  EXPECT_EQ((*joined)->schema().field(0).name, "l.c0");
  EXPECT_EQ((*joined)->schema().field(3).name, "r.c1");
  auto projected = s->ProjectColumns({1}, {"x"}, &stats);
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  EXPECT_EQ((*projected)->schema().field(0).name, "x");
  EXPECT_TRUE(s->EstimateGroups({0}, {1, kCountOnlyColumn}).ok());
}

TEST_P(SynopsisAlgebraContractTest, OtherFamilyIsInvalidArgument) {
  const SynopsisPtr s = Self();
  const SynopsisPtr other =
      Make(OtherFamily(GetParam().type), 2, GetParam().filled);
  OpStats stats;
  for (const Status& status :
       {s->UnionAllWith(*other, &stats).status(),
        s->EquiJoinWith(*other, {{0, 0}}, &stats).status()}) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find(SynopsisTypeToString(s->type())),
              std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find(SynopsisTypeToString(other->type())),
              std::string::npos)
        << status.ToString();
  }
  EXPECT_EQ(stats.work, 0);
}

TEST_P(SynopsisAlgebraContractTest, UnionOfDifferentArityIsInvalidArgument) {
  const SynopsisPtr s = Self(2);
  const SynopsisPtr wider = Self(3);
  OpStats stats;
  EXPECT_EQ(s->UnionAllWith(*wider, &stats).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(wider->UnionAllWith(*s, &stats).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.work, 0);
}

TEST_P(SynopsisAlgebraContractTest, ColumnPastTheArityIsOutOfRange) {
  const SynopsisPtr s = Self();
  const SynopsisPtr t = Self();
  OpStats stats;
  EXPECT_EQ(s->EquiJoinWith(*t, {{5, 0}}, &stats).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(s->EquiJoinWith(*t, {{0, 1}, {0, 2}}, &stats).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(s->ProjectColumns({0, 2}, {"a", "b"}, &stats).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(s->EstimateGroups({2}, {kCountOnlyColumn}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(s->EstimateGroups({0}, {7}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(s->EstimateGroups({}, {kCountOnlyColumn, 2}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(stats.work, 0);
}

TEST_P(SynopsisAlgebraContractTest, NameCountMismatchIsInvalidArgument) {
  const SynopsisPtr s = Self();
  OpStats stats;
  EXPECT_EQ(s->ProjectColumns({0, 1}, {"a"}, &stats).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s->ProjectColumns({0}, {"a", "b"}, &stats).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.work, 0);
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (SynopsisType type : kFamilies) {
    cases.push_back({type, false});
    cases.push_back({type, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SynopsisAlgebraContractTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace datatriage::synopsis
