#include "src/sql/parser.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/plan/binder.h"
#include "src/rewrite/data_triage_rewrite.h"
#include "tests/test_util.h"

namespace datatriage::sql {
namespace {

TEST(ParseIntervalTest, Units) {
  EXPECT_DOUBLE_EQ(ParseIntervalSeconds("1 second").value(), 1.0);
  EXPECT_DOUBLE_EQ(ParseIntervalSeconds("2 seconds").value(), 2.0);
  EXPECT_DOUBLE_EQ(ParseIntervalSeconds("250 milliseconds").value(), 0.25);
  EXPECT_DOUBLE_EQ(ParseIntervalSeconds("500 ms").value(), 0.5);
  EXPECT_DOUBLE_EQ(ParseIntervalSeconds("0.5 minutes").value(), 30.0);
  EXPECT_DOUBLE_EQ(ParseIntervalSeconds("1 hour").value(), 3600.0);
  EXPECT_DOUBLE_EQ(ParseIntervalSeconds("  3  SECONDS ").value(), 3.0);
}

TEST(ParseIntervalTest, Rejections) {
  EXPECT_FALSE(ParseIntervalSeconds("second").ok());
  EXPECT_FALSE(ParseIntervalSeconds("1 fortnight").ok());
  EXPECT_FALSE(ParseIntervalSeconds("x seconds").ok());
  EXPECT_FALSE(ParseIntervalSeconds("-1 second").ok());
  EXPECT_FALSE(ParseIntervalSeconds("0 seconds").ok());
}

TEST(ParserTest, CreateStream) {
  auto stmt = ParseStatement("CREATE STREAM R (a INTEGER, b DOUBLE);");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, Statement::Kind::kCreateStream);
  const CreateStreamStatement& create = *stmt->create_stream;
  EXPECT_EQ(create.name, "r");
  ASSERT_EQ(create.columns.size(), 2u);
  EXPECT_EQ(create.columns[0].name, "a");
  EXPECT_EQ(create.columns[0].type, FieldType::kInt64);
  EXPECT_EQ(create.columns[1].type, FieldType::kDouble);
}

TEST(ParserTest, PaperFigure7Query) {
  auto stmt = ParseStatement(
      "SELECT a, COUNT(*) as count FROM R,S,T WHERE R.a = S.b AND "
      "S.c = T.d GROUP BY a; WINDOW R['1 second'], S['1 second'], "
      "T['1 second'];");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
  const SelectStatement& select = *stmt->select;
  ASSERT_EQ(select.items.size(), 2u);
  EXPECT_EQ(select.items[0].expr->column, "a");
  EXPECT_EQ(select.items[1].agg, AggFunc::kCount);
  EXPECT_TRUE(select.items[1].count_star);
  EXPECT_EQ(select.items[1].alias, "count");
  ASSERT_EQ(select.from.size(), 3u);
  EXPECT_EQ(select.from[1].name, "s");
  ASSERT_EQ(select.group_by.size(), 1u);
  ASSERT_EQ(select.windows.size(), 3u);
  EXPECT_EQ(select.windows[2].stream, "t");
  EXPECT_DOUBLE_EQ(select.windows[2].seconds, 1.0);
  ASSERT_NE(select.where, nullptr);
}

TEST(ParserTest, SelectStarAndAliases) {
  auto stmt = ParseStatement("SELECT * FROM R AS x, S y");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStatement& select = *stmt->select;
  ASSERT_EQ(select.items.size(), 1u);
  EXPECT_TRUE(select.items[0].is_star);
  EXPECT_EQ(select.from[0].alias, "x");
  EXPECT_EQ(select.from[1].alias, "y");
  EXPECT_EQ(select.from[1].effective_name(), "y");
}

TEST(ParserTest, ExpressionPrecedence) {
  auto stmt = ParseStatement("SELECT a FROM R WHERE a + 2 * 3 < 10 OR "
                             "NOT b = 1 AND c > 0");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  // OR binds loosest: ((a + (2*3)) < 10) OR ((NOT (b=1)) AND (c>0)).
  const Expr& where = *stmt->select->where;
  ASSERT_EQ(where.kind, Expr::Kind::kBinary);
  EXPECT_EQ(where.binary_op, BinaryOp::kOr);
  EXPECT_EQ(where.lhs->binary_op, BinaryOp::kLess);
  EXPECT_EQ(where.lhs->lhs->binary_op, BinaryOp::kAdd);
  EXPECT_EQ(where.lhs->lhs->rhs->binary_op, BinaryOp::kMul);
  EXPECT_EQ(where.rhs->binary_op, BinaryOp::kAnd);
  EXPECT_EQ(where.rhs->lhs->kind, Expr::Kind::kUnary);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto stmt = ParseStatement("SELECT a FROM R WHERE (a + 2) * 3 = 9");
  ASSERT_TRUE(stmt.ok());
  const Expr& where = *stmt->select->where;
  EXPECT_EQ(where.binary_op, BinaryOp::kEq);
  EXPECT_EQ(where.lhs->binary_op, BinaryOp::kMul);
  EXPECT_EQ(where.lhs->lhs->binary_op, BinaryOp::kAdd);
}

TEST(ParserTest, UnaryMinusAndLiterals) {
  auto stmt = ParseStatement("SELECT a FROM R WHERE a > -2.5");
  ASSERT_TRUE(stmt.ok());
  const Expr& where = *stmt->select->where;
  ASSERT_EQ(where.rhs->kind, Expr::Kind::kUnary);
  EXPECT_EQ(where.rhs->unary_op, UnaryOp::kNegate);
  EXPECT_DOUBLE_EQ(where.rhs->lhs->literal.dbl(), 2.5);
}

TEST(ParserTest, AllAggregateFunctions) {
  auto stmt = ParseStatement(
      "SELECT COUNT(*), SUM(a), AVG(a), MIN(a), MAX(a) FROM R GROUP BY b");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStatement& select = *stmt->select;
  ASSERT_EQ(select.items.size(), 5u);
  EXPECT_EQ(select.items[0].agg, AggFunc::kCount);
  EXPECT_EQ(select.items[1].agg, AggFunc::kSum);
  EXPECT_EQ(select.items[2].agg, AggFunc::kAvg);
  EXPECT_EQ(select.items[3].agg, AggFunc::kMin);
  EXPECT_EQ(select.items[4].agg, AggFunc::kMax);
}

TEST(ParserTest, DistinctFlag) {
  auto stmt = ParseStatement("SELECT DISTINCT a FROM R");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->select->distinct);
}

TEST(ParserTest, UnionAllAndExcept) {
  auto union_stmt = ParseStatement(
      "(SELECT a FROM R) UNION ALL (SELECT b FROM S)");
  ASSERT_TRUE(union_stmt.ok()) << union_stmt.status().ToString();
  ASSERT_EQ(union_stmt->kind, Statement::Kind::kSetOp);
  EXPECT_EQ(union_stmt->set_op->op, SetOpKind::kUnionAll);

  auto except_stmt =
      ParseStatement("(SELECT a FROM R) EXCEPT (SELECT b FROM S)");
  ASSERT_TRUE(except_stmt.ok());
  EXPECT_EQ(except_stmt->set_op->op, SetOpKind::kExcept);
}

TEST(ParserTest, UnionRequiresAll) {
  EXPECT_FALSE(
      ParseStatement("(SELECT a FROM R) UNION (SELECT b FROM S)").ok());
}

TEST(ParserTest, CountStarOnlyForCount) {
  EXPECT_FALSE(ParseStatement("SELECT SUM(*) FROM R").ok());
}

TEST(ParserTest, ErrorsIncludePosition) {
  auto result = ParseStatement("SELECT FROM R");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 1"), std::string::npos);
}

TEST(ParserTest, MissingFromFails) {
  EXPECT_FALSE(ParseStatement("SELECT a").ok());
}

TEST(ParserTest, ScriptParsesMultipleStatements) {
  auto script = ParseScript(
      "CREATE STREAM R (a INTEGER);\n"
      "CREATE STREAM S (b INTEGER, c INTEGER);\n"
      "SELECT a FROM R, S WHERE R.a = S.b;");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->size(), 3u);
  EXPECT_EQ((*script)[0].kind, Statement::Kind::kCreateStream);
  EXPECT_EQ((*script)[2].kind, Statement::Kind::kSelect);
}

TEST(ParserTest, StatementRoundTripsThroughToString) {
  const char* text =
      "SELECT a, COUNT(*) AS count FROM r, s WHERE r.a = s.b GROUP BY a";
  auto stmt = ParseStatement(text);
  ASSERT_TRUE(stmt.ok());
  // Re-parse the rendering; it must produce the same rendering again.
  auto reparsed = ParseStatement(stmt->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString()
                             << "\nrendered: " << stmt->ToString();
  EXPECT_EQ(stmt->ToString(), reparsed->ToString());
}

TEST(ParserTest, WindowClauseWithoutSemicolonAlsoAccepted) {
  auto stmt = ParseStatement(
      "SELECT a FROM R WINDOW R ['2 seconds']");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->select->windows.size(), 1u);
  EXPECT_DOUBLE_EQ(stmt->select->windows[0].seconds, 2.0);
}

// --- Expression depth limit -------------------------------------------

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

/// A WHERE predicate of each hostile shape whose expression tree is
/// `depth` nodes deep, or (parentheses) that nests `depth` levels.
std::vector<std::string> PredicatesOfDepth(int depth) {
  return {
      Repeat("(", depth) + "a = 1" + Repeat(")", depth),
      Repeat("NOT ", depth - 2) + "a = 1",
      "a = 1" + Repeat(" AND a = 1", depth - 2),
      "a = a" + Repeat(" + 1", depth - 2),
      "a = " + Repeat("- ", depth - 2) + "1",
  };
}

Result<Statement> ParseWhere(const std::string& predicate) {
  return ParseStatement("SELECT a FROM R WHERE " + predicate);
}

// The time each hostile statement may take. AddressSanitizer builds at
// -O0 lex these ~10^5-token inputs about twenty times slower than the
// optimized build, so they get a budget that still catches a hang but
// not instrumentation overhead.
#if defined(__SANITIZE_ADDRESS__)
constexpr auto kHostileParseBudget = std::chrono::seconds(10);
#else
constexpr auto kHostileParseBudget = std::chrono::seconds(1);
#endif

// Each shape, 5,000 or 50,000 deep, once overflowed the stack: nested
// parentheses and NOTs in the parser, an AND chain in the rewrite and a
// `+` chain in the binder.
TEST(ParserTest, DeepExpressionsReturnInvalidArgumentFast) {
  const std::string limit = std::to_string(kMaxExpressionDepth);
  const std::vector<std::string> hostile = {
      Repeat("(", 5000) + "a = 1" + Repeat(")", 5000),
      Repeat("NOT ", 50000) + "a = 1",
      "a = 1" + Repeat(" AND a = 1", 49999),
      "a = a" + Repeat(" + 1", 49999),
  };
  for (const std::string& predicate : hostile) {
    const auto start = std::chrono::steady_clock::now();
    auto stmt = ParseWhere(predicate);
    EXPECT_LT(std::chrono::steady_clock::now() - start, kHostileParseBudget);
    ASSERT_FALSE(stmt.ok()) << predicate.substr(0, 40);
    EXPECT_EQ(stmt.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(stmt.status().message().find(limit), std::string::npos)
        << stmt.status().ToString();
  }
}

TEST(ParserTest, ExpressionsAtTheDepthLimitParseBindAndRewrite) {
  const Catalog catalog = testing::PaperCatalog();
  for (const std::string& predicate : PredicatesOfDepth(kMaxExpressionDepth)) {
    auto stmt = ParseWhere(predicate);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    EXPECT_LE(stmt->select->where->height, kMaxExpressionDepth);
    auto bound = plan::BindStatement(*stmt, catalog);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto triaged = rewrite::RewriteForDataTriage(std::move(bound).value());
    EXPECT_TRUE(triaged.ok()) << triaged.status().ToString();
  }
  for (const std::string& predicate :
       PredicatesOfDepth(kMaxExpressionDepth + 1)) {
    EXPECT_EQ(ParseWhere(predicate).status().code(),
              StatusCode::kInvalidArgument)
        << predicate.substr(0, 40);
  }
}

}  // namespace
}  // namespace datatriage::sql
