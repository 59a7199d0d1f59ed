#ifndef DATATRIAGE_SQL_AST_H_
#define DATATRIAGE_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "src/catalog/field_type.h"
#include "src/common/result.h"
#include "src/tuple/value.h"

namespace datatriage::sql {

enum class BinaryOp {
  kEq,
  kNotEq,
  kLess,
  kLessEq,
  kGreater,
  kGreaterEq,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kAnd,
  kOr,
};

enum class UnaryOp { kNot, kNegate };

std::string_view BinaryOpToString(BinaryOp op);
std::string_view UnaryOpToString(UnaryOp op);

/// True for =, <>, <, <=, >, >=.
bool IsComparisonOp(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Unbound scalar expression as written in the query text. A single tagged
/// struct rather than a class hierarchy: the expression language is small
/// and the binder visits every node anyway.
struct Expr {
  enum class Kind { kColumnRef, kLiteral, kUnary, kBinary };

  Kind kind = Kind::kLiteral;

  // kColumnRef: optional stream qualifier + column name ("R.a" or "a").
  std::string table;
  std::string column;

  // kLiteral.
  Value literal;

  // kUnary (operand in `lhs`) / kBinary.
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kEq;
  ExprPtr lhs;
  ExprPtr rhs;

  /// Nodes on the longest path from this node down to a leaf; the
  /// factories below keep it.
  int height = 1;

  static ExprPtr ColumnRef(std::string table, std::string column);
  static ExprPtr Literal(Value value);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);

  ExprPtr Clone() const;
  std::string ToString() const;
};

enum class AggFunc { kNone, kCount, kSum, kAvg, kMin, kMax };

std::string_view AggFuncToString(AggFunc func);

/// One item in the SELECT list: a plain expression, `*`, or an aggregate
/// over an expression (COUNT(*) has `count_star` set and a null expr).
struct SelectItem {
  bool is_star = false;
  AggFunc agg = AggFunc::kNone;
  bool count_star = false;
  ExprPtr expr;
  std::string alias;

  std::string ToString() const;
};

/// FROM-clause entry. The alias defaults to the stream name.
struct TableRef {
  std::string name;
  std::string alias;

  const std::string& effective_name() const {
    return alias.empty() ? name : alias;
  }
};

/// WINDOW R ['1 second'] or R ['2 seconds', '1 second'] entry: `seconds`
/// is the window range; `slide_seconds` the hop between consecutive
/// windows (0 means unspecified, i.e. tumbling: slide == range).
struct WindowSpec {
  std::string stream;
  double seconds = 1.0;
  double slide_seconds = 0.0;
};

/// ORDER BY entry: an output column (by name) plus direction.
struct OrderBySpec {
  ExprPtr expr;
  bool descending = false;
};

/// `MATCH (A THEN B [THEN C]) PARTITION BY <col> WITHIN '<interval>'`:
/// a sequence pattern over one stream. Each step is a boolean predicate
/// over the stream's columns; a match is a strictly ordered subsequence
/// of tuples — one per step, all sharing the partition-key value — whose
/// first-to-last timestamp span is at most `within_seconds`.
struct MatchClause {
  std::vector<ExprPtr> steps;
  /// Partition key column ("R.a" or bare "a").
  std::string partition_table;
  std::string partition_column;
  double within_seconds = 0.0;

  std::string ToString() const;
};

struct SelectStatement {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  std::unique_ptr<MatchClause> match;  // null when absent
  ExprPtr where;                    // null when absent
  std::vector<ExprPtr> group_by;
  ExprPtr having;                   // null when absent
  std::vector<OrderBySpec> order_by;
  /// Per-window result cap; < 0 means no LIMIT.
  int64_t limit = -1;
  std::vector<WindowSpec> windows;

  std::string ToString() const;
};

struct ColumnDef {
  std::string name;
  FieldType type = FieldType::kInt64;
};

struct CreateStreamStatement {
  std::string name;
  std::vector<ColumnDef> columns;

  std::string ToString() const;
};

enum class SetOpKind { kUnionAll, kExcept };

/// `(SELECT ...) UNION ALL / EXCEPT (SELECT ...)`. Present so the
/// differential set-difference operator (paper Sec. 3.2.3) is reachable
/// from SQL, not only from hand-built plans.
struct SetOpStatement {
  SetOpKind op = SetOpKind::kUnionAll;
  std::unique_ptr<SelectStatement> lhs;
  std::unique_ptr<SelectStatement> rhs;

  std::string ToString() const;
};

struct Statement {
  enum class Kind { kSelect, kCreateStream, kSetOp };

  Kind kind = Kind::kSelect;
  std::unique_ptr<SelectStatement> select;
  std::unique_ptr<CreateStreamStatement> create_stream;
  std::unique_ptr<SetOpStatement> set_op;

  std::string ToString() const;
};

/// Parses interval strings like "1 second", "2 seconds", "250
/// milliseconds", "0.5 minutes" into seconds.
Result<double> ParseIntervalSeconds(std::string_view text);

}  // namespace datatriage::sql

#endif  // DATATRIAGE_SQL_AST_H_
