#include "src/sql/ast.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/string_util.h"

namespace datatriage::sql {

std::string_view BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNotEq:
      return "<>";
    case BinaryOp::kLess:
      return "<";
    case BinaryOp::kLessEq:
      return "<=";
    case BinaryOp::kGreater:
      return ">";
    case BinaryOp::kGreaterEq:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

std::string_view UnaryOpToString(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNot:
      return "NOT";
    case UnaryOp::kNegate:
      return "-";
  }
  return "?";
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNotEq:
    case BinaryOp::kLess:
    case BinaryOp::kLessEq:
    case BinaryOp::kGreater:
    case BinaryOp::kGreaterEq:
      return true;
    default:
      return false;
  }
}

ExprPtr Expr::ColumnRef(std::string table, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kColumnRef;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

ExprPtr Expr::Literal(Value value) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(value);
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kUnary;
  e->unary_op = op;
  e->lhs = std::move(operand);
  e->height = 1 + e->lhs->height;
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kBinary;
  e->binary_op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  e->height = 1 + std::max(e->lhs->height, e->rhs->height);
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->table = table;
  e->column = column;
  e->literal = literal;
  e->unary_op = unary_op;
  e->binary_op = binary_op;
  e->height = height;
  if (lhs) e->lhs = lhs->Clone();
  if (rhs) e->rhs = rhs->Clone();
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kColumnRef:
      return table.empty() ? column : table + "." + column;
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kUnary:
      return std::string(UnaryOpToString(unary_op)) + " (" +
             lhs->ToString() + ")";
    case Kind::kBinary:
      return "(" + lhs->ToString() + " " +
             std::string(BinaryOpToString(binary_op)) + " " +
             rhs->ToString() + ")";
  }
  return "?";
}

std::string_view AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kNone:
      return "";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

std::string SelectItem::ToString() const {
  std::string out;
  if (is_star) {
    out = "*";
  } else if (agg != AggFunc::kNone) {
    out = std::string(AggFuncToString(agg)) + "(" +
          (count_star ? "*" : expr->ToString()) + ")";
  } else {
    out = expr->ToString();
  }
  if (!alias.empty()) out += " AS " + alias;
  return out;
}

std::string MatchClause::ToString() const {
  std::string out = "MATCH (";
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) out += " THEN ";
    out += steps[i]->ToString();
  }
  out += ") PARTITION BY ";
  if (!partition_table.empty()) out += partition_table + ".";
  out += partition_column;
  out += StringPrintf(" WITHIN '%g seconds'", within_seconds);
  return out;
}

std::string SelectStatement::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i].ToString();
  }
  out += " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) out += ", ";
    out += from[i].name;
    if (!from[i].alias.empty()) out += " AS " + from[i].alias;
  }
  if (match) out += " " + match->ToString();
  if (where) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  if (having) out += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToString();
      if (order_by[i].descending) out += " DESC";
    }
  }
  if (limit >= 0) out += StringPrintf(" LIMIT %lld", (long long)limit);
  if (!windows.empty()) {
    out += " WINDOW ";
    for (size_t i = 0; i < windows.size(); ++i) {
      if (i > 0) out += ", ";
      out += windows[i].stream;
      if (windows[i].slide_seconds > 0) {
        out += StringPrintf(" ['%g seconds', '%g seconds']",
                            windows[i].seconds,
                            windows[i].slide_seconds);
      } else {
        out += StringPrintf(" ['%g seconds']", windows[i].seconds);
      }
    }
  }
  return out;
}

std::string CreateStreamStatement::ToString() const {
  std::string out = "CREATE STREAM " + name + " (";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns[i].name;
    out += ' ';
    out += FieldTypeToString(columns[i].type);
  }
  out += ")";
  return out;
}

std::string SetOpStatement::ToString() const {
  return "(" + lhs->ToString() + ") " +
         (op == SetOpKind::kUnionAll ? "UNION ALL" : "EXCEPT") + " (" +
         rhs->ToString() + ")";
}

std::string Statement::ToString() const {
  switch (kind) {
    case Kind::kSelect:
      return select->ToString();
    case Kind::kCreateStream:
      return create_stream->ToString();
    case Kind::kSetOp:
      return set_op->ToString();
  }
  return "?";
}

Result<double> ParseIntervalSeconds(std::string_view text) {
  const std::string_view stripped = StripWhitespace(text);
  // Expect "<number> <unit>".
  size_t split = stripped.find_first_of(" \t");
  if (split == std::string_view::npos) {
    return Status::ParseError("malformed interval '" + std::string(text) +
                              "': expected '<number> <unit>'");
  }
  const std::string number(StripWhitespace(stripped.substr(0, split)));
  const std::string unit =
      ToLowerAscii(StripWhitespace(stripped.substr(split + 1)));
  char* end = nullptr;
  double quantity = std::strtod(number.c_str(), &end);
  if (end == number.c_str() || *end != '\0') {
    return Status::ParseError("malformed interval quantity '" + number +
                              "'");
  }
  if (quantity <= 0) {
    return Status::ParseError("interval must be positive, got '" +
                              std::string(text) + "'");
  }
  double scale = 0;
  if (unit == "second" || unit == "seconds" || unit == "sec" ||
      unit == "secs" || unit == "s") {
    scale = 1.0;
  } else if (unit == "millisecond" || unit == "milliseconds" ||
             unit == "ms") {
    scale = 1e-3;
  } else if (unit == "minute" || unit == "minutes" || unit == "min") {
    scale = 60.0;
  } else if (unit == "hour" || unit == "hours") {
    scale = 3600.0;
  } else {
    return Status::ParseError("unknown interval unit '" + unit + "'");
  }
  return quantity * scale;
}

}  // namespace datatriage::sql
