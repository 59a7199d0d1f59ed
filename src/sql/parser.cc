#include "src/sql/parser.h"

#include <utility>

#include "src/common/string_util.h"
#include "src/sql/lexer.h"

namespace datatriage::sql {

namespace {

/// Recursive-descent parser over a pre-lexed token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> statements;
    while (!Check(TokenType::kEndOfInput)) {
      DT_ASSIGN_OR_RETURN(Statement stmt, ParseOne());
      statements.push_back(std::move(stmt));
      // Consume any statement separators.
      while (Match(TokenType::kSemicolon)) {
      }
    }
    return statements;
  }

  Result<Statement> ParseOne() {
    if (Check(TokenType::kCreate)) return ParseCreateStream();
    return ParseQuery();
  }

  bool AtTrueEnd() { return Check(TokenType::kEndOfInput); }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Previous() const { return tokens_[pos_ - 1]; }

  bool Check(TokenType type) const { return Peek().type == type; }

  bool Match(TokenType type) {
    if (!Check(type)) return false;
    ++pos_;
    return true;
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(
        StringPrintf("%s at line %d column %d (got %s)", message.c_str(),
                     Peek().line, Peek().column, Peek().ToString().c_str()));
  }

  Result<Token> Expect(TokenType type, const char* what) {
    if (!Check(type)) {
      return Error(std::string("expected ") + what);
    }
    Token t = Peek();
    ++pos_;
    return t;
  }

  /// True for tokens usable as a column/alias name even though they lex as
  /// keywords ("COUNT(*) AS count" in the paper's Fig. 7 query).
  bool CheckSoftName() const {
    switch (Peek().type) {
      case TokenType::kIdentifier:
      case TokenType::kCount:
      case TokenType::kSum:
      case TokenType::kAvg:
      case TokenType::kMin:
      case TokenType::kMax:
      case TokenType::kStream:
      case TokenType::kWindow:
      case TokenType::kAll:
        return true;
      default:
        return false;
    }
  }

  Result<Token> ExpectSoftName(const char* what) {
    if (!CheckSoftName()) {
      return Error(std::string("expected ") + what);
    }
    Token t = Peek();
    ++pos_;
    return t;
  }

  // -------------------------------------------------------------------
  // CREATE STREAM
  // -------------------------------------------------------------------

  Result<Statement> ParseCreateStream() {
    DT_ASSIGN_OR_RETURN(Token create, Expect(TokenType::kCreate, "CREATE"));
    (void)create;
    DT_RETURN_IF_ERROR(Expect(TokenType::kStream, "STREAM").status());
    DT_ASSIGN_OR_RETURN(Token name,
                        Expect(TokenType::kIdentifier, "stream name"));
    DT_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('").status());

    auto stmt = std::make_unique<CreateStreamStatement>();
    stmt->name = name.text;
    do {
      DT_ASSIGN_OR_RETURN(Token col,
                          Expect(TokenType::kIdentifier, "column name"));
      DT_ASSIGN_OR_RETURN(Token type_tok,
                          Expect(TokenType::kIdentifier, "column type"));
      DT_ASSIGN_OR_RETURN(FieldType type,
                          FieldTypeFromString(type_tok.text));
      stmt->columns.push_back(ColumnDef{col.text, type});
    } while (Match(TokenType::kComma));
    DT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'").status());

    Statement out;
    out.kind = Statement::Kind::kCreateStream;
    out.create_stream = std::move(stmt);
    return out;
  }

  // -------------------------------------------------------------------
  // Queries
  // -------------------------------------------------------------------

  Result<Statement> ParseQuery() {
    // Either a bare SELECT or a parenthesized SELECT followed by a set op.
    DT_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> first,
                        ParsePossiblyParenthesizedSelect());
    if (Check(TokenType::kUnion) || Check(TokenType::kExcept)) {
      auto set_op = std::make_unique<SetOpStatement>();
      if (Match(TokenType::kUnion)) {
        DT_RETURN_IF_ERROR(Expect(TokenType::kAll, "ALL").status());
        set_op->op = SetOpKind::kUnionAll;
      } else {
        DT_RETURN_IF_ERROR(Expect(TokenType::kExcept, "EXCEPT").status());
        set_op->op = SetOpKind::kExcept;
      }
      set_op->lhs = std::move(first);
      DT_ASSIGN_OR_RETURN(set_op->rhs, ParsePossiblyParenthesizedSelect());
      Statement out;
      out.kind = Statement::Kind::kSetOp;
      out.set_op = std::move(set_op);
      return out;
    }
    Statement out;
    out.kind = Statement::Kind::kSelect;
    out.select = std::move(first);
    return out;
  }

  Result<std::unique_ptr<SelectStatement>>
  ParsePossiblyParenthesizedSelect() {
    if (Match(TokenType::kLParen)) {
      DT_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> inner,
                          ParseSelect());
      DT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'").status());
      return inner;
    }
    return ParseSelect();
  }

  Result<std::unique_ptr<SelectStatement>> ParseSelect() {
    DT_RETURN_IF_ERROR(Expect(TokenType::kSelect, "SELECT").status());
    auto stmt = std::make_unique<SelectStatement>();
    stmt->distinct = Match(TokenType::kDistinct);

    do {
      DT_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      stmt->items.push_back(std::move(item));
    } while (Match(TokenType::kComma));

    DT_RETURN_IF_ERROR(Expect(TokenType::kFrom, "FROM").status());
    do {
      DT_ASSIGN_OR_RETURN(Token name,
                          Expect(TokenType::kIdentifier, "stream name"));
      TableRef ref;
      ref.name = name.text;
      if (Match(TokenType::kAs)) {
        DT_ASSIGN_OR_RETURN(Token alias, ExpectSoftName("alias"));
        ref.alias = alias.text;
      } else if (Check(TokenType::kIdentifier)) {
        ref.alias = Peek().text;
        ++pos_;
      }
      stmt->from.push_back(std::move(ref));
    } while (Match(TokenType::kComma));

    if (Check(TokenType::kMatch)) {
      DT_ASSIGN_OR_RETURN(stmt->match, ParseMatchClause());
    }

    if (Match(TokenType::kWhere)) {
      DT_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }

    if (Match(TokenType::kGroup)) {
      DT_RETURN_IF_ERROR(Expect(TokenType::kBy, "BY").status());
      do {
        DT_ASSIGN_OR_RETURN(ExprPtr col, ParseExpr());
        stmt->group_by.push_back(std::move(col));
      } while (Match(TokenType::kComma));
    }
    if (Match(TokenType::kHaving)) {
      if (stmt->group_by.empty()) {
        return Error("HAVING requires a GROUP BY clause");
      }
      DT_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (Match(TokenType::kOrder)) {
      DT_RETURN_IF_ERROR(Expect(TokenType::kBy, "BY").status());
      do {
        OrderBySpec spec;
        DT_ASSIGN_OR_RETURN(spec.expr, ParseExpr());
        if (Match(TokenType::kDesc)) {
          spec.descending = true;
        } else {
          Match(TokenType::kAsc);
        }
        stmt->order_by.push_back(std::move(spec));
      } while (Match(TokenType::kComma));
    }
    if (Match(TokenType::kLimit)) {
      DT_ASSIGN_OR_RETURN(Token n,
                          Expect(TokenType::kIntLiteral, "row count"));
      if (n.int_value < 0) return Error("LIMIT must be non-negative");
      stmt->limit = n.int_value;
    }

    // TelegraphCQ also accepts a ';' between the main clause and WINDOW
    // (see the Fig. 7 query text); tolerate it.
    size_t saved = pos_;
    if (Match(TokenType::kSemicolon) && !Check(TokenType::kWindow)) {
      pos_ = saved;  // real end of statement
    }
    if (Match(TokenType::kWindow)) {
      do {
        DT_ASSIGN_OR_RETURN(Token name,
                            Expect(TokenType::kIdentifier, "stream name"));
        DT_RETURN_IF_ERROR(Expect(TokenType::kLBracket, "'['").status());
        DT_ASSIGN_OR_RETURN(
            Token interval,
            Expect(TokenType::kStringLiteral, "interval literal"));
        DT_ASSIGN_OR_RETURN(double seconds,
                            ParseIntervalSeconds(interval.text));
        double slide_seconds = 0.0;
        if (Match(TokenType::kComma)) {
          DT_ASSIGN_OR_RETURN(
              Token slide,
              Expect(TokenType::kStringLiteral, "slide interval literal"));
          DT_ASSIGN_OR_RETURN(slide_seconds,
                              ParseIntervalSeconds(slide.text));
        }
        DT_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "']'").status());
        stmt->windows.push_back(
            WindowSpec{name.text, seconds, slide_seconds});
      } while (Match(TokenType::kComma));
    }
    return stmt;
  }

  /// `MATCH ( <expr> THEN <expr> [THEN <expr> ...] ) PARTITION BY <col>
  /// WITHIN '<interval>'`.
  Result<std::unique_ptr<MatchClause>> ParseMatchClause() {
    DT_RETURN_IF_ERROR(Expect(TokenType::kMatch, "MATCH").status());
    DT_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('").status());
    auto clause = std::make_unique<MatchClause>();
    do {
      DT_ASSIGN_OR_RETURN(ExprPtr step, ParseExpr());
      clause->steps.push_back(std::move(step));
    } while (Match(TokenType::kThen));
    if (clause->steps.size() < 2) {
      return Error("MATCH requires at least two THEN-separated steps");
    }
    DT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'").status());
    DT_RETURN_IF_ERROR(Expect(TokenType::kPartition, "PARTITION").status());
    DT_RETURN_IF_ERROR(Expect(TokenType::kBy, "BY").status());
    DT_ASSIGN_OR_RETURN(Token first,
                        Expect(TokenType::kIdentifier, "partition column"));
    if (Match(TokenType::kDot)) {
      DT_ASSIGN_OR_RETURN(Token col,
                          Expect(TokenType::kIdentifier, "column name"));
      clause->partition_table = first.text;
      clause->partition_column = col.text;
    } else {
      clause->partition_column = first.text;
    }
    DT_RETURN_IF_ERROR(Expect(TokenType::kWithin, "WITHIN").status());
    DT_ASSIGN_OR_RETURN(
        Token interval,
        Expect(TokenType::kStringLiteral, "interval literal"));
    DT_ASSIGN_OR_RETURN(clause->within_seconds,
                        ParseIntervalSeconds(interval.text));
    return clause;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (Match(TokenType::kStar)) {
      item.is_star = true;
      return item;
    }
    AggFunc agg = AggFunc::kNone;
    if (Match(TokenType::kCount)) {
      agg = AggFunc::kCount;
    } else if (Match(TokenType::kSum)) {
      agg = AggFunc::kSum;
    } else if (Match(TokenType::kAvg)) {
      agg = AggFunc::kAvg;
    } else if (Match(TokenType::kMin)) {
      agg = AggFunc::kMin;
    } else if (Match(TokenType::kMax)) {
      agg = AggFunc::kMax;
    }
    if (agg != AggFunc::kNone) {
      item.agg = agg;
      DT_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('").status());
      if (Match(TokenType::kStar)) {
        if (agg != AggFunc::kCount) {
          return Error("'*' argument is only valid for COUNT");
        }
        item.count_star = true;
      } else {
        DT_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      }
      DT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'").status());
    } else {
      DT_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    }
    if (Match(TokenType::kAs)) {
      DT_ASSIGN_OR_RETURN(Token alias, ExpectSoftName("alias"));
      item.alias = alias.text;
    } else if (Check(TokenType::kIdentifier)) {
      item.alias = Peek().text;
      ++pos_;
    }
    return item;
  }

  // -------------------------------------------------------------------
  // Expressions (precedence climbing).
  // -------------------------------------------------------------------

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Status DepthError() const {
    return Status::InvalidArgument(StringPrintf(
        "expression nested deeper than the limit of %d at line %d column %d",
        kMaxExpressionDepth, Peek().line, Peek().column));
  }

  /// Passes a freshly built node on unless its tree is too deep.
  Result<ExprPtr> Bounded(ExprPtr expr) const {
    if (expr->height > kMaxExpressionDepth) return DepthError();
    return expr;
  }

  /// Runs `parse` one nesting level deeper (a parenthesis, NOT or unary
  /// minus), failing before it recurses past kMaxExpressionDepth.
  Result<ExprPtr> Nested(Result<ExprPtr> (Parser::*parse)()) {
    if (nesting_ == kMaxExpressionDepth) return DepthError();
    ++nesting_;
    Result<ExprPtr> expr = (this->*parse)();
    --nesting_;
    return expr;
  }

  Result<ExprPtr> ParseOr() {
    DT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Match(TokenType::kOr)) {
      DT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      DT_ASSIGN_OR_RETURN(
          lhs, Bounded(Expr::Binary(BinaryOp::kOr, std::move(lhs),
                                    std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    DT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (Match(TokenType::kAnd)) {
      DT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      DT_ASSIGN_OR_RETURN(
          lhs, Bounded(Expr::Binary(BinaryOp::kAnd, std::move(lhs),
                                    std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (Match(TokenType::kNot)) {
      DT_ASSIGN_OR_RETURN(ExprPtr operand, Nested(&Parser::ParseNot));
      return Bounded(Expr::Unary(UnaryOp::kNot, std::move(operand)));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    DT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    BinaryOp op;
    if (Match(TokenType::kEq)) {
      op = BinaryOp::kEq;
    } else if (Match(TokenType::kNotEq)) {
      op = BinaryOp::kNotEq;
    } else if (Match(TokenType::kLess)) {
      op = BinaryOp::kLess;
    } else if (Match(TokenType::kLessEq)) {
      op = BinaryOp::kLessEq;
    } else if (Match(TokenType::kGreater)) {
      op = BinaryOp::kGreater;
    } else if (Match(TokenType::kGreaterEq)) {
      op = BinaryOp::kGreaterEq;
    } else {
      return lhs;
    }
    DT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    return Bounded(Expr::Binary(op, std::move(lhs), std::move(rhs)));
  }

  Result<ExprPtr> ParseAdditive() {
    DT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Check(TokenType::kPlus) || Check(TokenType::kMinus)) {
      BinaryOp op =
          Match(TokenType::kPlus) ? BinaryOp::kAdd
                                  : (Match(TokenType::kMinus), BinaryOp::kSub);
      DT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      DT_ASSIGN_OR_RETURN(
          lhs, Bounded(Expr::Binary(op, std::move(lhs), std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    DT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (Check(TokenType::kStar) || Check(TokenType::kSlash)) {
      BinaryOp op =
          Match(TokenType::kStar) ? BinaryOp::kMul
                                  : (Match(TokenType::kSlash), BinaryOp::kDiv);
      DT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      DT_ASSIGN_OR_RETURN(
          lhs, Bounded(Expr::Binary(op, std::move(lhs), std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Match(TokenType::kMinus)) {
      DT_ASSIGN_OR_RETURN(ExprPtr operand, Nested(&Parser::ParseUnary));
      return Bounded(Expr::Unary(UnaryOp::kNegate, std::move(operand)));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    if (Match(TokenType::kIntLiteral)) {
      return Expr::Literal(Value::Int64(Previous().int_value));
    }
    if (Match(TokenType::kDoubleLiteral)) {
      return Expr::Literal(Value::Double(Previous().double_value));
    }
    if (Match(TokenType::kStringLiteral)) {
      return Expr::Literal(Value::String(Previous().text));
    }
    if (Match(TokenType::kLParen)) {
      DT_ASSIGN_OR_RETURN(ExprPtr inner, Nested(&Parser::ParseExpr));
      DT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'").status());
      return inner;
    }
    if (Match(TokenType::kIdentifier)) {
      std::string first = Previous().text;
      if (Match(TokenType::kDot)) {
        DT_ASSIGN_OR_RETURN(Token col,
                            Expect(TokenType::kIdentifier, "column name"));
        return Expr::ColumnRef(std::move(first), col.text);
      }
      return Expr::ColumnRef("", std::move(first));
    }
    return Error("expected expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  /// Parentheses, NOTs and unary minuses open around the current token.
  int nesting_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(std::string_view text) {
  DT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  DT_ASSIGN_OR_RETURN(std::vector<Statement> statements, parser.ParseAll());
  if (statements.size() != 1) {
    return Status::ParseError(
        StringPrintf("expected exactly one statement, found %zu",
                     statements.size()));
  }
  return std::move(statements[0]);
}

Result<std::vector<Statement>> ParseScript(std::string_view text) {
  DT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  return Parser(std::move(tokens)).ParseAll();
}

}  // namespace datatriage::sql
