#ifndef DATATRIAGE_SQL_PARSER_H_
#define DATATRIAGE_SQL_PARSER_H_

#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/sql/ast.h"

namespace datatriage::sql {

/// Bound on expression depth. The binder, the rewrite and the evaluators
/// all recurse over expression trees, so an unbounded tree would overflow
/// their stacks.
inline constexpr int kMaxExpressionDepth = 256;

/// Parses a single statement (trailing ';' optional).
///
/// Grammar (the TelegraphCQ dialect exercised by the paper):
///
///   statement      := create_stream | query
///   create_stream  := CREATE STREAM name '(' coldef (',' coldef)* ')'
///   query          := select (( UNION ALL | EXCEPT ) select)?
///   select         := SELECT [DISTINCT] select_list FROM table_list
///                     [WHERE expr] [GROUP BY column_list]
///                     [WINDOW window_list]
///   select_list    := '*' | select_item (',' select_item)*
///   select_item    := (agg '(' ('*'|expr) ')' | expr) [[AS] alias]
///   window_list    := name '[' string ']' (',' name '[' string ']')*
///   expr           := standard precedence: OR < AND < NOT < cmp < +- < */
///                     < unary- < primary
///
/// An expression may nest parentheses, NOTs and unary minuses at most
/// kMaxExpressionDepth deep, and the tree built for it may be at most
/// kMaxExpressionDepth nodes deep (a chain of n ANDs is n + 1 deep).
/// Deeper input returns InvalidArgument naming the limit.
Result<Statement> ParseStatement(std::string_view text);

/// Parses a ';'-separated script of statements.
Result<std::vector<Statement>> ParseScript(std::string_view text);

}  // namespace datatriage::sql

#endif  // DATATRIAGE_SQL_PARSER_H_
