#include "src/sql/lexer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace datatriage::sql {
namespace {

std::vector<TokenType> Types(const std::vector<Token>& tokens) {
  std::vector<TokenType> types;
  for (const Token& t : tokens) types.push_back(t.type);
  return types;
}

TEST(LexerTest, EmptyInputYieldsEndOfInput) {
  auto tokens = Tokenize("");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ(tokens->front().type, TokenType::kEndOfInput);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("SELECT select SeLeCt");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(Types(*tokens),
            (std::vector<TokenType>{TokenType::kSelect, TokenType::kSelect,
                                    TokenType::kSelect,
                                    TokenType::kEndOfInput}));
}

TEST(LexerTest, IdentifiersAreLowerCased) {
  auto tokens = Tokenize("MyStream R_kept");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "mystream");
  EXPECT_EQ((*tokens)[1].text, "r_kept");
}

TEST(LexerTest, QuotedIdentifiersPreserveCase) {
  auto tokens = Tokenize("\"MyStream\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "MyStream");
}

TEST(LexerTest, NumericLiterals) {
  auto tokens = Tokenize("42 3.5 1e3 2.5E-2");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kIntLiteral);
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_EQ((*tokens)[1].type, TokenType::kDoubleLiteral);
  EXPECT_DOUBLE_EQ((*tokens)[1].double_value, 3.5);
  EXPECT_DOUBLE_EQ((*tokens)[2].double_value, 1000.0);
  EXPECT_DOUBLE_EQ((*tokens)[3].double_value, 0.025);
}

TEST(LexerTest, StringLiteralWithEscapedQuote) {
  auto tokens = Tokenize("'1 second' 'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kStringLiteral);
  EXPECT_EQ((*tokens)[0].text, "1 second");
  EXPECT_EQ((*tokens)[1].text, "it's");
}

TEST(LexerTest, OperatorsIncludingTwoCharForms) {
  auto tokens = Tokenize("= <> != < <= > >= + - * / ( ) [ ] , ; .");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(Types(*tokens),
            (std::vector<TokenType>{
                TokenType::kEq, TokenType::kNotEq, TokenType::kNotEq,
                TokenType::kLess, TokenType::kLessEq, TokenType::kGreater,
                TokenType::kGreaterEq, TokenType::kPlus, TokenType::kMinus,
                TokenType::kStar, TokenType::kSlash, TokenType::kLParen,
                TokenType::kRParen, TokenType::kLBracket,
                TokenType::kRBracket, TokenType::kComma,
                TokenType::kSemicolon, TokenType::kDot,
                TokenType::kEndOfInput}));
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = Tokenize("select -- the whole line\n1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(Types(*tokens),
            (std::vector<TokenType>{TokenType::kSelect,
                                    TokenType::kIntLiteral,
                                    TokenType::kEndOfInput}));
}

TEST(LexerTest, QualifiedNameLexesAsDotSeparated) {
  auto tokens = Tokenize("R.a");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(Types(*tokens),
            (std::vector<TokenType>{TokenType::kIdentifier, TokenType::kDot,
                                    TokenType::kIdentifier,
                                    TokenType::kEndOfInput}));
}

TEST(LexerTest, TracksLineAndColumn) {
  auto tokens = Tokenize("select\n  foo");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].line, 1);
  EXPECT_EQ((*tokens)[1].line, 2);
  EXPECT_EQ((*tokens)[1].column, 3);
}

TEST(LexerTest, ErrorsOnUnterminatedString) {
  auto result = Tokenize("'oops");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(LexerTest, ErrorsOnStrayCharacter) {
  EXPECT_FALSE(Tokenize("select @").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

TEST(LexerTest, IntegerLiteralOverflowIsAParseError) {
  // The minus sign is its own token, so -9223372036854775808 overflows
  // too rather than turning into -INT64_MAX.
  for (const char* huge : {"99999999999999999999999", "9223372036854775808"}) {
    for (const std::string& text :
         {std::string("a = ") + huge, std::string("a = -") + huge}) {
      auto result = Tokenize(text);
      ASSERT_FALSE(result.ok()) << text;
      EXPECT_EQ(result.status().code(), StatusCode::kParseError);
      EXPECT_NE(result.status().message().find(huge), std::string::npos)
          << result.status().ToString();
    }
  }
  auto max = Tokenize("9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->front().int_value, INT64_MAX);
}

TEST(LexerTest, PaperQueryLexesCleanly) {
  // The exact query text of paper Fig. 7.
  auto tokens = Tokenize(
      "SELECT a, COUNT(*) as count FROM R,S,T WHERE R.a = S.b AND "
      "S.c = T.d GROUP BY a; WINDOW R['1 second'], S['1 second'], "
      "T['1 second'];");
  ASSERT_TRUE(tokens.ok());
  EXPECT_GT(tokens->size(), 30u);
}

}  // namespace
}  // namespace datatriage::sql
