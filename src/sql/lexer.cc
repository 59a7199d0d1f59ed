#include "src/sql/lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>

#include "src/common/string_util.h"

namespace datatriage::sql {

namespace {

const std::map<std::string, TokenType>& KeywordTable() {
  static const auto* table = new std::map<std::string, TokenType>{
      {"select", TokenType::kSelect},   {"distinct", TokenType::kDistinct},
      {"from", TokenType::kFrom},       {"where", TokenType::kWhere},
      {"group", TokenType::kGroup},     {"by", TokenType::kBy},
      {"having", TokenType::kHaving},   {"order", TokenType::kOrder},
      {"asc", TokenType::kAsc},         {"desc", TokenType::kDesc},
      {"limit", TokenType::kLimit},
      {"window", TokenType::kWindow},   {"as", TokenType::kAs},
      {"and", TokenType::kAnd},         {"or", TokenType::kOr},
      {"not", TokenType::kNot},         {"create", TokenType::kCreate},
      {"stream", TokenType::kStream},   {"union", TokenType::kUnion},
      {"all", TokenType::kAll},         {"except", TokenType::kExcept},
      {"count", TokenType::kCount},     {"sum", TokenType::kSum},
      {"avg", TokenType::kAvg},         {"min", TokenType::kMin},
      {"max", TokenType::kMax},         {"match", TokenType::kMatch},
      {"then", TokenType::kThen},
      {"partition", TokenType::kPartition},
      {"within", TokenType::kWithin},
  };
  return *table;
}

/// Tracks position in the input and produces located tokens/errors.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespaceAndComments();
      if (AtEnd()) break;
      DT_ASSIGN_OR_RETURN(Token token, NextToken());
      tokens.push_back(std::move(token));
    }
    tokens.push_back(Make(TokenType::kEndOfInput));
    return tokens;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  char PeekAhead() const {
    return pos_ + 1 < text_.size() ? text_[pos_ + 1] : '\0';
  }

  char Advance() {
    char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void SkipWhitespaceAndComments() {
    while (!AtEnd()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '-' && PeekAhead() == '-') {
        while (!AtEnd() && Peek() != '\n') Advance();
      } else {
        break;
      }
    }
  }

  Token Make(TokenType type, std::string text = std::string()) const {
    Token t;
    t.type = type;
    t.text = std::move(text);
    t.line = token_line_;
    t.column = token_column_;
    return t;
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(StringPrintf("%s at line %d column %d",
                                           message.c_str(), token_line_,
                                           token_column_));
  }

  Result<Token> NextToken() {
    token_line_ = line_;
    token_column_ = column_;
    char c = Advance();
    switch (c) {
      case ',':
        return Make(TokenType::kComma);
      case ';':
        return Make(TokenType::kSemicolon);
      case '.':
        return Make(TokenType::kDot);
      case '(':
        return Make(TokenType::kLParen);
      case ')':
        return Make(TokenType::kRParen);
      case '[':
        return Make(TokenType::kLBracket);
      case ']':
        return Make(TokenType::kRBracket);
      case '*':
        return Make(TokenType::kStar);
      case '+':
        return Make(TokenType::kPlus);
      case '-':
        return Make(TokenType::kMinus);
      case '/':
        return Make(TokenType::kSlash);
      case '=':
        return Make(TokenType::kEq);
      case '<':
        if (!AtEnd() && Peek() == '=') {
          Advance();
          return Make(TokenType::kLessEq);
        }
        if (!AtEnd() && Peek() == '>') {
          Advance();
          return Make(TokenType::kNotEq);
        }
        return Make(TokenType::kLess);
      case '>':
        if (!AtEnd() && Peek() == '=') {
          Advance();
          return Make(TokenType::kGreaterEq);
        }
        return Make(TokenType::kGreater);
      case '!':
        if (!AtEnd() && Peek() == '=') {
          Advance();
          return Make(TokenType::kNotEq);
        }
        return Error("unexpected character '!'");
      case '\'':
        return StringLiteral();
      case '"':
        return QuotedIdentifier();
      default:
        break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      return NumberLiteral(c);
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return IdentifierOrKeyword(c);
    }
    return Error(std::string("unexpected character '") + c + "'");
  }

  Result<Token> StringLiteral() {
    std::string value;
    while (true) {
      if (AtEnd()) return Error("unterminated string literal");
      char c = Advance();
      if (c == '\'') {
        // '' inside a literal is an escaped quote.
        if (!AtEnd() && Peek() == '\'') {
          Advance();
          value += '\'';
          continue;
        }
        break;
      }
      value += c;
    }
    return Make(TokenType::kStringLiteral, std::move(value));
  }

  Result<Token> QuotedIdentifier() {
    std::string value;
    while (true) {
      if (AtEnd()) return Error("unterminated quoted identifier");
      char c = Advance();
      if (c == '"') break;
      value += c;
    }
    if (value.empty()) return Error("empty quoted identifier");
    return Make(TokenType::kIdentifier, std::move(value));
  }

  Result<Token> NumberLiteral(char first) {
    std::string digits(1, first);
    bool is_double = false;
    while (!AtEnd() &&
           std::isdigit(static_cast<unsigned char>(Peek()))) {
      digits += Advance();
    }
    // A '.' is part of the number only if followed by a digit ("1.5"); a
    // bare "R.a"-style dot never follows a digit in this grammar, but be
    // conservative anyway.
    if (!AtEnd() && Peek() == '.' &&
        std::isdigit(static_cast<unsigned char>(PeekAhead()))) {
      is_double = true;
      digits += Advance();  // '.'
      while (!AtEnd() &&
             std::isdigit(static_cast<unsigned char>(Peek()))) {
        digits += Advance();
      }
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      is_double = true;
      digits += Advance();
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) digits += Advance();
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Error("malformed exponent in numeric literal");
      }
      while (!AtEnd() &&
             std::isdigit(static_cast<unsigned char>(Peek()))) {
        digits += Advance();
      }
    }
    Token t = Make(
        is_double ? TokenType::kDoubleLiteral : TokenType::kIntLiteral,
        digits);
    if (is_double) {
      t.double_value = std::strtod(digits.c_str(), nullptr);
    } else {
      errno = 0;
      t.int_value = std::strtoll(digits.c_str(), nullptr, 10);
      if (errno == ERANGE) {
        return Error("integer literal " + digits +
                     " is out of the 64-bit INTEGER range");
      }
    }
    return t;
  }

  Result<Token> IdentifierOrKeyword(char first) {
    std::string word(1, first);
    while (!AtEnd() &&
           (std::isalnum(static_cast<unsigned char>(Peek())) ||
            Peek() == '_')) {
      word += Advance();
    }
    const std::string lower = ToLowerAscii(word);
    auto it = KeywordTable().find(lower);
    if (it != KeywordTable().end()) {
      return Make(it->second, lower);
    }
    return Make(TokenType::kIdentifier, lower);
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int token_line_ = 1;
  int token_column_ = 1;
};

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view text) {
  return Lexer(text).Run();
}

}  // namespace datatriage::sql
