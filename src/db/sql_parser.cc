#include "db/sql_parser.h"

#include <cctype>
#include <cstdlib>
#include <vector>

#include "common/strings.h"
#include "db/predicate.h"

namespace uuq {
namespace {

enum class TokenType {
  kIdentifier,
  kNumber,
  kString,
  kSymbol,  // ( ) , * = != <> < <= > >=
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;
  size_t position = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    size_t i = 0;
    const size_t n = input_.size();
    while (i < n) {
      const char c = input_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = i;
        while (i < n && (std::isalnum(static_cast<unsigned char>(input_[i])) ||
                         input_[i] == '_')) {
          ++i;
        }
        tokens.push_back(
            {TokenType::kIdentifier, input_.substr(start, i - start), start});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < n &&
           (std::isdigit(static_cast<unsigned char>(input_[i + 1])) ||
            input_[i + 1] == '.')) ||
          (c == '.' && i + 1 < n &&
           std::isdigit(static_cast<unsigned char>(input_[i + 1])))) {
        size_t start = i;
        if (input_[i] == '-') ++i;
        bool seen_dot = false, seen_exp = false;
        while (i < n) {
          const char d = input_[i];
          if (std::isdigit(static_cast<unsigned char>(d))) {
            ++i;
          } else if (d == '.' && !seen_dot && !seen_exp) {
            seen_dot = true;
            ++i;
          } else if ((d == 'e' || d == 'E') && !seen_exp) {
            seen_exp = true;
            ++i;
            if (i < n && (input_[i] == '+' || input_[i] == '-')) ++i;
          } else {
            break;
          }
        }
        tokens.push_back(
            {TokenType::kNumber, input_.substr(start, i - start), start});
        continue;
      }
      if (c == '\'') {
        size_t start = i;
        ++i;
        std::string text;
        bool closed = false;
        while (i < n) {
          if (input_[i] == '\'') {
            if (i + 1 < n && input_[i + 1] == '\'') {
              text += '\'';
              i += 2;
            } else {
              ++i;
              closed = true;
              break;
            }
          } else {
            text += input_[i];
            ++i;
          }
        }
        if (!closed) {
          return Status::ParseError("unterminated string literal at offset " +
                                    std::to_string(start));
        }
        tokens.push_back({TokenType::kString, std::move(text), start});
        continue;
      }
      // Multi-character operators first.
      auto two = input_.substr(i, 2);
      if (two == "!=" || two == "<>" || two == "<=" || two == ">=") {
        tokens.push_back({TokenType::kSymbol, two, i});
        i += 2;
        continue;
      }
      if (c == '(' || c == ')' || c == ',' || c == '*' || c == '=' ||
          c == '<' || c == '>') {
        tokens.push_back({TokenType::kSymbol, std::string(1, c), i});
        ++i;
        continue;
      }
      return Status::ParseError("unexpected character '" + std::string(1, c) +
                                "' at offset " + std::to_string(i));
    }
    tokens.push_back({TokenType::kEnd, "", n});
    return tokens;
  }

 private:
  const std::string& input_;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<AggregateQuery> Parse() {
    AggregateQuery query;
    if (auto s = ExpectKeyword("SELECT"); !s.ok()) return s;

    const Token agg_token = Peek();
    if (agg_token.type != TokenType::kIdentifier) {
      return Error("expected an aggregate function");
    }
    auto kind = ParseAggregateKind(agg_token.text);
    if (!kind.ok()) return kind.status();
    query.aggregate = kind.value();
    Advance();

    if (auto s = ExpectSymbol("("); !s.ok()) return s;
    const Token attr = Peek();
    if (attr.type == TokenType::kSymbol && attr.text == "*") {
      if (query.aggregate != AggregateKind::kCount) {
        return Error("'*' is only valid inside COUNT()");
      }
      query.attribute = "*";
      Advance();
    } else if (attr.type == TokenType::kIdentifier) {
      query.attribute = attr.text;
      Advance();
    } else {
      return Error("expected a column name or '*'");
    }
    if (auto s = ExpectSymbol(")"); !s.ok()) return s;

    if (auto s = ExpectKeyword("FROM"); !s.ok()) return s;
    const Token table = Peek();
    if (table.type != TokenType::kIdentifier) {
      return Error("expected a table name after FROM");
    }
    query.table_name = table.text;
    Advance();

    if (IsKeyword(Peek(), "WHERE")) {
      Advance();
      auto predicate = ParseOr();
      if (!predicate.ok()) return predicate.status();
      query.predicate = predicate.value();
    } else {
      query.predicate = MakeTrue();
    }

    if (IsKeyword(Peek(), "GROUP")) {
      Advance();
      if (auto s = ExpectKeyword("BY"); !s.ok()) return s;
      const Token column = Peek();
      if (column.type != TokenType::kIdentifier) {
        return Error("expected a column name after GROUP BY");
      }
      query.group_by = column.text;
      Advance();
    }

    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return query;
  }

 private:
  Result<PredicatePtr> ParseOr() {
    auto lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    PredicatePtr node = lhs.value();
    while (IsKeyword(Peek(), "OR")) {
      Advance();
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      node = MakeOr(std::move(node), rhs.value());
    }
    return node;
  }

  Result<PredicatePtr> ParseAnd() {
    auto lhs = ParseUnary();
    if (!lhs.ok()) return lhs;
    PredicatePtr node = lhs.value();
    while (IsKeyword(Peek(), "AND")) {
      Advance();
      auto rhs = ParseUnary();
      if (!rhs.ok()) return rhs;
      node = MakeAnd(std::move(node), rhs.value());
    }
    return node;
  }

  Result<PredicatePtr> ParseUnary() {
    if (IsKeyword(Peek(), "NOT")) {
      Advance();
      auto inner = ParseUnary();
      if (!inner.ok()) return inner;
      return MakeNot(inner.value());
    }
    if (Peek().type == TokenType::kSymbol && Peek().text == "(") {
      Advance();
      auto inner = ParseOr();
      if (!inner.ok()) return inner;
      if (auto s = ExpectSymbol(")"); !s.ok()) return s;
      return inner;
    }
    return ParseComparison();
  }

  Result<PredicatePtr> ParseComparison() {
    const Token column = Peek();
    if (column.type != TokenType::kIdentifier) {
      return Error("expected a column name in predicate");
    }
    Advance();
    const Token op_token = Peek();
    if (op_token.type != TokenType::kSymbol) {
      return Error("expected a comparison operator");
    }
    CompareOp op;
    if (op_token.text == "=") {
      op = CompareOp::kEq;
    } else if (op_token.text == "!=" || op_token.text == "<>") {
      op = CompareOp::kNe;
    } else if (op_token.text == "<") {
      op = CompareOp::kLt;
    } else if (op_token.text == "<=") {
      op = CompareOp::kLe;
    } else if (op_token.text == ">") {
      op = CompareOp::kGt;
    } else if (op_token.text == ">=") {
      op = CompareOp::kGe;
    } else {
      return Error("unknown comparison operator '" + op_token.text + "'");
    }
    Advance();
    Value literal;
    const Status status = ParseLiteral(&literal);
    if (!status.ok()) return status;
    return MakeComparison(column.text, op, std::move(literal));
  }

  // Writes through `literal`: moving the Value variant into a Result trips
  // GCC's -Wmaybe-uninitialized on its string alternative.
  Status ParseLiteral(Value* literal) {
    const Token t = Peek();
    if (t.type == TokenType::kNumber) {
      // Integers stay integral so equality against INT64 columns is exact.
      *literal = t.text.find_first_of(".eE") == std::string::npos
                     ? Value(static_cast<int64_t>(
                           std::strtoll(t.text.c_str(), nullptr, 10)))
                     : Value(std::strtod(t.text.c_str(), nullptr));
    } else if (t.type == TokenType::kString) {
      *literal = Value(t.text);
    } else if (IsKeyword(t, "true") || IsKeyword(t, "false")) {
      *literal = Value(IsKeyword(t, "true"));
    } else if (IsKeyword(t, "null")) {
      *literal = Value::Null();
    } else {
      return Status::ParseError("expected a literal at offset " +
                                std::to_string(t.position));
    }
    Advance();
    return Status::OK();
  }

  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  static bool IsKeyword(const Token& t, const char* kw) {
    return t.type == TokenType::kIdentifier && EqualsIgnoreCase(t.text, kw);
  }

  Status ExpectKeyword(const char* kw) {
    if (!IsKeyword(Peek(), kw)) {
      return Status::ParseError(std::string("expected keyword ") + kw +
                                " at offset " +
                                std::to_string(Peek().position));
    }
    Advance();
    return Status::OK();
  }

  Status ExpectSymbol(const char* symbol) {
    if (Peek().type != TokenType::kSymbol || Peek().text != symbol) {
      return Status::ParseError(std::string("expected '") + symbol +
                                "' at offset " +
                                std::to_string(Peek().position));
    }
    Advance();
    return Status::OK();
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at offset " +
                              std::to_string(Peek().position));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<AggregateQuery> ParseQuery(const std::string& sql) {
  Lexer lexer(sql);
  auto tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.Parse();
}

}  // namespace uuq
