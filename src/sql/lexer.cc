#include "sql/lexer.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>

namespace preqr::sql {

namespace {
constexpr std::array<const char*, 31> kKeywords = {
    "SELECT", "FROM",  "WHERE",   "AND",   "OR",    "NOT",   "IN",
    "BETWEEN", "LIKE", "UNION",   "GROUP", "BY",    "ORDER", "HAVING",
    "AS",      "JOIN", "ON",      "INNER", "LEFT",  "RIGHT", "COUNT",
    "SUM",     "AVG",  "MIN",     "MAX",   "DISTINCT", "LIMIT", "ASC",
    "DESC",    "IS",   "NULL",
};
}  // namespace

bool IsSqlKeyword(const std::string& upper_word) {
  return std::find_if(kKeywords.begin(), kKeywords.end(),
                      [&](const char* kw) { return upper_word == kw; }) !=
         kKeywords.end();
}

StatusOr<std::vector<Token>> Lex(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(sql[j])) ||
                       sql[j] == '_')) {
        ++j;
      }
      std::string word = sql.substr(i, j - i);
      std::string upper = word;
      std::transform(upper.begin(), upper.end(), upper.begin(),
                     [](unsigned char ch) { return std::toupper(ch); });
      Token t;
      if (IsSqlKeyword(upper)) {
        t.type = TokenType::kKeyword;
        t.text = upper;
      } else {
        t.type = TokenType::kIdentifier;
        std::transform(word.begin(), word.end(), word.begin(),
                       [](unsigned char ch) { return std::tolower(ch); });
        t.text = word;
      }
      tokens.push_back(std::move(t));
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(sql[i + 1])) &&
         (tokens.empty() || tokens.back().type == TokenType::kSymbol ||
          tokens.back().type == TokenType::kKeyword))) {
      size_t j = i + 1;
      bool is_float = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(sql[j])) ||
                       sql[j] == '.')) {
        if (sql[j] == '.') {
          if (j + 1 < n &&
              !std::isdigit(static_cast<unsigned char>(sql[j + 1]))) {
            break;  // qualified-name dot, not a decimal point
          }
          is_float = true;
        }
        ++j;
      }
      Token t;
      t.type = TokenType::kNumber;
      t.text = sql.substr(i, j - i);
      t.number = std::strtod(t.text.c_str(), nullptr);
      t.is_integer = !is_float;
      tokens.push_back(std::move(t));
      i = j;
      continue;
    }
    if (c == '\'') {
      size_t j = i + 1;
      std::string value;
      while (j < n && sql[j] != '\'') {
        value.push_back(sql[j]);
        ++j;
      }
      if (j >= n) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(i));
      }
      Token t;
      t.type = TokenType::kString;
      t.text = std::move(value);
      tokens.push_back(std::move(t));
      i = j + 1;
      continue;
    }
    // Multi-char operators first.
    if (i + 1 < n) {
      const std::string two = sql.substr(i, 2);
      if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
        Token t;
        t.type = TokenType::kSymbol;
        t.text = two == "!=" ? "<>" : two;
        tokens.push_back(std::move(t));
        i += 2;
        continue;
      }
    }
    if (std::string("(),.*=<>;").find(c) != std::string::npos) {
      Token t;
      t.type = TokenType::kSymbol;
      t.text = std::string(1, c);
      tokens.push_back(std::move(t));
      ++i;
      continue;
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' at offset " + std::to_string(i));
  }
  Token end;
  end.type = TokenType::kEnd;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace preqr::sql
