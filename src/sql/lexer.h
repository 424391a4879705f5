#ifndef PREQR_SQL_LEXER_H_
#define PREQR_SQL_LEXER_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace preqr::sql {

enum class TokenType {
  kKeyword,     // SELECT, FROM, ... (upper-cased canonical text)
  kIdentifier,  // table / column / alias names (lower-cased)
  kNumber,      // integer or float literal
  kString,      // 'quoted' string literal (text without quotes)
  kSymbol,      // punctuation and operators: ( ) , . = <> <= >= < > * ;
  kEnd,         // end of input
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;    // canonical text (see above)
  double number = 0;   // valid when type == kNumber
  bool is_integer = false;

  bool IsKeyword(const char* kw) const {
    return type == TokenType::kKeyword && text == kw;
  }
  bool IsSymbol(const char* s) const {
    return type == TokenType::kSymbol && text == s;
  }
};

// Tokenizes a SQL string. Keywords are recognized case-insensitively.
// Returns a trailing kEnd token on success.
StatusOr<std::vector<Token>> Lex(const std::string& sql);

// True if `word` (upper-cased) is a recognized SQL keyword.
bool IsSqlKeyword(const std::string& upper_word);

}  // namespace preqr::sql

#endif  // PREQR_SQL_LEXER_H_
