#ifndef PREQR_SQL_PARSER_H_
#define PREQR_SQL_PARSER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace preqr::sql {

// Parses a SQL SELECT statement (the dialect used throughout the paper:
// aggregates, implicit and explicit joins, conjunctive WHERE with
// =/<>/</<=/>/>=/LIKE/IN/BETWEEN, IN-subqueries, UNION, GROUP BY,
// ORDER BY, LIMIT). Returns a ParseError status on malformed input.
StatusOr<SelectStatement> Parse(const std::string& sql);
// The same over an already lexed stream (Lex's output, ending in kEnd), for
// callers that need the tokens too: Parse(sql) is Lex(sql) plus this.
StatusOr<SelectStatement> Parse(const std::vector<Token>& tokens);

}  // namespace preqr::sql

#endif  // PREQR_SQL_PARSER_H_
