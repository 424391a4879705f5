#ifndef PREQR_SQL_PARSER_H_
#define PREQR_SQL_PARSER_H_

#include <string>

#include "common/status.h"
#include "sql/ast.h"

namespace preqr::sql {

// Parses a SQL SELECT statement (the dialect used throughout the paper:
// aggregates, implicit and explicit joins, conjunctive WHERE with
// =/<>/</<=/>/>=/LIKE/IN/BETWEEN, IN-subqueries, UNION, GROUP BY,
// ORDER BY, LIMIT). Returns a ParseError status on malformed input.
StatusOr<SelectStatement> Parse(const std::string& sql);

}  // namespace preqr::sql

#endif  // PREQR_SQL_PARSER_H_
