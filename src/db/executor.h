#ifndef PREQR_DB_EXECUTOR_H_
#define PREQR_DB_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/database.h"
#include "db/plan.h"
#include "sql/ast.h"

namespace preqr::db {

// Executes SELECT statements against the in-memory database. Joins must be
// acyclic (tree-shaped), which holds for all generated workloads; join
// columns must be integers (FK ids). Counting is performed bottom-up over
// the join tree (weights per key), so cardinalities in the billions are
// computed without materialization.
//
// Execution is organized as a plan-node tree (db/plan.h): Execute binds the
// statement, builds the default plan (rooted at the first FROM table) and
// runs it; ExecuteOrder runs an explicit caller-chosen left-deep join order
// and reports per-step cardinalities, which is what the join planner costs.
class Executor {
 public:
  explicit Executor(const Database& db) : db_(db) {}

  StatusOr<ExecResult> Execute(const sql::SelectStatement& stmt,
                               bool collect_root_rows = false) const;

  // Binds a non-UNION statement: resolves tables and predicates, evaluates
  // IN-subqueries, materializes filter bitmaps, validates the join graph.
  StatusOr<BoundQuery> Bind(const sql::SelectStatement& stmt) const;

  // Executes `stmt` in the explicit left-deep join order `order` (indices
  // into stmt.tables; every prefix must stay connected in the join tree).
  // The returned cardinality equals Execute()'s; the cost follows `cm`
  // over the exact per-prefix intermediate cardinalities.
  StatusOr<PlannedExecResult> ExecuteOrder(const sql::SelectStatement& stmt,
                                           const std::vector<int>& order,
                                           const CostModel& cm = {}) const;

  // True if the pattern (SQL LIKE with % and _) matches the text.
  static bool LikeMatch(const std::string& text, const std::string& pattern);

 private:
  const Database& db_;
};

}  // namespace preqr::db

#endif  // PREQR_DB_EXECUTOR_H_
