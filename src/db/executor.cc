#include "db/executor.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

namespace preqr::db {

using sql::SelectStatement;

bool Executor::LikeMatch(const std::string& text, const std::string& pattern) {
  return db::LikeMatch(text, pattern);
}

StatusOr<BoundQuery> Executor::Bind(const SelectStatement& stmt) const {
  if (stmt.union_next) {
    return Status::InvalidArgument(
        "UNION statements bind per branch, not as one join query");
  }
  return BindQuery(db_, stmt, [this](const SelectStatement& sub) {
    return Execute(sub, /*collect_root_rows=*/true);
  });
}

StatusOr<ExecResult> Executor::Execute(const SelectStatement& stmt,
                                       bool collect_root_rows) const {
  // UNION: execute branches, merge root row sets (dedup) when collecting.
  if (stmt.union_next) {
    SelectStatement head = stmt;
    head.union_next = nullptr;
    auto left = Execute(head, collect_root_rows);
    if (!left.ok()) return left.status();
    auto right = Execute(*stmt.union_next, collect_root_rows);
    if (!right.ok()) return right.status();
    ExecResult merged;
    merged.cost = left.value().cost + right.value().cost;
    if (collect_root_rows) {
      std::unordered_set<int> ids(left.value().root_row_ids.begin(),
                                  left.value().root_row_ids.end());
      ids.insert(right.value().root_row_ids.begin(),
                 right.value().root_row_ids.end());
      merged.root_row_ids.assign(ids.begin(), ids.end());
      std::sort(merged.root_row_ids.begin(), merged.root_row_ids.end());
      merged.cardinality = static_cast<double>(merged.root_row_ids.size());
    } else {
      merged.cardinality =
          left.value().cardinality + right.value().cardinality;
    }
    return merged;
  }

  auto bound = Bind(stmt);
  if (!bound.ok()) return bound.status();
  std::unique_ptr<PlanNode> plan = BuildDefaultPlan(bound.value());
  ExecResult result;
  result.cost = bound.value().bind_cost;
  plan->ExecuteRoot(bound.value(), collect_root_rows, &result);
  return result;
}

StatusOr<PlannedExecResult> Executor::ExecuteOrder(
    const SelectStatement& stmt, const std::vector<int>& order,
    const CostModel& cm) const {
  if (stmt.union_next) {
    return Status::InvalidArgument(
        "explicit join orders do not apply to UNION statements");
  }
  auto bound = Bind(stmt);
  if (!bound.ok()) return bound.status();
  return ExecuteLeftDeep(bound.value(), order, cm);
}

}  // namespace preqr::db
