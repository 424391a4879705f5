#ifndef PREQR_DB_PLAN_H_
#define PREQR_DB_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "db/cost_model.h"
#include "db/database.h"
#include "sql/ast.h"

namespace preqr::db {

// Result of executing a (COUNT-style) query.
struct ExecResult {
  // Exact number of joined rows satisfying all predicates.
  double cardinality = 0;
  // Deterministic work units: tuples scanned + hash build entries +
  // per-subtree intermediate join sizes + output emission. Serves as the
  // ground-truth "cost" the cost-estimation task predicts.
  double cost = 0;
  // Row ids of the first (root) table that contribute at least one join
  // result; populated when `collect_root_rows` is set. Used as the
  // result-set identity for the CH similarity ground truth.
  std::vector<int> root_row_ids;
};

// True if the pattern (SQL LIKE with % and _) matches the text.
bool LikeMatch(const std::string& text, const std::string& pattern);

// Evaluates one filter predicate (no join, no subquery) against row `row`
// of `table`, where `col` is the index of the predicate's column. Exposed
// for samplers/estimators that scan rows directly.
bool PredicatePasses(const Table& table, int col, const sql::Predicate& pred,
                     size_t row);

// A filter predicate resolved against one table occurrence.
struct BoundFilter {
  const sql::Predicate* pred = nullptr;
  int col = -1;       // column index in the binding's table
  int subquery = -1;  // index into BoundQuery::subquery_values, or -1
};

// One table occurrence in the query, with its filter bitmap.
struct Binding {
  std::string name;  // alias or table name
  const Table* table = nullptr;
  std::vector<BoundFilter> filters;
  std::vector<char> pass;  // per-row filter bitmap
  double pass_count = 0;   // rows surviving the bitmap (hash-build input)
};

// An equi-join predicate resolved to binding/column indices.
struct JoinEdge {
  int a = -1, b = -1;          // binding indices
  int col_a = -1, col_b = -1;  // column indices in respective tables
};

// A statement bound against the database: tables resolved, predicates
// classified into join edges and per-binding filters, IN-subqueries
// evaluated, filter bitmaps materialized, and the join graph validated
// (spanning tree over the bindings; self-loops, cycles and disconnected
// components are kInvalidArgument).
struct BoundQuery {
  std::vector<Binding> bindings;
  std::vector<JoinEdge> joins;
  std::vector<std::unordered_set<int64_t>> subquery_values;
  // Work accrued while binding, in accrual order: subquery execution costs
  // (classification order), then one scan per binding (binding order).
  // Plan execution continues this sum, preserving the pre-refactor
  // accumulation sequence bit for bit.
  double bind_cost = 0;
  // The subquery share of bind_cost, for cost models that weight scans.
  double subquery_cost = 0;
};

// Executes an IN-subquery statement with collect_root_rows semantics; the
// executor passes its own recursive Execute here.
using SubqueryExecFn =
    std::function<StatusOr<ExecResult>(const sql::SelectStatement&)>;

StatusOr<BoundQuery> BindQuery(const Database& db,
                               const sql::SelectStatement& stmt,
                               const SubqueryExecFn& exec_subquery);

// Per-node execution statistics, filled in as the plan runs.
struct PlanStats {
  double out_rows = 0;       // qualifying subtree combinations produced
  double build_entries = 0;  // distinct join keys handed to the parent
  double cost = 0;           // this node's own work-unit contribution
};

// A node in the (n-ary, rooted) join-tree plan. Execution is bottom-up:
// each non-root node aggregates its subtree's qualifying combination
// weights by the join key toward its parent; the root combines its
// children's weight maps into the final count. Each node reports its own
// work units and intermediate cardinality in stats().
class PlanNode {
 public:
  enum class Kind { kScan, kHashJoin };

  PlanNode(Kind kind, int binding) : kind_(kind), binding_(binding) {}
  virtual ~PlanNode() = default;

  Kind kind() const { return kind_; }
  int binding() const { return binding_; }
  const PlanStats& stats() const { return stats_; }
  virtual size_t num_children() const = 0;

  // Aggregates this subtree's qualifying combinations by `key_col` of this
  // node's binding, adding this node's work units to *cost.
  virtual std::unordered_map<int64_t, double> ExecuteUp(const BoundQuery& bq,
                                                        int key_col,
                                                        double* cost) = 0;

  // Runs this node as the plan root: sets result->cardinality, appends the
  // emission cost, and optionally collects contributing root row ids.
  virtual void ExecuteRoot(const BoundQuery& bq, bool collect_root_rows,
                           ExecResult* result) = 0;

 protected:
  Kind kind_;
  int binding_;
  PlanStats stats_;
};

// Leaf: one filtered base-table occurrence.
class ScanNode : public PlanNode {
 public:
  explicit ScanNode(int binding) : PlanNode(Kind::kScan, binding) {}
  size_t num_children() const override { return 0; }
  std::unordered_map<int64_t, double> ExecuteUp(const BoundQuery& bq,
                                                int key_col,
                                                double* cost) override;
  void ExecuteRoot(const BoundQuery& bq, bool collect_root_rows,
                   ExecResult* result) override;
};

// Internal node: probes this binding's filtered rows against each child's
// aggregated weight map (one hash join per child edge).
class HashJoinNode : public PlanNode {
 public:
  struct Input {
    int probe_col = -1;  // this binding's column on the child edge
    int build_col = -1;  // the child binding's key column on that edge
    std::unique_ptr<PlanNode> child;
  };

  HashJoinNode(int binding, std::vector<Input> inputs)
      : PlanNode(Kind::kHashJoin, binding), inputs_(std::move(inputs)) {}
  size_t num_children() const override { return inputs_.size(); }
  const std::vector<Input>& inputs() const { return inputs_; }
  std::unordered_map<int64_t, double> ExecuteUp(const BoundQuery& bq,
                                                int key_col,
                                                double* cost) override;
  void ExecuteRoot(const BoundQuery& bq, bool collect_root_rows,
                   ExecResult* result) override;

 private:
  std::vector<Input> inputs_;
};

// Builds the join-tree plan rooted at `root` (child order follows edge
// discovery order, i.e. join-predicate order). BuildDefaultPlan roots at
// binding 0, reproducing the pre-refactor executor's traversal exactly.
std::unique_ptr<PlanNode> BuildRootedPlan(const BoundQuery& bq, int root);
inline std::unique_ptr<PlanNode> BuildDefaultPlan(const BoundQuery& bq) {
  return BuildRootedPlan(bq, 0);
}

// One step of an explicit left-deep join order.
struct JoinStep {
  int binding = -1;              // table occurrence joined at this step
  double build_rows = 0;         // its filtered row count (hash-build input)
  double intermediate_rows = 0;  // exact |join(prefix)| after this step
};

// Result of executing an explicit left-deep order: the same exact count as
// the default plan (counts are join-order invariant), plus per-step
// cardinalities and the pipeline cost under `cm`.
struct PlannedExecResult {
  double cardinality = 0;
  double cost = 0;
  std::vector<JoinStep> steps;
};

// Executes the bound query in the explicit left-deep order `order` (a
// permutation of binding indices; every prefix must induce a connected
// subgraph of the join tree). All join columns along the tree must be
// integer-typed. Costs follow `cm` over the exact per-prefix cardinalities.
StatusOr<PlannedExecResult> ExecuteLeftDeep(const BoundQuery& bq,
                                            const std::vector<int>& order,
                                            const CostModel& cm = {});

// A query's join graph without the (expensive) filter bitmaps: table count
// plus resolved, validated join edges. Used by the join planner, which only
// needs topology and estimates.
struct JoinGraph {
  size_t num_tables = 0;
  std::vector<JoinEdge> edges;
};

// Resolves and validates the join graph of `stmt` (same table binding and
// validation rules as BindQuery, minus bitmaps and subquery execution).
StatusOr<JoinGraph> ResolveJoinGraph(const Database& db,
                                     const sql::SelectStatement& stmt);

}  // namespace preqr::db

#endif  // PREQR_DB_PLAN_H_
