#include "db/plan.h"

#include <algorithm>
#include <string>

namespace preqr::db {

namespace {

using sql::ColumnRef;
using sql::ColumnType;
using sql::CompareOp;
using sql::Literal;
using sql::Predicate;
using sql::SelectStatement;

// Resolves a column reference to (binding index, column index).
bool ResolveColumn(const std::vector<Binding>& bindings, const ColumnRef& ref,
                   int* binding_idx, int* col_idx) {
  if (!ref.qualifier.empty()) {
    for (size_t i = 0; i < bindings.size(); ++i) {
      if (bindings[i].name == ref.qualifier ||
          bindings[i].table->name() == ref.qualifier) {
        const int c = bindings[i].table->def().ColumnIndex(ref.column);
        if (c < 0) return false;
        *binding_idx = static_cast<int>(i);
        *col_idx = c;
        return true;
      }
    }
    return false;
  }
  // Unqualified: unique table containing the column.
  int found = -1, found_col = -1;
  for (size_t i = 0; i < bindings.size(); ++i) {
    const int c = bindings[i].table->def().ColumnIndex(ref.column);
    if (c >= 0) {
      if (found >= 0) return false;  // ambiguous
      found = static_cast<int>(i);
      found_col = c;
    }
  }
  if (found < 0) return false;
  *binding_idx = found;
  *col_idx = found_col;
  return true;
}

bool CompareNumeric(double lhs, CompareOp op, double rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    default:
      return false;
  }
}

bool CompareString(const std::string& lhs, CompareOp op,
                   const std::string& rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kLike:
      return LikeMatch(lhs, rhs);
    default:
      return false;
  }
}

// Evaluates one filter predicate against one row.
bool RowPasses(const Table& table, int col, const Predicate& pred, size_t row,
               const std::unordered_set<int64_t>* subquery_ints) {
  const Column& column = table.column(col);
  if (column.type == ColumnType::kString) {
    const std::string& v = column.strings[row];
    switch (pred.op) {
      case CompareOp::kIn: {
        for (const auto& lit : pred.values) {
          if (lit.kind == Literal::Kind::kString && v == lit.string_value) {
            return true;
          }
        }
        return false;
      }
      case CompareOp::kBetween:
        return v >= pred.values[0].string_value &&
               v <= pred.values[1].string_value;
      default:
        return CompareString(v, pred.op, pred.values[0].string_value);
    }
  }
  const double v = column.AsDouble(row);
  switch (pred.op) {
    case CompareOp::kIn: {
      if (subquery_ints != nullptr) {
        return subquery_ints->count(static_cast<int64_t>(v)) > 0;
      }
      for (const auto& lit : pred.values) {
        if (v == lit.AsDouble()) return true;
      }
      return false;
    }
    case CompareOp::kBetween:
      return v >= pred.values[0].AsDouble() && v <= pred.values[1].AsDouble();
    default:
      return CompareNumeric(v, pred.op, pred.values[0].AsDouble());
  }
}

// The join graph must be a spanning tree over the bindings: no self-loops,
// exactly n-1 equi-join edges, every binding reachable. Anything else used
// to be silently mis-executed (self-joins on a single table occurrence) or
// caught late; now it is a uniform kInvalidArgument.
Status ValidateJoinGraph(size_t num_tables,
                         const std::vector<JoinEdge>& joins) {
  for (const auto& e : joins) {
    if (e.a == e.b) {
      return Status::InvalidArgument(
          "self-join predicate joins a table occurrence to itself");
    }
  }
  if (num_tables == 1) {
    return joins.empty()
               ? Status()
               : Status::InvalidArgument(
                     "join predicate on a single-table query");
  }
  if (joins.size() != num_tables - 1) {
    return Status::InvalidArgument(
        "join graph is not a tree (" + std::to_string(joins.size()) +
        " equi-join edges over " + std::to_string(num_tables) + " tables)");
  }
  std::vector<char> visited(num_tables, 0);
  std::vector<int> stack = {0};
  visited[0] = 1;
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    for (const auto& e : joins) {
      const int other = e.a == node ? e.b : (e.b == node ? e.a : -1);
      if (other >= 0 && visited[static_cast<size_t>(other)] == 0) {
        visited[static_cast<size_t>(other)] = 1;
        stack.push_back(other);
      }
    }
  }
  for (char v : visited) {
    if (v == 0) return Status::InvalidArgument("join graph is disconnected");
  }
  return Status();
}

// Edge indices incident to each binding, in join-predicate order — the
// order that fixes both the default plan's child order and, with it, the
// floating-point accumulation sequence of the cost.
std::vector<std::vector<int>> BuildAdjacency(const BoundQuery& bq) {
  std::vector<std::vector<int>> adj(bq.bindings.size());
  for (size_t e = 0; e < bq.joins.size(); ++e) {
    adj[static_cast<size_t>(bq.joins[e].a)].push_back(static_cast<int>(e));
    adj[static_cast<size_t>(bq.joins[e].b)].push_back(static_cast<int>(e));
  }
  return adj;
}

// DFS plan construction from `root`, skipping bindings already marked in
// `visited` (used to restrict the plan to a subset of the join tree).
std::unique_ptr<PlanNode> BuildPlanFrom(const BoundQuery& bq,
                                        const std::vector<std::vector<int>>& adj,
                                        std::vector<char>& visited, int root) {
  visited[static_cast<size_t>(root)] = 1;
  std::vector<HashJoinNode::Input> inputs;
  for (int ei : adj[static_cast<size_t>(root)]) {
    const JoinEdge& e = bq.joins[static_cast<size_t>(ei)];
    const int other = e.a == root ? e.b : e.a;
    if (visited[static_cast<size_t>(other)] != 0) continue;
    HashJoinNode::Input in;
    in.probe_col = e.a == root ? e.col_a : e.col_b;
    in.build_col = e.a == root ? e.col_b : e.col_a;
    in.child = BuildPlanFrom(bq, adj, visited, other);
    inputs.push_back(std::move(in));
  }
  if (inputs.empty()) return std::make_unique<ScanNode>(root);
  return std::make_unique<HashJoinNode>(root, std::move(inputs));
}

// Exact cardinality of the join restricted to the bindings in `in_subset`
// (which must induce a connected subtree containing `root`).
double CountSubset(const BoundQuery& bq, const std::vector<char>& in_subset,
                   int root) {
  const auto adj = BuildAdjacency(bq);
  std::vector<char> visited(bq.bindings.size(), 0);
  for (size_t i = 0; i < visited.size(); ++i) {
    visited[i] = in_subset[i] != 0 ? 0 : 1;
  }
  auto plan = BuildPlanFrom(bq, adj, visited, root);
  ExecResult scratch;
  plan->ExecuteRoot(bq, /*collect_root_rows=*/false, &scratch);
  return scratch.cardinality;
}

}  // namespace

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard matching with % (any run) and _ (any single char).
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (p < pattern.size() &&
               (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

bool PredicatePasses(const Table& table, int col, const Predicate& pred,
                     size_t row) {
  return RowPasses(table, col, pred, row, nullptr);
}

StatusOr<BoundQuery> BindQuery(const Database& db,
                               const SelectStatement& stmt,
                               const SubqueryExecFn& exec_subquery) {
  BoundQuery bq;

  // Bind tables.
  for (const auto& tref : stmt.tables) {
    const Table* table = db.FindTable(tref.table);
    if (table == nullptr) {
      return Status::NotFound("unknown table: " + tref.table);
    }
    Binding b;
    b.name = tref.BindingName();
    b.table = table;
    bq.bindings.push_back(std::move(b));
  }
  if (bq.bindings.empty()) return Status::InvalidArgument("no tables");

  // Classify predicates; evaluate IN-subqueries up front (their execution
  // cost accrues here, in predicate order, before any scan cost).
  for (size_t pi = 0; pi < stmt.predicates.size(); ++pi) {
    const Predicate& pred = stmt.predicates[pi];
    if (pred.IsJoin()) {
      JoinEdge e;
      if (!ResolveColumn(bq.bindings, pred.lhs, &e.a, &e.col_a) ||
          !ResolveColumn(bq.bindings, pred.rhs_column, &e.b, &e.col_b)) {
        return Status::NotFound("cannot resolve join columns for " +
                                pred.lhs.ToString());
      }
      if (pred.op != CompareOp::kEq) {
        return Status::InvalidArgument("only equi-joins are supported");
      }
      bq.joins.push_back(e);
      continue;
    }
    int bi = -1, ci = -1;
    if (!ResolveColumn(bq.bindings, pred.lhs, &bi, &ci)) {
      return Status::NotFound("cannot resolve column " + pred.lhs.ToString());
    }
    BoundFilter filter;
    filter.pred = &pred;
    filter.col = ci;
    if (pred.subquery) {
      // Evaluate the subquery: collect the projected column's values over
      // the subquery root table's qualifying rows.
      if (exec_subquery == nullptr) {
        return Status::InvalidArgument(
            "IN-subqueries require a subquery executor");
      }
      auto sub = exec_subquery(*pred.subquery);
      if (!sub.ok()) return sub.status();
      bq.bind_cost += sub.value().cost;
      bq.subquery_cost += sub.value().cost;
      if (pred.subquery->items.empty() || pred.subquery->items[0].star) {
        return Status::InvalidArgument("subquery must project one column");
      }
      const Table* sub_root = db.FindTable(pred.subquery->tables[0].table);
      const int sub_col =
          sub_root->def().ColumnIndex(pred.subquery->items[0].column.column);
      if (sub_col < 0) {
        return Status::NotFound("unknown subquery projection column");
      }
      const Column& scol = sub_root->column(sub_col);
      if (scol.type == ColumnType::kString) {
        return Status::InvalidArgument("string IN-subqueries unsupported");
      }
      std::unordered_set<int64_t> values;
      for (int row : sub.value().root_row_ids) {
        values.insert(scol.type == ColumnType::kInt
                          ? scol.ints[static_cast<size_t>(row)]
                          : static_cast<int64_t>(
                                scol.floats[static_cast<size_t>(row)]));
      }
      filter.subquery = static_cast<int>(bq.subquery_values.size());
      bq.subquery_values.push_back(std::move(values));
    }
    bq.bindings[static_cast<size_t>(bi)].filters.push_back(filter);
  }

  if (Status s = ValidateJoinGraph(bq.bindings.size(), bq.joins); !s.ok()) {
    return s;
  }

  // Per-table filter bitmaps; scanning cost.
  for (auto& b : bq.bindings) {
    const size_t n = b.table->num_rows();
    bq.bind_cost += static_cast<double>(n);
    b.pass.assign(n, 1);
    for (const BoundFilter& filter : b.filters) {
      const std::unordered_set<int64_t>* sub =
          filter.subquery >= 0
              ? &bq.subquery_values[static_cast<size_t>(filter.subquery)]
              : nullptr;
      for (size_t row = 0; row < n; ++row) {
        if (b.pass[row] != 0 &&
            !RowPasses(*b.table, filter.col, *filter.pred, row, sub)) {
          b.pass[row] = 0;
        }
      }
    }
    for (char v : b.pass) {
      if (v != 0) b.pass_count += 1;
    }
  }
  return bq;
}

std::unordered_map<int64_t, double> ScanNode::ExecuteUp(const BoundQuery& bq,
                                                        int key_col,
                                                        double* cost) {
  const Binding& b = bq.bindings[static_cast<size_t>(binding_)];
  std::unordered_map<int64_t, double> out;
  const Column& key_column = b.table->column(key_col);
  PREQR_CHECK(key_column.type == ColumnType::kInt);
  double subtree_size = 0;
  for (size_t row = 0; row < b.pass.size(); ++row) {
    if (b.pass[row] == 0) continue;
    const double w = 1.0;
    out[key_column.ints[row]] += w;
    subtree_size += w;
  }
  // Hash build + intermediate size contribute to cost.
  const double contribution =
      static_cast<double>(out.size()) + subtree_size;
  *cost += contribution;
  stats_.out_rows = subtree_size;
  stats_.build_entries = static_cast<double>(out.size());
  stats_.cost = contribution;
  return out;
}

void ScanNode::ExecuteRoot(const BoundQuery& bq, bool collect_root_rows,
                           ExecResult* result) {
  const Binding& b = bq.bindings[static_cast<size_t>(binding_)];
  double count = 0;
  for (size_t row = 0; row < b.pass.size(); ++row) {
    if (b.pass[row] != 0) {
      count += 1;
      if (collect_root_rows) {
        result->root_row_ids.push_back(static_cast<int>(row));
      }
    }
  }
  result->cardinality = count;
  const double emit = count * 0.1;
  result->cost += emit;
  stats_.out_rows = count;
  stats_.build_entries = 0;
  stats_.cost = emit;
}

std::unordered_map<int64_t, double> HashJoinNode::ExecuteUp(
    const BoundQuery& bq, int key_col, double* cost) {
  const Binding& b = bq.bindings[static_cast<size_t>(binding_)];
  // Gather child maps first (post-order, in edge-discovery order).
  struct ChildMap {
    int col;  // this node's join column toward the child
    std::unordered_map<int64_t, double> weights;
  };
  std::vector<ChildMap> children;
  children.reserve(inputs_.size());
  for (auto& in : inputs_) {
    ChildMap cm;
    cm.col = in.probe_col;
    cm.weights = in.child->ExecuteUp(bq, in.build_col, cost);
    children.push_back(std::move(cm));
  }
  // Aggregate this node's rows by its parent-join column.
  std::unordered_map<int64_t, double> out;
  const Column& key_column = b.table->column(key_col);
  PREQR_CHECK(key_column.type == ColumnType::kInt);
  double subtree_size = 0;
  for (size_t row = 0; row < b.pass.size(); ++row) {
    if (b.pass[row] == 0) continue;
    double w = 1.0;
    for (const auto& cm : children) {
      const Column& ccol = b.table->column(cm.col);
      const int64_t key = ccol.type == ColumnType::kInt
                              ? ccol.ints[row]
                              : static_cast<int64_t>(ccol.AsDouble(row));
      auto it = cm.weights.find(key);
      if (it == cm.weights.end()) {
        w = 0.0;
        break;
      }
      w *= it->second;
    }
    if (w > 0.0) {
      out[key_column.ints[row]] += w;
      subtree_size += w;
    }
  }
  // Hash build + intermediate size contribute to cost.
  const double contribution =
      static_cast<double>(out.size()) + subtree_size;
  *cost += contribution;
  stats_.out_rows = subtree_size;
  stats_.build_entries = static_cast<double>(out.size());
  stats_.cost = contribution;
  return out;
}

void HashJoinNode::ExecuteRoot(const BoundQuery& bq, bool collect_root_rows,
                               ExecResult* result) {
  const Binding& b = bq.bindings[static_cast<size_t>(binding_)];
  struct ChildMap {
    int col;
    std::unordered_map<int64_t, double> weights;
  };
  std::vector<ChildMap> children;
  children.reserve(inputs_.size());
  for (auto& in : inputs_) {
    ChildMap cm;
    cm.col = in.probe_col;
    cm.weights = in.child->ExecuteUp(bq, in.build_col, &result->cost);
    children.push_back(std::move(cm));
  }
  double total = 0;
  for (size_t row = 0; row < b.pass.size(); ++row) {
    if (b.pass[row] == 0) continue;
    double w = 1.0;
    for (const auto& cm : children) {
      const Column& ccol = b.table->column(cm.col);
      const int64_t key = ccol.type == ColumnType::kInt
                              ? ccol.ints[row]
                              : static_cast<int64_t>(ccol.AsDouble(row));
      auto it = cm.weights.find(key);
      if (it == cm.weights.end()) {
        w = 0.0;
        break;
      }
      w *= it->second;
    }
    if (w > 0.0) {
      total += w;
      if (collect_root_rows) {
        result->root_row_ids.push_back(static_cast<int>(row));
      }
    }
  }
  result->cardinality = total;
  const double emit = total * 0.1;
  result->cost += emit;
  stats_.out_rows = total;
  stats_.build_entries = 0;
  stats_.cost = emit;
}

std::unique_ptr<PlanNode> BuildRootedPlan(const BoundQuery& bq, int root) {
  const auto adj = BuildAdjacency(bq);
  std::vector<char> visited(bq.bindings.size(), 0);
  return BuildPlanFrom(bq, adj, visited, root);
}

StatusOr<PlannedExecResult> ExecuteLeftDeep(const BoundQuery& bq,
                                            const std::vector<int>& order,
                                            const CostModel& cm) {
  const size_t n = bq.bindings.size();
  if (order.size() != n) {
    return Status::InvalidArgument(
        "join order must name every table occurrence exactly once");
  }
  std::vector<char> seen(n, 0);
  for (int b : order) {
    if (b < 0 || static_cast<size_t>(b) >= n || seen[static_cast<size_t>(b)]) {
      return Status::InvalidArgument(
          "join order is not a permutation of the table occurrences");
    }
    seen[static_cast<size_t>(b)] = 1;
  }
  // Under arbitrary orders any join column can become an aggregation key,
  // so the default path's int-only requirement applies to both endpoints.
  for (const JoinEdge& e : bq.joins) {
    if (bq.bindings[static_cast<size_t>(e.a)]
                .table->column(e.col_a)
                .type != ColumnType::kInt ||
        bq.bindings[static_cast<size_t>(e.b)]
                .table->column(e.col_b)
                .type != ColumnType::kInt) {
      return Status::InvalidArgument(
          "explicit join orders require integer join columns");
    }
  }
  // Every prefix must stay connected in the join tree.
  std::vector<char> in_prefix(n, 0);
  in_prefix[static_cast<size_t>(order[0])] = 1;
  for (size_t i = 1; i < n; ++i) {
    bool connected = false;
    for (const JoinEdge& e : bq.joins) {
      if ((e.a == order[i] && in_prefix[static_cast<size_t>(e.b)] != 0) ||
          (e.b == order[i] && in_prefix[static_cast<size_t>(e.a)] != 0)) {
        connected = true;
        break;
      }
    }
    if (!connected) {
      return Status::InvalidArgument(
          "join order disconnects the join graph at step " +
          std::to_string(i));
    }
    in_prefix[static_cast<size_t>(order[i])] = 1;
  }

  PlannedExecResult out;
  // Scan and subquery work is join-order independent.
  double cost = bq.subquery_cost;
  for (const auto& b : bq.bindings) {
    cost += cm.scan_weight * static_cast<double>(b.table->num_rows());
  }
  // Grow the pipeline one table at a time; each prefix cardinality is the
  // exact count over the induced subtree (counts are root-invariant, so
  // the final step equals Execute()'s cardinality bit for bit).
  std::fill(in_prefix.begin(), in_prefix.end(), 0);
  in_prefix[static_cast<size_t>(order[0])] = 1;
  double card = bq.bindings[static_cast<size_t>(order[0])].pass_count;
  for (size_t i = 1; i < n; ++i) {
    in_prefix[static_cast<size_t>(order[i])] = 1;
    card = CountSubset(bq, in_prefix, order[0]);
    JoinStep step;
    step.binding = order[i];
    step.build_rows = bq.bindings[static_cast<size_t>(order[i])].pass_count;
    step.intermediate_rows = card;
    cost += cm.build_weight * step.build_rows +
            cm.intermediate_weight * step.intermediate_rows;
    out.steps.push_back(step);
  }
  out.cardinality = card;
  cost += cm.emit_weight * out.cardinality;
  out.cost = cost;
  return out;
}

StatusOr<JoinGraph> ResolveJoinGraph(const Database& db,
                                     const SelectStatement& stmt) {
  std::vector<Binding> bindings;
  for (const auto& tref : stmt.tables) {
    const Table* table = db.FindTable(tref.table);
    if (table == nullptr) {
      return Status::NotFound("unknown table: " + tref.table);
    }
    Binding b;
    b.name = tref.BindingName();
    b.table = table;
    bindings.push_back(std::move(b));
  }
  if (bindings.empty()) return Status::InvalidArgument("no tables");
  JoinGraph graph;
  graph.num_tables = bindings.size();
  for (const auto& pred : stmt.predicates) {
    if (!pred.IsJoin()) continue;
    JoinEdge e;
    if (!ResolveColumn(bindings, pred.lhs, &e.a, &e.col_a) ||
        !ResolveColumn(bindings, pred.rhs_column, &e.b, &e.col_b)) {
      return Status::NotFound("cannot resolve join columns for " +
                              pred.lhs.ToString());
    }
    if (pred.op != CompareOp::kEq) {
      return Status::InvalidArgument("only equi-joins are supported");
    }
    graph.edges.push_back(e);
  }
  if (Status s = ValidateJoinGraph(graph.num_tables, graph.edges); !s.ok()) {
    return s;
  }
  return graph;
}

}  // namespace preqr::db
