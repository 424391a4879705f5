// Property-based sweeps (parameterized over seeds): invariants that must
// hold for *every* generated workload, not just hand-picked cases. The
// seed set is overridable without a rebuild via PREQR_PROPERTY_SEEDS
// (comma-separated), so a failing seed found by a long fuzz run replays
// directly: PREQR_PROPERTY_SEEDS=12345 ./property_test
#include <functional>
#include <map>
#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "automaton/fa.h"
#include "automaton/template_extractor.h"
#include "db/executor.h"
#include "eval/metrics.h"
#include "nn/module.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"
#include "workload/rewrites.h"
#include "workload/sql_fuzz.h"

namespace preqr {
namespace {

class SeededProperty : public testing::TestWithParam<uint64_t> {
 protected:
  static const db::Database& Db() {
    static const db::Database* db =
        new db::Database(workload::MakeImdbDatabase(77, 0.02));
    return *db;
  }
};

// Failure context for property assertions: the seed to replay with, and —
// when a failure predicate is supplied — a ddmin-minimized reproducer.
// gtest only evaluates the streamed message on failure, so minimization
// costs nothing on the green path.
std::string FailingCase(uint64_t seed, const std::string& sql) {
  return "seed=" + std::to_string(seed) + " sql=\"" + sql + "\"";
}
std::string FailingCase(uint64_t seed, const std::string& sql,
                        const std::function<bool(const std::string&)>& fails) {
  return "seed=" + std::to_string(seed) + " minimized=\"" +
         workload::SqlFuzzer::Minimize(sql, fails) + "\" sql=\"" + sql + "\"";
}

// Property: every generated query's SQL text round-trips through the
// parser and printer to a fixed point.
TEST_P(SeededProperty, GeneratedSqlRoundTrips) {
  workload::ImdbQueryGenerator gen(Db(), GetParam());
  auto not_parseable = [](const std::string& s) { return !sql::Parse(s).ok(); };
  auto not_fixed_point = [](const std::string& s) {
    auto p = sql::Parse(s);
    return p.ok() && sql::ToSql(p.value()) != s;
  };
  for (const auto& q : gen.Synthetic(15, 2)) {
    auto parsed = sql::Parse(q.sql);
    ASSERT_TRUE(parsed.ok()) << FailingCase(GetParam(), q.sql, not_parseable);
    const std::string printed = sql::ToSql(parsed.value());
    EXPECT_EQ(printed, q.sql) << FailingCase(GetParam(), q.sql, not_fixed_point);
    auto reparsed = sql::Parse(printed);
    ASSERT_TRUE(reparsed.ok())
        << FailingCase(GetParam(), printed, not_parseable);
    EXPECT_EQ(sql::ToSql(reparsed.value()), printed)
        << FailingCase(GetParam(), printed, not_fixed_point);
  }
}

// Property: the tree-count executor agrees with a brute-force nested-loop
// join on two-table queries.
TEST_P(SeededProperty, ExecutorMatchesBruteForce) {
  workload::ImdbQueryGenerator gen(Db(), GetParam() + 100);
  db::Executor exec(Db());
  int checked = 0;
  for (const auto& q : gen.Synthetic(12, 1)) {
    if (q.stmt.tables.size() != 2) continue;
    // Identify the join columns.
    const sql::Predicate* join = nullptr;
    for (const auto& p : q.stmt.predicates) {
      if (p.IsJoin()) join = &p;
    }
    ASSERT_NE(join, nullptr) << FailingCase(GetParam(), q.sql);
    const db::Table* ta = Db().FindTable(q.stmt.tables[0].table);
    const db::Table* tb = Db().FindTable(q.stmt.tables[1].table);
    // Per-table filter bitmaps via single-table executor calls.
    auto filter_rows = [&](size_t idx) {
      sql::SelectStatement single;
      single.items = q.stmt.items;
      single.tables = {q.stmt.tables[idx]};
      for (const auto& p : q.stmt.predicates) {
        if (p.IsJoin()) continue;
        const std::string t = q.stmt.ResolveTable(p.lhs.qualifier);
        if (t == q.stmt.tables[idx].table) single.predicates.push_back(p);
      }
      return exec.Execute(single, true).value().root_row_ids;
    };
    const auto rows_a = filter_rows(0);
    const auto rows_b = filter_rows(1);
    // Resolve join columns to (table, column index).
    const std::string lt = q.stmt.ResolveTable(join->lhs.qualifier);
    const int col_a = lt == ta->name()
                          ? ta->def().ColumnIndex(join->lhs.column)
                          : ta->def().ColumnIndex(join->rhs_column.column);
    const int col_b = lt == ta->name()
                          ? tb->def().ColumnIndex(join->rhs_column.column)
                          : tb->def().ColumnIndex(join->lhs.column);
    std::map<int64_t, double> counts;
    for (int r : rows_b) {
      counts[tb->column(col_b).ints[static_cast<size_t>(r)]] += 1;
    }
    double brute = 0;
    for (int r : rows_a) {
      auto it = counts.find(ta->column(col_a).ints[static_cast<size_t>(r)]);
      if (it != counts.end()) brute += it->second;
    }
    EXPECT_DOUBLE_EQ(q.true_card, brute) << FailingCase(GetParam(), q.sql);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// Property: logically equivalent rewrites preserve the root result set for
// arbitrary generated single-join queries.
TEST_P(SeededProperty, RewritesPreserveResultSets) {
  workload::ImdbQueryGenerator gen(Db(), GetParam() + 200);
  db::Executor exec(Db());
  Rng rng(GetParam());
  for (const auto& q : gen.Synthetic(6, 1)) {
    sql::SelectStatement base = q.stmt;
    const auto base_rows = exec.Execute(base, true).value().root_row_ids;
    for (int which = 0; which < 5; ++which) {
      const std::string rewritten =
          workload::EquivalentRewrite(base, which, rng);
      auto parsed = sql::Parse(rewritten);
      ASSERT_TRUE(parsed.ok())
          << FailingCase(GetParam(), rewritten, [](const std::string& s) {
               return !sql::Parse(s).ok();
             });
      auto res = exec.Execute(parsed.value(), true);
      ASSERT_TRUE(res.ok()) << FailingCase(GetParam(), rewritten);
      EXPECT_EQ(res.value().root_row_ids, base_rows)
          << FailingCase(GetParam(), rewritten);
    }
  }
}

// Property: the merged automaton accepts every query whose template was
// part of its construction corpus, and emits one state per token.
TEST_P(SeededProperty, AutomatonAcceptsOwnCorpus) {
  workload::ImdbQueryGenerator gen(Db(), GetParam() + 300);
  std::vector<std::string> corpus;
  for (const auto& q : gen.Synthetic(25, 2)) corpus.push_back(q.sql);
  automaton::AutomatonBuilder builder;
  // Build from each query's own collapsed symbols (no clustering): then
  // acceptance must be exact.
  for (const auto& sql : corpus) {
    builder.AddTemplate(
        automaton::Collapse(automaton::StructuralSymbols(sql)));
  }
  automaton::Automaton fa = builder.Build();
  for (const auto& sql : corpus) {
    const auto symbols = automaton::StructuralSymbols(sql);
    auto match = fa.Match(symbols);
    EXPECT_TRUE(match.accepted) << FailingCase(GetParam(), sql);
    EXPECT_EQ(match.states.size(), symbols.size());
    for (int s : match.states) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, fa.num_states());
    }
  }
}

// Property: q-error is symmetric, >= 1, and multiplicative under scaling.
TEST_P(SeededProperty, QErrorInvariants) {
  Rng rng(GetParam() + 400);
  for (int i = 0; i < 200; ++i) {
    const double a = 1.0 + rng.NextDouble() * 1e6;
    const double b = 1.0 + rng.NextDouble() * 1e6;
    const double q = eval::QError(a, b);
    EXPECT_GE(q, 1.0);
    EXPECT_DOUBLE_EQ(q, eval::QError(b, a));
    EXPECT_NEAR(eval::QError(a, a * 3.0), 3.0, 1e-9);
  }
}

// Property: per-query cost accounting is positive, grows with join count
// on average, and is deterministic.
TEST_P(SeededProperty, CostAccountingSane) {
  workload::ImdbQueryGenerator gen(Db(), GetParam() + 500);
  db::Executor exec(Db());
  double sum_zero = 0, sum_two = 0;
  int n_zero = 0, n_two = 0;
  for (const auto& q : gen.Synthetic(20, 2)) {
    EXPECT_GT(q.true_cost, 0) << FailingCase(GetParam(), q.sql);
    auto again = exec.Execute(q.stmt);
    ASSERT_TRUE(again.ok());
    EXPECT_DOUBLE_EQ(again.value().cost, q.true_cost);
    if (q.num_joins == 0) {
      sum_zero += q.true_cost;
      ++n_zero;
    } else if (q.num_joins == 2) {
      sum_two += q.true_cost;
      ++n_two;
    }
  }
  if (n_zero > 0 && n_two > 0) {
    EXPECT_GT(sum_two / n_two, sum_zero / n_zero);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         testing::ValuesIn(workload::SeedsFromEnv(
                             "PREQR_PROPERTY_SEEDS",
                             {1u, 2u, 3u, 5u, 8u, 13u})));

// --- Numerical gradient sweep over module compositions -------------------

struct GradCase {
  const char* name;
  int dim;
  int seq;
};

// Prints a case by name, which keeps the discovered ctest names stable:
// the default printer dumps the struct's bytes, pointer included.
void PrintTo(const GradCase& c, std::ostream* os) { *os << c.name; }

class ModuleGradSweep : public testing::TestWithParam<GradCase> {};

TEST_P(ModuleGradSweep, TransformerLayerGradientsMatchNumeric) {
  const GradCase& c = GetParam();
  Rng rng(11);
  nn::TransformerEncoderLayer layer(c.dim, 2, 2 * c.dim, rng);
  // A one-example padded batch: the only transformer forward there is.
  nn::Tensor x = nn::Tensor::Randn({1, c.seq, c.dim}, rng, 0.5f, true);
  nn::Tensor w = nn::Tensor::Randn({1, c.seq, c.dim}, rng, 0.5f);
  auto loss_fn = [&] {
    return nn::Sum(nn::Mul(layer.ForwardBatch(x, {c.seq}), w));
  };
  nn::Tensor loss = loss_fn();
  x.ZeroGrad();
  layer.ZeroGrad();
  loss.Backward();
  const std::vector<float> analytic = x.grad_vec();
  // Spot-check a few coordinates with central differences.
  Rng pick(7);
  for (int k = 0; k < 6; ++k) {
    const nn::Index i =
        static_cast<nn::Index>(pick.NextUint64(static_cast<uint64_t>(x.size())));
    const float eps = 2e-3f;
    const float orig = x.at(i);
    x.at(i) = orig + eps;
    const float up = loss_fn().item();
    x.at(i) = orig - eps;
    const float down = loss_fn().item();
    x.at(i) = orig;
    const float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[static_cast<size_t>(i)], numeric,
                2e-2f * std::max(1.0f, std::abs(numeric)))
        << c.name << " index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ModuleGradSweep,
                         testing::Values(GradCase{"tiny", 8, 3},
                                         GradCase{"wide", 16, 2},
                                         GradCase{"long", 8, 9}));

}  // namespace
}  // namespace preqr
