// Differential pins for tenant set-up: the memoized template clustering,
// the one-row edit distance and the run-length column statistics against
// verbatim copies of the implementations they replaced. Every output must
// be identical: template assignments and symbol sequences, edit distances,
// and every ColumnStats field (doubles compared bit for bit).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "automaton/symbol.h"
#include "automaton/template_extractor.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "db/stats.h"
#include "sql/lexer.h"
#include "workload/clustering_workloads.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"
#include "workload/sql2text.h"
#include "workload/sql_fuzz.h"

namespace preqr {
namespace {

using automaton::NormalizedQuery;
using automaton::Symbol;

// --- References: the implementations before memoization ------------------

int RefEditDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size(), m = b.size();
  if (n == 0) return static_cast<int>(m);
  if (m == 0) return static_cast<int>(n);
  std::vector<int> prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double RefStringSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  const double d = RefEditDistance(a, b);
  const double denom = static_cast<double>(std::max(a.size(), b.size()));
  return 1.0 - d / denom;
}

NormalizedQuery RefNormalizeForTemplate(const std::string& sql) {
  NormalizedQuery out;
  auto tokens = sql::Lex(sql);
  if (!tokens.ok()) return out;
  const auto symbols = automaton::StructuralSymbols(tokens.value());
  std::string* cur = &out.select_clause;
  for (size_t i = 0; i < symbols.size(); ++i) {
    const Symbol s = symbols[i];
    switch (s) {
      case Symbol::kSelect:
        cur = &out.select_clause;
        break;
      case Symbol::kFrom:
      case Symbol::kJoin:
        if (s == Symbol::kFrom) cur = &out.from_clause;
        break;
      case Symbol::kWhere:
        cur = &out.where_clause;
        break;
      case Symbol::kGroupBy:
      case Symbol::kOrderBy:
      case Symbol::kLimit:
      case Symbol::kUnion:
        cur = &out.tail_clause;
        break;
      default:
        break;
    }
    if (!cur->empty()) *cur += " ";
    *cur += automaton::SymbolName(s);
  }
  return out;
}

double RefTemplateDistance(const NormalizedQuery& a, const NormalizedQuery& b) {
  const double s_sel = RefStringSimilarity(a.select_clause, b.select_clause);
  const double s_from = RefStringSimilarity(a.from_clause, b.from_clause);
  const double s_where = RefStringSimilarity(a.where_clause, b.where_clause);
  const double s_tail = RefStringSimilarity(a.tail_clause, b.tail_clause);
  const double w_sel = 0.2, w_from = 0.3, w_where = 0.4, w_tail = 0.1;
  const double sim =
      w_sel * s_sel + w_from * s_from + w_where * s_where + w_tail * s_tail;
  return 1.0 - sim;
}

automaton::TemplateExtractor::Extraction RefExtract(
    const std::vector<std::string>& queries, double epsilon) {
  automaton::TemplateExtractor::Extraction out;
  out.assignment.assign(queries.size(), -1);
  std::vector<NormalizedQuery> norms;
  norms.reserve(queries.size());
  for (const auto& q : queries) norms.push_back(RefNormalizeForTemplate(q));

  std::vector<int> leaders;
  std::vector<std::vector<int>> members;
  for (size_t i = 0; i < queries.size(); ++i) {
    int best = -1;
    double best_d = std::numeric_limits<double>::max();
    for (size_t c = 0; c < leaders.size(); ++c) {
      const double d = RefTemplateDistance(
          norms[i], norms[static_cast<size_t>(leaders[c])]);
      if (d < best_d) {
        best_d = d;
        best = static_cast<int>(c);
      }
    }
    if (best >= 0 && best_d <= epsilon) {
      out.assignment[i] = best;
      members[static_cast<size_t>(best)].push_back(static_cast<int>(i));
    } else {
      out.assignment[i] = static_cast<int>(leaders.size());
      leaders.push_back(static_cast<int>(i));
      members.push_back({static_cast<int>(i)});
    }
  }

  for (const auto& cluster : members) {
    int medoid = cluster[0];
    if (cluster.size() > 2) {
      double best_total = std::numeric_limits<double>::max();
      for (int i : cluster) {
        double total = 0;
        for (int j : cluster) {
          if (i != j) {
            total += RefTemplateDistance(norms[static_cast<size_t>(i)],
                                         norms[static_cast<size_t>(j)]);
          }
        }
        if (total < best_total) {
          best_total = total;
          medoid = i;
        }
      }
    }
    const auto symbols =
        automaton::StructuralSymbols(queries[static_cast<size_t>(medoid)]);
    out.templates.push_back(automaton::Collapse(symbols));
  }
  return out;
}

db::ColumnStats RefAnalyzeColumn(const db::Column& column, int num_buckets,
                                 int num_mcv) {
  db::ColumnStats stats;
  stats.type = column.type;
  stats.row_count = column.size();
  if (column.size() == 0) return stats;

  if (column.type == sql::ColumnType::kString) {
    std::unordered_map<std::string, size_t> counts;
    for (const auto& s : column.strings) ++counts[s];
    stats.num_distinct = static_cast<int64_t>(counts.size());
    std::vector<std::pair<std::string, size_t>> by_freq(counts.begin(),
                                                        counts.end());
    std::sort(by_freq.begin(), by_freq.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    const size_t k =
        std::min<size_t>(static_cast<size_t>(num_mcv), by_freq.size());
    for (size_t i = 0; i < k; ++i) {
      stats.mcv_string.emplace_back(
          by_freq[i].first,
          static_cast<double>(by_freq[i].second) /
              static_cast<double>(column.size()));
    }
    return stats;
  }

  std::vector<double> values;
  values.reserve(column.size());
  for (size_t i = 0; i < column.size(); ++i) values.push_back(column.AsDouble(i));
  std::sort(values.begin(), values.end());
  stats.min = values.front();
  stats.max = values.back();

  std::unordered_map<int64_t, size_t> counts;
  for (double v : values) ++counts[static_cast<int64_t>(v * 1000.0)];
  stats.num_distinct = static_cast<int64_t>(counts.size());
  std::vector<std::pair<int64_t, size_t>> by_freq(counts.begin(), counts.end());
  std::sort(by_freq.begin(), by_freq.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  const size_t k =
      std::min<size_t>(static_cast<size_t>(num_mcv), by_freq.size());
  for (size_t i = 0; i < k; ++i) {
    stats.mcv_numeric.emplace_back(
        static_cast<double>(by_freq[i].first) / 1000.0,
        static_cast<double>(by_freq[i].second) /
            static_cast<double>(column.size()));
  }

  const int nb = num_buckets;
  stats.histogram_bounds.reserve(static_cast<size_t>(nb) + 1);
  for (int b = 0; b <= nb; ++b) {
    const size_t idx = std::min(
        values.size() - 1,
        static_cast<size_t>(static_cast<double>(b) / nb *
                            static_cast<double>(values.size() - 1)));
    stats.histogram_bounds.push_back(values[idx]);
  }
  return stats;
}

// --- Helpers ---------------------------------------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string RandomString(Rng& rng, const std::string& alphabet) {
  const int len = rng.NextInt(0, 301);
  std::string s;
  s.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.NextUint64(alphabet.size())]);
  }
  return s;
}

void ExpectSameExtraction(const std::vector<std::string>& queries,
                          double epsilon, const std::string& label) {
  SCOPED_TRACE(label + " eps=" + std::to_string(epsilon));
  const auto expected = RefExtract(queries, epsilon);
  auto got = automaton::TemplateExtractor(epsilon).Extract(queries);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().assignment, expected.assignment);
  ASSERT_EQ(got.value().templates.size(), expected.templates.size());
  for (size_t t = 0; t < expected.templates.size(); ++t) {
    EXPECT_EQ(got.value().templates[t], expected.templates[t]) << "template "
                                                               << t;
  }
}

struct NamedCorpus {
  std::string name;
  std::vector<std::string> queries;
};

std::vector<std::string> SyntheticCorpus(uint64_t db_seed, double scale,
                                         uint64_t gen_seed, int n,
                                         bool dedup) {
  db::Database imdb = workload::MakeImdbDatabase(db_seed, scale);
  workload::ImdbQueryGenerator gen(imdb, gen_seed);
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const auto& q : gen.Synthetic(n, 2)) {
    if (!dedup || seen.insert(q.sql).second) out.push_back(q.sql);
  }
  return out;
}

std::vector<std::string> Sqls(const std::vector<workload::BenchQuery>& qs) {
  std::vector<std::string> out;
  for (const auto& q : qs) out.push_back(q.sql);
  return out;
}

// The first `n` cases of a fuzz stream that lex (parsing is not needed:
// template mining only lexes). The grammar extremes are scaled down from
// the fuzz defaults so the unmemoized reference, whose edit distances grow
// with the square of the clause length, stays within a test's budget.
std::vector<std::string> LexableFuzzQueries(int n) {
  db::Database imdb = workload::MakeImdbDatabase(11, 0.02);
  workload::SqlFuzzOptions options;
  options.max_join_chain = 3;
  options.max_in_list = 4;
  options.max_subquery_depth = 1;
  options.max_union_chain = 1;
  options.max_predicates = 3;
  options.max_select_items = 3;
  workload::SqlFuzzer fuzzer(imdb.catalog(), /*seed=*/2024, options);
  std::vector<std::string> out;
  while (static_cast<int>(out.size()) < n) {
    workload::FuzzCase c = fuzzer.Next();
    if (sql::Lex(c.sql).ok()) out.push_back(std::move(c.sql));
  }
  return out;
}

// Every corpus the tests, the benches and the perfbench tenant mine
// templates from, plus their concatenation.
const std::vector<NamedCorpus>& Corpora() {
  static const std::vector<NamedCorpus>* corpora = [] {
    auto* c = new std::vector<NamedCorpus>();
    c->push_back({"paper_figure2",
                  {"SELECT name FROM user WHERE rank IN ('adm','sup')",
                   "SELECT SUM(balance) FROM accounts",
                   "SELECT name FROM user WHERE rank = 'adm' "
                   "UNION SELECT name FROM user WHERE rank = 'sup'",
                   "SELECT SUM(balance) FROM accounts WHERE user_id IN "
                   "(SELECT user_id FROM user WHERE rank = 'adm')",
                   "SELECT SUM(accounts.balance) FROM accounts, user "
                   "WHERE accounts.user_id = user.id AND user.rank = 'adm'"}});
    c->push_back({"core_preqr", SyntheticCorpus(3, 0.02, 1, 40, false)});
    c->push_back({"model_update", SyntheticCorpus(3, 0.02, 1, 30, false)});
    c->push_back({"encoder_golden", SyntheticCorpus(5, 0.02, 13, 30, false)});
    c->push_back({"schema_kv_memo", SyntheticCorpus(5, 0.02, 17, 12, false)});
    c->push_back({"determinism", SyntheticCorpus(5, 0.02, 2, 24, false)});
    c->push_back({"batch_invariance", SyntheticCorpus(5, 0.02, 7, 24, false)});
    for (uint64_t seed : {7, 8, 9}) {
      c->push_back({"tenant_" + std::to_string(seed),
                    SyntheticCorpus(seed, 0.02, 3, 16, true)});
    }
    c->push_back({"micro_bench", SyntheticCorpus(42, 0.1, 1, 60, false)});
    c->push_back({"perfbench", SyntheticCorpus(42, 0.22, 7, 160, false)});
    {
      db::Database imdb = workload::MakeImdbDatabase(42, 0.1);
      workload::ImdbQueryGenerator gen(imdb, 1);
      c->push_back({"job_light", Sqls(gen.JobLight())});
      c->push_back({"scale", Sqls(gen.Scale(6, 4))});
      c->push_back({"job", Sqls(gen.JobStrings(20, 4, 8))});
    }
    std::vector<std::string> wiki, so;
    for (const auto& p : workload::MakeWikiSqlDataset(50)) wiki.push_back(p.sql);
    for (const auto& p : workload::MakeStackOverflowDataset(50)) {
      so.push_back(p.sql);
    }
    c->push_back({"wikisql", wiki});
    c->push_back({"stackoverflow", so});
    c->push_back({"iit_bombay", workload::MakeIitBombayWorkload().queries});
    c->push_back({"ub_exam", workload::MakeUbExamWorkload().queries});
    c->push_back({"pocket_data", workload::MakePocketDataWorkload().queries});
    std::vector<std::string> mixed;
    for (const auto& corpus : *c) {
      mixed.insert(mixed.end(), corpus.queries.begin(), corpus.queries.end());
    }
    c->push_back({"mixed", std::move(mixed)});
    return c;
  }();
  return *corpora;
}

// --- Edit distance ---------------------------------------------------------

TEST(SetupEquivalenceTest, EditDistanceMatchesTwoRowReference) {
  Rng rng(91);
  std::string printable;
  for (char ch = ' '; ch <= '~'; ++ch) printable.push_back(ch);
  for (const std::string& alphabet : {std::string("ACGT"), printable}) {
    for (int trial = 0; trial < 300; ++trial) {
      const std::string a = RandomString(rng, alphabet);
      std::string b = RandomString(rng, alphabet);
      // Some pairs share a prefix, a suffix or both, or are equal: the
      // cases the DP trims.
      if (trial % 5 == 0) b = a.substr(0, a.size() / 2) + b;
      if (trial % 7 == 0) b += a.substr(a.size() / 3);
      if (trial % 17 == 0) b = a;
      ASSERT_EQ(EditDistance(a, b), RefEditDistance(a, b))
          << "a=" << a << " b=" << b;
      ASSERT_EQ(EditDistance(b, a), RefEditDistance(a, b));
      ASSERT_TRUE(SameBits(StringSimilarity(a, b), RefStringSimilarity(a, b)));
    }
  }
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("", "abc"), 3);
  EXPECT_EQ(EditDistance("abc", ""), 3);
}

// --- Template clustering ---------------------------------------------------

TEST(SetupEquivalenceTest, TemplateDistanceIsSymmetricBitForBit) {
  for (const auto& corpus : Corpora()) {
    if (corpus.name == "mixed") continue;
    std::vector<NormalizedQuery> norms;
    for (const auto& q : corpus.queries) {
      norms.push_back(automaton::NormalizeForTemplate(q).value());
    }
    for (size_t i = 0; i < norms.size(); ++i) {
      for (size_t j = i; j < norms.size(); j += 7) {
        const double ab = automaton::TemplateDistance(norms[i], norms[j]);
        ASSERT_TRUE(SameBits(ab, automaton::TemplateDistance(norms[j],
                                                             norms[i])));
        ASSERT_TRUE(SameBits(ab, RefTemplateDistance(norms[i], norms[j])));
      }
    }
  }
}

// One instance per clustering threshold, so ctest runs them in parallel.
class ExtractionEquivalenceTest : public ::testing::TestWithParam<double> {};

TEST_P(ExtractionEquivalenceTest, MatchesUnmemoizedReferenceOnEveryCorpus) {
  for (const auto& corpus : Corpora()) {
    ExpectSameExtraction(corpus.queries, GetParam(), corpus.name);
  }
}

TEST_P(ExtractionEquivalenceTest, MatchesReferenceOnFuzzQueries) {
  static const std::vector<std::string>* fuzz =
      new std::vector<std::string>(LexableFuzzQueries(500));
  ExpectSameExtraction(*fuzz, GetParam(), "sql_fuzz");
}

INSTANTIATE_TEST_SUITE_P(Epsilons, ExtractionEquivalenceTest,
                         ::testing::Values(0.05, 0.1, 0.2, 0.3));

TEST(SetupEquivalenceTest, FirstUnlexableQueryIsNamed) {
  const std::vector<std::string> queries = {
      "SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = 2",
      "SELECT @@@ FROM t", "SELECT 'unterminated FROM t"};
  auto got = automaton::TemplateExtractor(0.2).Extract(queries);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("query 2 "), std::string::npos)
      << got.status().message();
  EXPECT_FALSE(automaton::TemplateExtractor(0.2).BuildAutomaton(queries).ok());
}

// --- Column statistics -----------------------------------------------------

db::Table OneColumnTable(sql::ColumnType type) {
  sql::TableDef def;
  def.name = "t";
  def.columns = {{"x", type, false}};
  return db::Table(def);
}

void ExpectSameColumnStats(const db::ColumnStats& got,
                           const db::ColumnStats& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_TRUE(SameBits(got.min, want.min));
  EXPECT_TRUE(SameBits(got.max, want.max));
  EXPECT_EQ(got.num_distinct, want.num_distinct);
  EXPECT_EQ(got.row_count, want.row_count);
  ASSERT_EQ(got.histogram_bounds.size(), want.histogram_bounds.size());
  for (size_t i = 0; i < want.histogram_bounds.size(); ++i) {
    EXPECT_TRUE(SameBits(got.histogram_bounds[i], want.histogram_bounds[i]))
        << "bound " << i;
  }
  ASSERT_EQ(got.mcv_numeric.size(), want.mcv_numeric.size());
  for (size_t i = 0; i < want.mcv_numeric.size(); ++i) {
    EXPECT_TRUE(SameBits(got.mcv_numeric[i].first, want.mcv_numeric[i].first))
        << "mcv " << i << ": " << got.mcv_numeric[i].first << " vs "
        << want.mcv_numeric[i].first;
    EXPECT_TRUE(
        SameBits(got.mcv_numeric[i].second, want.mcv_numeric[i].second))
        << "mcv freq " << i;
  }
  ASSERT_EQ(got.mcv_string.size(), want.mcv_string.size());
  for (size_t i = 0; i < want.mcv_string.size(); ++i) {
    EXPECT_EQ(got.mcv_string[i].first, want.mcv_string[i].first) << "mcv " << i;
    EXPECT_TRUE(SameBits(got.mcv_string[i].second, want.mcv_string[i].second));
  }
}

void ExpectSameStats(const db::Table& table, int num_buckets, int num_mcv,
                     const std::string& label) {
  SCOPED_TRACE(label + " buckets=" + std::to_string(num_buckets) +
               " mcv=" + std::to_string(num_mcv));
  ExpectSameColumnStats(
      db::StatsCollector(num_buckets, num_mcv).Analyze(table).columns.at(0),
      RefAnalyzeColumn(table.column(0), num_buckets, num_mcv));
}

void ExpectSameStatsAllSizes(const db::Table& table, const std::string& label) {
  for (int num_mcv : {1, 2, 4, 16, 1000}) {
    for (int num_buckets : {1, 4, 32}) {
      ExpectSameStats(table, num_buckets, num_mcv, label);
    }
  }
}

db::Table IntTable(std::vector<int64_t> ints) {
  db::Table t = OneColumnTable(sql::ColumnType::kInt);
  t.column(0).ints = std::move(ints);
  t.Seal();
  return t;
}

db::Table FloatTable(std::vector<double> floats) {
  db::Table t = OneColumnTable(sql::ColumnType::kFloat);
  t.column(0).floats = std::move(floats);
  t.Seal();
  return t;
}

TEST(SetupEquivalenceTest, NumericStatsMatchHashMapReference) {
  Rng rng(5);
  {
    // Duplicates and negatives, more distinct values than any MCV budget.
    std::vector<int64_t> v;
    for (int i = 0; i < 3000; ++i) v.push_back(rng.NextInt(-200, 200));
    ExpectSameStatsAllSizes(IntTable(v), "ints with duplicates");
  }
  {
    // Heavy hitters with count ties, so the key tie-break decides order.
    std::vector<int64_t> v;
    for (int k = 0; k < 40; ++k) {
      for (int r = 0; r < 1 + k % 4; ++r) v.push_back(k * 37 - 500);
    }
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.NextUint64(i)]);
    }
    ExpectSameStatsAllSizes(IntTable(v), "count ties");
  }
  ExpectSameStatsAllSizes(IntTable({42}), "one row");
  ExpectSameStatsAllSizes(IntTable(std::vector<int64_t>(500, -7)),
                          "all equal");
  {
    // Keys that collide near 0: everything in (-0.001, 0.001) truncates to
    // key 0, from both sides, and -0.0 meets +0.0.
    ExpectSameStatsAllSizes(
        FloatTable({-0.0004, 0.0004, -0.0, 0.0, 0.0009, -0.0009, 0.001,
                    -0.001, 0.0011, -0.0011, 0.0004, 5.0, -5.0, 0.0}),
        "collisions near zero");
  }
  {
    // Float-quantization collisions: distinct doubles sharing a key.
    std::vector<double> v;
    for (int i = 0; i < 2000; ++i) {
      const double base = rng.NextInt(-50, 50) / 10.0;
      v.push_back(base + rng.NextDouble() * 0.0009);
    }
    ExpectSameStatsAllSizes(FloatTable(v), "quantization collisions");
  }
  {
    std::vector<double> v;
    for (int i = 0; i < 1500; ++i) v.push_back((rng.NextDouble() - 0.5) * 1e6);
    ExpectSameStatsAllSizes(FloatTable(v), "wide floats");
  }
  ExpectSameStatsAllSizes(IntTable({}), "empty");
}

// Integer columns are counted in one pass when max - min < rows and
// otherwise sort their doubles, as float columns do. Both paths, on
// sorted, reverse-sorted and shuffled input, must match the reference.
TEST(SetupEquivalenceTest, IntStatsMatchReferenceOnEveryPath) {
  Rng rng(13);
  const auto shuffled = [&rng](std::vector<int64_t> v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.NextUint64(i)]);
    }
    return v;
  };
  const size_t n = 600;
  {
    // max - min = n - 1 (counting) and max - min = n (sorting), with both
    // end points present and duplicates in between.
    for (int64_t range : {int64_t{n} - 1, int64_t{n}}) {
      std::vector<int64_t> v = {0, range};
      while (v.size() < n) v.push_back(rng.NextInt(0, range / 3));
      ExpectSameStatsAllSizes(IntTable(shuffled(v)),
                              "range " + std::to_string(range) + " of " +
                                  std::to_string(n) + " rows");
    }
  }
  {
    // Negative ranges, dense and sparse.
    std::vector<int64_t> dense, sparse;
    for (size_t i = 0; i < n; ++i) {
      dense.push_back(rng.NextInt(-5000, -4700));
      sparse.push_back(rng.NextInt(-900000, -1));
    }
    ExpectSameStatsAllSizes(IntTable(dense), "dense negative");
    ExpectSameStatsAllSizes(IntTable(sparse), "sparse negative");
  }
  {
    // Sorted and reverse-sorted, dense and sparse, with runs of equals.
    std::vector<int64_t> dense, sparse;
    for (size_t i = 0; i < n; ++i) {
      dense.push_back(static_cast<int64_t>(i / 3) - 40);
      sparse.push_back(static_cast<int64_t>(i / 2) * 1009 - 70000);
    }
    ExpectSameStatsAllSizes(IntTable(dense), "sorted dense");
    ExpectSameStatsAllSizes(IntTable(sparse), "sorted sparse");
    std::reverse(dense.begin(), dense.end());
    std::reverse(sparse.begin(), sparse.end());
    ExpectSameStatsAllSizes(IntTable(dense), "reverse dense");
    ExpectSameStatsAllSizes(IntTable(sparse), "reverse sparse");
  }
  {
    // Near ±2^53, where distinct integers share a double and hence a key:
    // their runs merge. (Keys stay inside int64 up to |v| ~ 9.2e15.)
    const int64_t p53 = int64_t{1} << 53;
    for (int64_t centre : {p53, -p53}) {
      std::vector<int64_t> dense, sparse;
      for (size_t i = 0; i < n; ++i) {
        dense.push_back(centre + rng.NextInt(-100, 100));
        sparse.push_back(centre + rng.NextInt(-100000, 100000) * 7);
      }
      ExpectSameStatsAllSizes(IntTable(dense), "dense near 2^53");
      ExpectSameStatsAllSizes(IntTable(sparse), "sparse near 2^53");
    }
  }
  {
    // |v| ~ 1e13: v * 1000 is past 2^53. Integer keys stay exact there;
    // fractional values a few ulps apart round to shared keys.
    std::vector<int64_t> ints;
    std::vector<double> floats;
    for (size_t i = 0; i < n; ++i) {
      const int64_t base = (i % 2 == 0 ? 1 : -1) * int64_t{10000000000000};
      ints.push_back(base + rng.NextInt(-300, 300));
      floats.push_back(static_cast<double>(base) + rng.NextInt(-30, 30) * 0.0004);
    }
    ExpectSameStatsAllSizes(IntTable(ints), "ints near 1e13");
    ExpectSameStatsAllSizes(FloatTable(floats), "floats near 1e13");
  }
}

// Past |v| ~ 9.22e15, v * 1000 leaves int64 and the reference's cast is
// undefined, so these cases carry their own expected stats (a UBSan build
// with float-cast-overflow checks runs them). There every value is its own
// key: distinct values stay distinct, and each MCV reads back as its value.
TEST(SetupEquivalenceTest, NumericStatsPastInt64KeysAreDefined) {
  const double p63 = 9223372036854775808.0;  // 2^63 = double(INT64_MAX)
  {
    const db::ColumnStats got =
        db::StatsCollector(4, 2)
            .Analyze(IntTable({int64_t{10000000000000000}, -4000000000000000000,
                               int64_t{4611686018427387904}, 10000000000000002,
                               int64_t{30000000000000000}, 10000000000000000,
                               std::numeric_limits<int64_t>::max(),
                               -4000000000000000000, 10000000000000000}))
            .columns.at(0);
    db::ColumnStats want;
    want.type = sql::ColumnType::kInt;
    want.row_count = 9;
    want.min = -4e18;
    want.max = p63;
    want.num_distinct = 6;  // 1e16 and 1e16 + 2 stay apart
    want.histogram_bounds = {-4e18, 1e16, 1e16, 3e16, p63};
    want.mcv_numeric = {{1e16, 3.0 / 9}, {-4e18, 2.0 / 9}};
    SCOPED_TRACE("ints past 9.22e15");
    ExpectSameColumnStats(got, want);
  }
  {
    // (1e16 + 42) * 1000 is not a double: it rounds up, and dividing the
    // rounded product by 1000 would read back 1e16 + 44. The MCVs hold the
    // values themselves.
    const int64_t base = 10000000000000000;
    const db::ColumnStats got =
        db::StatsCollector(4, 2)
            .Analyze(IntTable({base + 42, base + 44, base + 40, base + 42,
                               base + 44, base + 42}))
            .columns.at(0);
    db::ColumnStats want;
    want.type = sql::ColumnType::kInt;
    want.row_count = 6;
    want.min = 1e16 + 40;
    want.max = 1e16 + 44;
    want.num_distinct = 3;
    want.histogram_bounds = {1e16 + 40, 1e16 + 42, 1e16 + 42, 1e16 + 42,
                             1e16 + 44};
    want.mcv_numeric = {{1e16 + 42, 3.0 / 6}, {1e16 + 44, 2.0 / 6}};
    SCOPED_TRACE("ints whose v * 1000 rounds");
    ExpectSameColumnStats(got, want);
    EXPECT_EQ(got.EstimateEqualitySelectivity(1e16 + 42), 3.0 / 6);
  }
  {
    // 1e306 and 1e307 would overflow v * 1000 to +inf; they stay apart.
    const db::ColumnStats got =
        db::StatsCollector(4, 2)
            .Analyze(FloatTable({1e300, -2e16, 1e307, 5e15, -1e300, -2e16,
                                 1e20, 1e306, -2e16}))
            .columns.at(0);
    db::ColumnStats want;
    want.type = sql::ColumnType::kFloat;
    want.row_count = 9;
    want.min = -1e300;
    want.max = 1e307;
    want.num_distinct = 7;
    want.histogram_bounds = {-1e300, -2e16, 5e15, 1e300, 1e307};
    want.mcv_numeric = {{-2e16, 3.0 / 9}, {-1e300, 1.0 / 9}};
    SCOPED_TRACE("floats past 9.22e15");
    ExpectSameColumnStats(got, want);
  }
}

TEST(SetupEquivalenceTest, StringStatsMatchHashMapReference) {
  Rng rng(8);
  std::vector<std::string> v;
  // Frequency ties across many keys: MCV order falls to the key.
  for (int k = 0; k < 60; ++k) {
    const std::string key = "s" + std::to_string((k * 7919) % 61);
    for (int r = 0; r < 1 + k % 3; ++r) v.push_back(key);
  }
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextUint64(i)]);
  }
  db::Table t = OneColumnTable(sql::ColumnType::kString);
  t.column(0).strings = v;
  t.Seal();
  ExpectSameStatsAllSizes(t, "string ties");

  db::Table single = OneColumnTable(sql::ColumnType::kString);
  single.column(0).strings = {"only"};
  single.Seal();
  ExpectSameStatsAllSizes(single, "one string");
}

TEST(SetupEquivalenceTest, DatabaseStatsMatchReference) {
  // The perfbench database: every column of every table.
  db::Database imdb = workload::MakeImdbDatabase(42, 0.22);
  const auto all = db::StatsCollector().AnalyzeAll(imdb);
  ASSERT_EQ(all.size(), imdb.tables().size());
  for (size_t t = 0; t < all.size(); ++t) {
    const db::Table& table = *imdb.tables()[t];
    ASSERT_EQ(all[t].columns.size(), table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      SCOPED_TRACE(table.name() + "." + table.def().columns[c].name);
      ExpectSameColumnStats(
          all[t].columns[c],
          RefAnalyzeColumn(table.column(static_cast<int>(c)), 32, 16));
    }
  }
}

}  // namespace
}  // namespace preqr
