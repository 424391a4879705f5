// Inspect how PreQR sees a query: lexical tokens, schema-linked tokens,
// range tokens with quantiles, structural symbols, and automaton states.
//
//   ./build/examples/inspect_query ["SELECT ... FROM ... WHERE ..."]
//
// Without an argument, a default IMDB query is inspected.
#include <cstdio>

#include "automaton/template_extractor.h"
#include "db/stats.h"
#include "pg/pg_estimator.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "text/tokenizer.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

using namespace preqr;

int main(int argc, char** argv) {
  const std::string sql =
      argc > 1 ? argv[1]
               : "SELECT COUNT(*) FROM title t, movie_companies mc WHERE "
                 "t.id = mc.movie_id AND t.production_year > 2010 AND "
                 "mc.company_id = 5";

  db::Database imdb = workload::MakeImdbDatabase(42, 0.1);
  db::StatsCollector collector;
  auto stats = collector.AnalyzeAll(imdb);
  text::SqlTokenizer tokenizer(imdb.catalog(), stats, 8);

  auto parsed = sql::Parse(sql);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  std::printf("query:      %s\n", sql.c_str());
  std::printf("canonical:  %s\n", sql::ToSql(parsed.value()).c_str());
  std::printf("tables: %zu, joins: %d, filters: %zu\n\n",
              parsed.value().tables.size(), parsed.value().NumJoins(),
              parsed.value().predicates.size() -
                  static_cast<size_t>(parsed.value().NumJoins()));

  auto tokenized = tokenizer.Tokenize(sql);
  if (!tokenized.ok()) {
    std::fprintf(stderr, "tokenize error: %s\n",
                 tokenized.status().ToString().c_str());
    return 1;
  }

  // Automaton over a small frequent-query workload plus this query.
  workload::ImdbQueryGenerator gen(imdb, 1);
  std::vector<std::string> corpus = {sql};
  for (const auto& q : gen.Synthetic(60, 2)) corpus.push_back(q.sql);
  automaton::TemplateExtractor extractor(0.2);
  automaton::Automaton fa = extractor.BuildAutomaton(corpus).value();
  std::vector<automaton::Symbol> symbols(tokenized.value().symbols.begin() + 1,
                                         tokenized.value().symbols.end());
  auto match = fa.Match(symbols);

  std::printf("%-28s %-10s %-8s %s\n", "token", "symbol", "state",
              "quantile");
  for (size_t i = 0; i < tokenized.value().tokens.size(); ++i) {
    const int state =
        i == 0 ? fa.start_state()
               : match.states[i - 1];
    char quantile[16] = "";
    if (tokenized.value().quantiles[i] > 0) {
      std::snprintf(quantile, sizeof(quantile), "%.2f",
                    tokenized.value().quantiles[i]);
    }
    std::printf("%-28s %-10s a%-7d %s\n",
                tokenized.value().tokens[i].c_str(),
                automaton::SymbolName(tokenized.value().symbols[i]), state,
                quantile);
  }
  std::printf("\nautomaton: %d states, match %s\n", fa.num_states(),
              match.accepted ? "accepted" : "degraded (unseen template)");

  pg::PgEstimator pg_est(imdb);
  db::Executor exec(imdb);
  auto truth = exec.Execute(parsed.value());
  std::printf("\nPostgreSQL-style estimate: %.0f rows\n",
              pg_est.EstimateCardinality(parsed.value()));
  if (truth.ok()) {
    std::printf("true cardinality:          %.0f rows\n",
                truth.value().cardinality);
  }
  return 0;
}
