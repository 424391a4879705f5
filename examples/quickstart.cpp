// Quickstart: build a database, pre-train PreQR on a small workload, and
// use the resulting representation — encode queries, compare their
// semantic distances, and inspect the automaton's view of query structure.
//
//   ./build/examples/quickstart
#include <chrono>
#include <cstdio>

#include "automaton/template_extractor.h"
#include "baselines/sim.h"
#include "core/pretrain.h"
#include "db/stats.h"
#include "schema/schema_graph.h"
#include "serving/encoder_service.h"
#include "tasks/preqr_encoder.h"
#include "text/tokenizer.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

using namespace preqr;

int main() {
  // 1. A database: the synthetic IMDB (22 tables, correlated data).
  db::Database imdb = workload::MakeImdbDatabase(/*seed=*/42, /*scale=*/0.1);
  std::printf("database: %zu tables, %zu foreign keys\n",
              imdb.catalog().tables().size(),
              imdb.catalog().foreign_keys().size());

  // 2. A frequent-query workload (what the DBMS would log).
  workload::ImdbQueryGenerator gen(imdb, 1);
  std::vector<std::string> workload_sqls = {
      "SELECT COUNT(*) FROM title t WHERE t.production_year > 2010"};
  for (const auto& q : gen.Synthetic(120, 2)) workload_sqls.push_back(q.sql);

  // 3. The three PreQR ingredients: tokenizer (schema-aware, range tokens),
  //    automaton (query structure), schema graph (Table 4 edge taxonomy).
  db::StatsCollector collector;
  auto stats = collector.AnalyzeAll(imdb);
  text::SqlTokenizer tokenizer(imdb.catalog(), stats, /*buckets=*/8);
  automaton::TemplateExtractor extractor(0.2);
  automaton::Automaton fa = extractor.BuildAutomaton(workload_sqls).value();
  schema::SchemaGraph graph = schema::SchemaGraph::Build(imdb.catalog());
  std::printf("automaton: %d states from the workload's templates\n",
              fa.num_states());
  std::printf("schema graph: %d nodes, %zu labeled edges\n",
              graph.num_nodes(), graph.edges().size());

  // 4. Pre-train with masked language modeling (Section 3.5.2).
  core::PreqrConfig config;
  config.d_model = 48;
  core::PreqrModel model(config, &tokenizer, &fa, &graph);
  core::Pretrainer::Options options;
  options.epochs = 2;
  options.verbose = true;
  core::Pretrainer pretrainer(model, options);
  pretrainer.Train(workload_sqls);

  // 5. Use the representation (the encoder's structured read-out over the
  //    fine-tunable last layer): queries q1/q3 of Figure 2 are logically
  //    equal; q5 only shares the schema neighborhood.
  tasks::PreqrEncoder encoder(&model);
  const char* q1 =
      "SELECT COUNT(*) FROM title t WHERE t.production_year > 2010";
  const char* q1_rewrite =
      "SELECT COUNT(*) FROM title s WHERE s.production_year > 2010";
  const char* q_other =
      "SELECT COUNT(*) FROM movie_companies mc WHERE mc.company_type_id = 1";
  auto embed = [&](const char* sql) {
    auto enc = encoder.TryEncodeVector(sql, /*train=*/false);
    PREQR_CHECK(enc.ok());
    return enc.value().vec();
  };
  const auto e1 = embed(q1);
  std::printf("\ncosine distance (lower = more similar):\n");
  std::printf("  q1 vs alias-rewrite: %.4f\n",
              baselines::CosineDistance(e1, embed(q1_rewrite)));
  std::printf("  q1 vs other-table:   %.4f\n",
              baselines::CosineDistance(e1, embed(q_other)));

  // 6. Serve embeddings: wrap the encoder in an EncoderService to get a
  //    thread-safe front-end with a bounded LRU cache, micro-batching,
  //    per-request deadlines, admission control, and Status errors with
  //    canonical codes instead of crashes on malformed SQL.
  serving::EncoderService service(&encoder);
  serving::EncodeRequest request;
  request.sql = q1;
  request.client_id = "quickstart";
  request.deadline = serving::DeadlineAfter(std::chrono::seconds(5));
  auto cold = service.Encode(request);  // cache miss: full encode
  auto warm = service.Encode(request);  // cache hit: LRU lookup + copy
  PREQR_CHECK(cold.ok() && warm.ok());
  std::printf("\nserving: %s dim=%d, %zu cached embedding(s)\n",
              service.name().c_str(), service.dim(),
              service.cached_embeddings());
  std::printf("serving q1 twice: miss cache_hit=%d, then hit cache_hit=%d\n",
              cold.value().cache_hit ? 1 : 0, warm.value().cache_hit ? 1 : 0);
  auto bad = service.Encode("this is not SQL at all");  // bare-SQL overload
  std::printf("serving a malformed query: %s\n",
              bad.ok() ? "(unexpectedly ok)" : bad.status().ToString().c_str());
  // The deterministic slice of service.metrics().DumpText() (the full dump
  // adds wall-clock latency percentiles, which would break this example's
  // byte-identical-across-thread-counts contract).
  const auto& metrics = service.metrics();
  std::printf("serving metrics: hit-rate %.2f (%llu hits / %llu requests), "
              "%llu error(s), %llu micro-batch(es)\n",
              metrics.CacheHitRate(),
              static_cast<unsigned long long>(metrics.cache_hits.value()),
              static_cast<unsigned long long>(metrics.requests.value()),
              static_cast<unsigned long long>(metrics.errors.value()),
              static_cast<unsigned long long>(metrics.batches.value()));
  // After further pre-training or incremental updates, drop stale entries:
  //   service.InvalidateCache();

  // 7. Inspect the automaton's structural view of a query.
  auto symbols = automaton::StructuralSymbols(q1);
  auto match = fa.Match(symbols);
  std::printf("\nstructure of q1: %s\n",
              automaton::SymbolsToString(automaton::Collapse(symbols)).c_str());
  std::printf("state sequence:");
  for (int s : match.states) std::printf(" a%d", s);
  std::printf("  (%s)\n", match.accepted ? "accepted" : "not accepted");
  return 0;
}
