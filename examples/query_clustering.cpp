// Query clustering / similarity: compare the classic AST-based metrics with
// PreQR embeddings on a workload of logically-equivalent rewrite clusters.
//
//   ./build/examples/query_clustering
#include <cstdio>

#include "automaton/template_extractor.h"
#include "core/pretrain.h"
#include "eval/metrics.h"
#include "schema/schema_graph.h"
#include "tasks/clustering.h"
#include "tasks/preqr_encoder.h"
#include "text/tokenizer.h"
#include "workload/clustering_workloads.h"

using namespace preqr;

int main() {
  workload::ClusteringWorkload wl = workload::MakeIitBombayWorkload();
  std::printf("workload '%s': %zu queries in %d clusters\n", wl.name.c_str(),
              wl.queries.size(), 1 + *std::max_element(wl.labels.begin(),
                                                       wl.labels.end()));
  std::printf("example cluster (logically equivalent):\n  %s\n  %s\n",
              wl.queries[0].c_str(), wl.queries[1].c_str());

  // Classic AST metrics.
  const auto stmts = tasks::ParseAll(wl.queries);
  const auto report = [&](const char* name,
                          const std::vector<std::vector<double>>& distance) {
    std::printf("%-12s BetaCV = %.3f (smaller is better)\n", name,
                eval::BetaCV(distance, wl.labels));
  };
  std::printf("\n");
  report("Aouiche",
         tasks::AstDistanceMatrix(stmts, tasks::AstMetric::kAouiche));
  report("Aligon", tasks::AstDistanceMatrix(stmts, tasks::AstMetric::kAligon));
  report("Makiyama",
         tasks::AstDistanceMatrix(stmts, tasks::AstMetric::kMakiyama));

  // PreQR embeddings pre-trained on this workload.
  std::vector<db::TableStats> stats;  // schema-only workload: no data stats
  text::SqlTokenizer tokenizer(wl.catalog, stats, 8);
  automaton::TemplateExtractor extractor(0.2);
  automaton::Automaton fa = extractor.BuildAutomaton(wl.queries).value();
  schema::SchemaGraph graph = schema::SchemaGraph::Build(wl.catalog);
  core::PreqrConfig config;
  config.d_model = 48;
  core::PreqrModel model(config, &tokenizer, &fa, &graph);
  core::Pretrainer::Options popt;
  popt.epochs = 3;
  core::Pretrainer(model, popt).Train(wl.queries);
  tasks::PreqrEncoder encoder(&model);
  report("PreQRDis", tasks::EmbeddingDistanceMatrix(wl.queries, encoder));
  return 0;
}
