#ifndef PREQR_BENCH_HARNESS_H_
#define PREQR_BENCH_HARNESS_H_

// Shared scaffolding for the experiment harnesses (one binary per paper
// table/figure). Each binary regenerates its table: workload generation,
// training, evaluation, and paper-style output rows.
//
// Environment knobs:
//   PREQR_BENCH_FAST=1   shrink all sizes (smoke-test mode)
//   PREQR_BENCH_SCALE=x  multiply database scale (default 0.22)

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "automaton/template_extractor.h"
#include "common/thread_pool.h"
#include "core/preqr_model.h"
#include "core/pretrain.h"
#include "db/stats.h"
#include "eval/metrics.h"
#include "schema/schema_graph.h"
#include "text/tokenizer.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

namespace preqr::bench {

inline bool FastMode() {
  const char* env = std::getenv("PREQR_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

inline double DbScale() {
  const char* env = std::getenv("PREQR_BENCH_SCALE");
  if (env != nullptr) return std::atof(env);
  return FastMode() ? 0.08 : 0.22;
}

// Scales a size knob down in fast mode.
inline int Sized(int normal, int fast) { return FastMode() ? fast : normal; }

// Everything the estimation benches share: database, statistics, tokenizer,
// automaton, schema graph, and a pre-trained PreQR model.
struct EstimationSetup {
  db::Database imdb;
  std::vector<db::TableStats> stats;
  std::unique_ptr<text::SqlTokenizer> tokenizer;
  automaton::Automaton fa;
  schema::SchemaGraph graph;
  std::unique_ptr<core::PreqrModel> model;

  std::vector<workload::BenchQuery> synthetic_train;
  std::vector<workload::BenchQuery> synthetic_eval;
  std::vector<workload::BenchQuery> scale_eval;
  std::vector<workload::BenchQuery> joblight_train;
  std::vector<workload::BenchQuery> joblight_eval;
};

inline std::vector<std::string> Sqls(
    const std::vector<workload::BenchQuery>& qs) {
  std::vector<std::string> out;
  out.reserve(qs.size());
  for (const auto& q : qs) out.push_back(q.sql);
  return out;
}

inline std::vector<double> Cards(
    const std::vector<workload::BenchQuery>& qs) {
  std::vector<double> out;
  out.reserve(qs.size());
  for (const auto& q : qs) out.push_back(q.true_card);
  return out;
}

inline std::vector<double> Costs(
    const std::vector<workload::BenchQuery>& qs) {
  std::vector<double> out;
  out.reserve(qs.size());
  for (const auto& q : qs) out.push_back(q.true_cost);
  return out;
}

// Builds the shared setup. `pretrain_epochs` <= 0 skips pre-training (for
// benches that pre-train variants themselves).
inline EstimationSetup BuildEstimationSetup(core::PreqrConfig config,
                                            int pretrain_epochs = 3,
                                            uint64_t seed = 42) {
  EstimationSetup s{.imdb = workload::MakeImdbDatabase(seed, DbScale()),
                    .stats = {},
                    .tokenizer = nullptr,
                    .fa = {},
                    .graph = {},
                    .model = nullptr};
  workload::ImdbQueryGenerator gen(s.imdb, seed + 1);
  s.synthetic_train = gen.Synthetic(Sized(400, 80), 2);
  s.synthetic_eval = gen.Synthetic(Sized(120, 30), 2);
  s.scale_eval = gen.Scale(Sized(25, 6), 4);
  s.joblight_train = gen.JobLightTrain(Sized(400, 80));
  s.joblight_eval = gen.JobLight();

  db::StatsCollector collector;
  s.stats = collector.AnalyzeAll(s.imdb);
  s.tokenizer = std::make_unique<text::SqlTokenizer>(s.imdb.catalog(),
                                                     s.stats, 16);
  // Templates from the frequent-query corpus (synthetic + multi-join).
  std::vector<std::string> corpus = Sqls(s.synthetic_train);
  {
    auto jl = Sqls(s.joblight_train);
    corpus.insert(corpus.end(), jl.begin(), jl.end());
  }
  if (corpus.size() > 350) corpus.resize(350);
  automaton::TemplateExtractor extractor(0.2);
  s.fa = extractor.BuildAutomaton(corpus).value();
  s.graph = schema::SchemaGraph::Build(s.imdb.catalog());
  s.model = std::make_unique<core::PreqrModel>(config, s.tokenizer.get(),
                                               &s.fa, &s.graph, seed + 2);
  if (pretrain_epochs > 0) {
    core::Pretrainer::Options opt;
    opt.epochs = FastMode() ? 1 : pretrain_epochs;
    core::Pretrainer pretrainer(*s.model, opt);
    pretrainer.Train(corpus);
  }
  return s;
}

// Default scaled-down PreQR configuration for the benches.
inline core::PreqrConfig BenchConfig() {
  core::PreqrConfig config;
  config.d_model = FastMode() ? 32 : 80;
  config.num_layers = 2;
  config.num_heads = 4;
  config.ffn_hidden = 2 * config.d_model;
  return config;
}

// --- Output helpers -----------------------------------------------------

inline void PrintHeader(const char* table, const char* description) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", table, description);
  std::printf("(synthetic substrate: absolute numbers differ from the paper;"
              " compare relative ordering)\n");
  std::printf("threads: %d (override with PREQR_NUM_THREADS)\n",
              ThreadPool::Global().num_threads());
  std::printf("==========================================================\n");
}

inline void PrintQErrorHeader(const char* workload) {
  std::printf("\n[%s]\n", workload);
  std::printf("%-18s %8s %8s %8s %8s %9s %8s\n", "method", "median", "90th",
              "95th", "99th", "max", "mean");
}

inline void PrintQErrorRow(const std::string& name,
                           const eval::QErrorStats& s) {
  std::printf("%-18s %8.2f %8.2f %8.2f %8.2f %9.1f %8.2f\n", name.c_str(),
              s.median, s.p90, s.p95, s.p99, s.max, s.mean);
}

}  // namespace preqr::bench

#endif  // PREQR_BENCH_HARNESS_H_
