// Regenerates Table 7: overall performance under the same training
// settings — query clustering (BetaCV on the three log workloads + NDCG on
// the CH similarity workload), and summary rows for the estimation and
// SQL-to-Text tasks (the full per-percentile estimation tables are in the
// Table 8/9 benches; the full generation comparison is in this binary).
#include "bench/clustering_harness.h"

#include "baselines/tree2seq.h"
#include "eval/metrics.h"
#include "workload/ch.h"
#include "workload/clustering_workloads.h"
#include "workload/sql2text.h"

namespace preqr::bench {
namespace {

void RunClustering() {
  std::printf("\n[query clustering: BetaCV (smaller is better) / NDCG]\n");
  const workload::ClusteringWorkload workloads[] = {
      workload::MakeIitBombayWorkload(),
      workload::MakeUbExamWorkload(),
      workload::MakePocketDataWorkload(),
  };
  db::Database ch = workload::MakeChDatabase(42, DbScale());
  auto ch_wl = workload::MakeChSimilarityWorkload(ch, 7, Sized(12, 6));

  // method -> column values.
  std::vector<std::string> names;
  std::vector<std::vector<double>> betacv(3);
  std::vector<double> ndcg;
  for (int w = 0; w < 3; ++w) {
    auto methods = AllMethodDistances(workloads[w].queries,
                                      workloads[w].catalog, nullptr, 9 + w);
    if (w == 0) {
      for (const auto& m : methods) names.push_back(m.method);
    }
    for (const auto& m : methods) {
      betacv[w].push_back(eval::BetaCV(m.distance, workloads[w].labels));
    }
  }
  {
    auto methods =
        AllMethodDistances(ch_wl.queries, ch.catalog(), &ch, 19);
    for (const auto& m : methods) {
      ndcg.push_back(eval::MeanNdcg(tasks::ToSimilarity(m.distance),
                                    ch_wl.true_similarity, 10));
    }
  }
  std::printf("%-14s %12s %12s %12s %10s\n", "method", "IIT Bombay",
              "UB Exam", "PocketData", "NDCG (CH)");
  for (size_t m = 0; m < names.size(); ++m) {
    std::printf("%-14s %12.3f %12.3f %12.3f %10.3f\n", names[m].c_str(),
                betacv[0][m], betacv[1][m], betacv[2][m], ndcg[m]);
  }
}

void RunGeneration() {
  std::printf("\n[SQL-to-Text generation: BLEU (larger is better)]\n");
  struct Dataset {
    const char* name;
    std::vector<workload::TextPair> pairs;
  };
  Dataset datasets[] = {
      {"WikiSQL", workload::MakeWikiSqlDataset(Sized(200, 60), 31)},
      {"StackOverflow",
       workload::MakeStackOverflowDataset(Sized(200, 60), 32)},
  };
  std::printf("%-14s %12s %14s\n", "method", "WikiSQL", "StackOverflow");

  struct MethodRow {
    std::string name;
    double bleu[2];
  };
  std::vector<MethodRow> rows;
  for (int d = 0; d < 2; ++d) {
    auto& pairs = datasets[d].pairs;
    const size_t train_n = pairs.size() * 8 / 10;
    std::vector<workload::TextPair> train(pairs.begin(),
                                          pairs.begin() + train_n);
    std::vector<workload::TextPair> eval_set(pairs.begin() + train_n,
                                             pairs.end());
    std::vector<std::string> train_sqls;
    for (const auto& p : train) train_sqls.push_back(p.sql);

    tasks::Sql2TextModel::Options opt;
    opt.epochs = Sized(4, 1);

    // Seq2Seq (LSTM encoder).
    {
      baselines::LstmQueryEncoder lstm(32, 24, 3);
      lstm.BuildVocab(train_sqls);
      tasks::Sql2TextModel model(&lstm, opt);
      model.Fit(train);
      if (d == 0) rows.push_back({"Seq2Seq", {0, 0}});
      rows[0].bleu[d] = model.EvalBleu(eval_set);
    }
    // Tree2Seq.
    {
      baselines::Tree2SeqEncoder tree(32, 4);
      tasks::Sql2TextModel model(&tree, opt);
      model.Fit(train);
      if (d == 0) rows.push_back({"Tree2Seq", {0, 0}});
      rows[1].bleu[d] = model.EvalBleu(eval_set);
    }
    // Graph2Seq.
    {
      baselines::Graph2SeqEncoder g2s(32, 5);
      tasks::Sql2TextModel model(&g2s, opt);
      model.Fit(train);
      if (d == 0) rows.push_back({"Graph2Seq", {0, 0}});
      rows[2].bleu[d] = model.EvalBleu(eval_set);
    }
    // PreQR2Seq: PreQR encoder pre-trained on this dataset's SQL side.
    {
      // Minimal web-table catalog: tables/columns appearing in queries are
      // resolved lazily by the tokenizer; an empty catalog suffices for
      // generation (schema tokens fall back to sub-words).
      sql::Catalog catalog;
      std::vector<db::TableStats> stats;
      auto tokenizer =
          std::make_unique<text::SqlTokenizer>(catalog, stats, 8);
      automaton::TemplateExtractor extractor(0.2);
      automaton::Automaton fa = extractor.BuildAutomaton(train_sqls).value();
      schema::SchemaGraph graph = schema::SchemaGraph::Build(catalog);
      core::PreqrConfig config;
      config.d_model = Sized(48, 32);
      config.ffn_hidden = 2 * config.d_model;
      config.use_schema = false;  // no schema graph for web tables
      core::PreqrModel model(config, tokenizer.get(), &fa, &graph, 6);
      core::Pretrainer::Options popt;
      popt.epochs = Sized(3, 1);
      core::Pretrainer pretrainer(model, popt);
      pretrainer.Train(train_sqls);
      tasks::PreqrEncoder encoder(&model);
      tasks::Sql2TextModel gen_model(&encoder, opt);
      gen_model.Fit(train);
      if (d == 0) rows.push_back({"PreQR2Seq", {0, 0}});
      rows[3].bleu[d] = gen_model.EvalBleu(eval_set);
    }
  }
  for (const auto& row : rows) {
    std::printf("%-14s %12.1f %14.1f\n", row.name.c_str(),
                100.0 * row.bleu[0], 100.0 * row.bleu[1]);
  }
}

}  // namespace
}  // namespace preqr::bench

int main() {
  preqr::bench::PrintHeader("Table 7",
                            "overall performance (clustering + generation; "
                            "estimation details in Table 8/9 benches)");
  preqr::bench::RunClustering();
  preqr::bench::RunGeneration();
  return 0;
}
