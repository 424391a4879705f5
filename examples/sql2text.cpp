// SQL-to-Text generation: train the attention decoder on top of a PreQR
// encoder and generate English descriptions for held-out queries
// (Section 4.6).
//
//   ./build/examples/sql2text
#include <cstdio>

#include "automaton/template_extractor.h"
#include "baselines/lstm_encoder.h"
#include "core/pretrain.h"
#include "schema/schema_graph.h"
#include "tasks/preqr_encoder.h"
#include "tasks/sql2text.h"
#include "text/tokenizer.h"
#include "workload/sql2text.h"

using namespace preqr;

int main() {
  auto pairs = workload::MakeWikiSqlDataset(180);
  const size_t train_n = pairs.size() * 8 / 10;
  std::vector<workload::TextPair> train(pairs.begin(),
                                        pairs.begin() + train_n);
  std::vector<workload::TextPair> test(pairs.begin() + train_n, pairs.end());
  std::vector<std::string> train_sqls;
  for (const auto& p : train) train_sqls.push_back(p.sql);

  // Pre-train a PreQR encoder on the dataset's SQL side (no schema for
  // ad-hoc web tables; the automaton still provides structure).
  sql::Catalog catalog;
  std::vector<db::TableStats> stats;
  text::SqlTokenizer tokenizer(catalog, stats, 8);
  automaton::TemplateExtractor extractor(0.2);
  automaton::Automaton fa = extractor.BuildAutomaton(train_sqls).value();
  schema::SchemaGraph graph = schema::SchemaGraph::Build(catalog);
  core::PreqrConfig config;
  config.d_model = 48;
  config.use_schema = false;
  core::PreqrModel model(config, &tokenizer, &fa, &graph);
  core::Pretrainer::Options popt;
  popt.epochs = 2;
  core::Pretrainer(model, popt).Train(train_sqls);

  // Train the decoder; compare against the plain Seq2Seq encoder.
  tasks::Sql2TextModel::Options opt;
  opt.epochs = 5;
  opt.verbose = true;
  tasks::PreqrEncoder preqr_encoder(&model);
  tasks::Sql2TextModel preqr2seq(&preqr_encoder, opt);
  preqr2seq.Fit(train);

  baselines::LstmQueryEncoder lstm(32, 24, 3);
  lstm.BuildVocab(train_sqls);
  tasks::Sql2TextModel seq2seq(&lstm, opt);
  seq2seq.Fit(train);

  std::printf("\nBLEU  Seq2Seq  = %.1f\n", 100.0 * seq2seq.EvalBleu(test));
  std::printf("BLEU  PreQR2Seq = %.1f\n", 100.0 * preqr2seq.EvalBleu(test));

  std::printf("\ngenerations:\n");
  for (int i = 0; i < 3; ++i) {
    std::printf("  sql: %s\n", test[static_cast<size_t>(i)].sql.c_str());
    std::string ref, gen;
    for (const auto& w : test[static_cast<size_t>(i)].text) ref += w + " ";
    for (const auto& w :
         preqr2seq.Generate(test[static_cast<size_t>(i)].sql)) {
      gen += w + " ";
    }
    std::printf("  ref: %s\n  gen: %s\n\n", ref.c_str(), gen.c_str());
  }
  return 0;
}
