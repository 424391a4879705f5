#ifndef PREQR_BENCH_CLUSTERING_HARNESS_H_
#define PREQR_BENCH_CLUSTERING_HARNESS_H_

// Shared machinery for the query-clustering experiments (Table 7 and
// Figure 7): builds pairwise distance matrices for the six similarity
// methods of Section 4.3.1 over an arbitrary workload + schema.

#include <memory>
#include <string>
#include <vector>

#include "automaton/template_extractor.h"
#include "baselines/lstm_encoder.h"
#include "baselines/onehot.h"
#include "bench/harness.h"
#include "core/pretrain.h"
#include "sql/lexer.h"
#include "tasks/clustering.h"
#include "tasks/preqr_encoder.h"
#include "tasks/sql2text.h"
#include "workload/sql2text.h"

namespace preqr::bench {

struct MethodDistances {
  std::string method;
  std::vector<std::vector<double>> distance;
};

// Computes distance matrices for all six methods. `data_db` may be null
// (schema-only workloads); the one-hot featurizer then runs without value
// ranges / bitmaps, and the PreQR tokenizer without statistics.
inline std::vector<MethodDistances> AllMethodDistances(
    const std::vector<std::string>& queries, const sql::Catalog& catalog,
    const db::Database* data_db, uint64_t seed = 9) {
  std::vector<MethodDistances> out;
  const auto stmts = tasks::ParseAll(queries);
  out.push_back({"Aouiche",
                 tasks::AstDistanceMatrix(stmts, tasks::AstMetric::kAouiche)});
  out.push_back({"Aligon",
                 tasks::AstDistanceMatrix(stmts, tasks::AstMetric::kAligon)});
  out.push_back(
      {"Makiyama",
       tasks::AstDistanceMatrix(stmts, tasks::AstMetric::kMakiyama)});

  // One-hotDis.
  std::unique_ptr<db::Database> empty_db;
  const db::Database* db_for_onehot = data_db;
  if (db_for_onehot == nullptr) {
    empty_db = std::make_unique<db::Database>();
    for (const auto& table : catalog.tables()) {
      empty_db->AddTable(table).Seal();
    }
    for (const auto& fk : catalog.foreign_keys()) {
      (void)empty_db->catalog().AddForeignKey(fk);
    }
    db_for_onehot = empty_db.get();
  }
  baselines::OneHotEncoder onehot(*db_for_onehot, /*sampler=*/nullptr);
  out.push_back({"One-hotDis",
                 tasks::EmbeddingDistanceMatrix(queries, onehot)});

  // Seq2SeqDis: an attention Seq2Seq auto-encoder trained on the workload;
  // the encoder summary is the query embedding.
  {
    baselines::LstmQueryEncoder lstm(32, 24, seed);
    lstm.BuildVocab(queries);
    std::vector<workload::TextPair> auto_pairs;
    for (const auto& q : queries) {
      workload::TextPair pair;
      pair.sql = q;
      auto lexed = sql::Lex(q);
      if (lexed.ok()) {
        for (const auto& tok : lexed.value()) {
          if (tok.type != sql::TokenType::kEnd) pair.text.push_back(tok.text);
        }
      }
      if (pair.text.size() > 18) pair.text.resize(18);
      auto_pairs.push_back(std::move(pair));
    }
    tasks::Sql2TextModel::Options opt;
    opt.epochs = Sized(3, 1);
    opt.dim = 32;
    tasks::Sql2TextModel autoencoder(&lstm, opt);
    autoencoder.Fit(auto_pairs);
    out.push_back({"Seq2SeqDis",
                   tasks::EmbeddingDistanceMatrix(queries, lstm)});
  }

  // PreQRDis: a small PreQR pre-trained on this workload's queries.
  {
    std::vector<db::TableStats> stats;
    if (data_db != nullptr) {
      db::StatsCollector collector;
      stats = collector.AnalyzeAll(*data_db);
    }
    auto tokenizer =
        std::make_unique<text::SqlTokenizer>(catalog, stats, 8);
    automaton::TemplateExtractor extractor(0.2);
    automaton::Automaton fa = extractor.BuildAutomaton(queries).value();
    schema::SchemaGraph graph = schema::SchemaGraph::Build(catalog);
    core::PreqrConfig config;
    config.d_model = Sized(48, 32);
    config.ffn_hidden = 2 * config.d_model;
    core::PreqrModel model(config, tokenizer.get(), &fa, &graph, seed + 1);
    core::Pretrainer::Options popt;
    popt.epochs = Sized(4, 1);
    core::Pretrainer pretrainer(model, popt);
    pretrainer.Train(queries);
    tasks::PreqrEncoder encoder(&model);
    out.push_back({"PreQRDis",
                   tasks::EmbeddingDistanceMatrix(queries, encoder)});
  }
  return out;
}

}  // namespace preqr::bench

#endif  // PREQR_BENCH_CLUSTERING_HARNESS_H_
