// Integration tests for the Section 3.6 model-update cases.
#include <gtest/gtest.h>

#include "automaton/template_extractor.h"
#include "core/pretrain.h"
#include "db/stats.h"
#include "nn/optim.h"
#include "schema/schema_graph.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

namespace preqr::core {
namespace {

struct Env {
  db::Database imdb = workload::MakeImdbDatabase(3, 0.02);
  std::vector<db::TableStats> stats;
  std::unique_ptr<text::SqlTokenizer> tokenizer;
  automaton::Automaton fa;
  schema::SchemaGraph graph;
  std::vector<std::string> corpus;

  Env() {
    db::StatsCollector collector;
    stats = collector.AnalyzeAll(imdb);
    tokenizer = std::make_unique<text::SqlTokenizer>(imdb.catalog(), stats, 8);
    workload::ImdbQueryGenerator gen(imdb, 1);
    for (const auto& q : gen.Synthetic(30, 2)) corpus.push_back(q.sql);
    automaton::TemplateExtractor extractor(0.2);
    fa = extractor.BuildAutomaton(corpus).value();
    graph = schema::SchemaGraph::Build(imdb.catalog());
  }
};

PreqrConfig SmallConfig() {
  PreqrConfig config;
  config.d_model = 32;
  config.ffn_hidden = 64;
  return config;
}

// Reconstruction loss of one query's own token ids from its B=1 final
// token states [1, T, d].
nn::Tensor TokenLoss(const PreqrModel& model, const nn::Tensor& tokens,
                     const std::vector<int>& ids) {
  const int t = tokens.dim(1);
  nn::Tensor logits =
      nn::Reshape(model.MlmLogits(tokens), {t, model.vocab_size()});
  std::vector<int> targets(ids.begin(), ids.begin() + t);
  return nn::CrossEntropy(logits, targets, -1);
}

// Case 1: incremental last-layer training reduces MLM loss without
// touching the rest of the model.
TEST(ModelUpdateTest, Case1LastLayerIncrementalTraining) {
  Env env;
  PreqrModel model(SmallConfig(), env.tokenizer.get(), &env.fa, &env.graph,
                   7);
  // Snapshot a frozen parameter (token embedding).
  const std::vector<float> before_embed =
      model.InputParameters()[0].vec();

  nn::Adam adam(model.LastLayerParameters(), 1e-3f);
  nn::Tensor schema = model.EncodeSchemaNodes(false);
  auto loss_of = [&](const std::string& sql) {
    auto tokenized = env.tokenizer->Tokenize(sql);
    const auto batch = text::SqlTokenizer::Collate(
        {&tokenized.value()}, model.config().max_seq_len);
    nn::Tensor prefix = model.EncodePrefixBatch(batch, schema);
    nn::Tensor tokens = model.LastLayerBatch(prefix, schema, batch.lengths);
    return TokenLoss(model, tokens, tokenized.value().ids);
  };
  const double initial = loss_of(env.corpus[0]).item();
  for (int step = 0; step < 30; ++step) {
    adam.ZeroGrad();
    nn::Tensor loss = loss_of(env.corpus[0]);
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(loss_of(env.corpus[0]).item(), initial);
  // Frozen parts untouched.
  EXPECT_EQ(model.InputParameters()[0].vec(), before_embed);
}

// Case 2: extending the schema graph with a new table keeps the graph
// consistent and a model over the extended schema trains end-to-end.
TEST(ModelUpdateTest, Case2SchemaExtension) {
  Env env;
  sql::Catalog catalog = env.imdb.catalog();
  sql::TableDef extra;
  extra.name = "awards";
  extra.columns = {{"id", sql::ColumnType::kInt, true},
                   {"movie_id", sql::ColumnType::kInt, false},
                   {"category", sql::ColumnType::kString, false}};
  catalog.AddTable(extra);
  ASSERT_TRUE(catalog.AddForeignKey({"awards", "movie_id", "title", "id"})
                  .ok());
  schema::SchemaGraph graph = env.graph;
  const int nodes_before = graph.num_nodes();
  graph.AddTable(catalog, "awards");
  EXPECT_EQ(graph.num_nodes(), nodes_before + 4);

  text::SqlTokenizer tokenizer(catalog, env.stats, 8);
  PreqrModel model(SmallConfig(), &tokenizer, &env.fa, &graph, 7);
  nn::Tensor schema = model.EncodeSchemaNodes(true);
  EXPECT_EQ(schema.dim(0), graph.num_nodes());
  // One MLM step through the schema branch works on the extended graph.
  Pretrainer::Options opt;
  opt.epochs = 1;
  Pretrainer trainer(model, opt);
  auto history = trainer.Train(
      {env.corpus[0], env.corpus[1], env.corpus[2], env.corpus[3]});
  EXPECT_EQ(history.size(), 1u);
}

// Case 3: when query patterns change, rebuilding the FA and retraining
// only the Input Embedding parameters adapts the model to new templates.
TEST(ModelUpdateTest, Case3NewQueryPatterns) {
  Env env;
  PreqrModel model(SmallConfig(), env.tokenizer.get(), &env.fa, &env.graph,
                   7);
  nn::Adam adam(model.InputParameters(), 1e-3f);
  nn::Tensor schema = model.EncodeSchemaNodes(false);
  const std::string new_pattern =
      "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE "
      "t.id = mk.movie_id AND mk.keyword_id IN (1,2,3)";
  auto loss_of = [&] {
    auto tokenized = env.tokenizer->Tokenize(new_pattern);
    const auto batch = text::SqlTokenizer::Collate(
        {&tokenized.value()}, model.config().max_seq_len);
    return TokenLoss(model, model.ForwardBatch(batch, schema),
                     tokenized.value().ids);
  };
  model.set_train(false);
  const double initial = loss_of().item();
  for (int step = 0; step < 25; ++step) {
    adam.ZeroGrad();
    nn::Tensor loss = loss_of();
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(loss_of().item(), initial);
}

}  // namespace
}  // namespace preqr::core
