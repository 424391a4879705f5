#include <gtest/gtest.h>

#include "automaton/template_extractor.h"
#include "core/pretrain.h"
#include "db/stats.h"
#include "nn/serialize.h"
#include "schema/schema_graph.h"
#include "tasks/preqr_encoder.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"
#include "test_temp_dir.h"

namespace preqr::core {
namespace {

// One shared environment for all PreQR model tests (construction is the
// expensive part).
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
    for (const auto& q : gen.Synthetic(40, 2)) corpus.push_back(q.sql);
    automaton::TemplateExtractor extractor(0.2);
    fa = extractor.BuildAutomaton(corpus).value();
    graph = schema::SchemaGraph::Build(imdb.catalog());
  }
  PreqrModel MakeModel(PreqrConfig config = SmallConfig()) {
    return PreqrModel(config, tokenizer.get(), &fa, &graph, 7);
  }
  static PreqrConfig SmallConfig() {
    PreqrConfig config;
    config.d_model = 32;
    config.ffn_hidden = 64;
    return config;
  }
};

Env& E() {
  static Env* env = new Env();
  return *env;
}

TEST(PreqrModelTest, SchemaNodesShape) {
  PreqrModel model = E().MakeModel();
  nn::Tensor schema = model.EncodeSchemaNodes(false);
  EXPECT_EQ(schema.dim(0), E().graph.num_nodes());
  EXPECT_EQ(schema.dim(1), 32);
  EXPECT_FALSE(schema.requires_grad());
  nn::Tensor schema_grad = model.EncodeSchemaNodes(true);
  EXPECT_TRUE(schema_grad.requires_grad());
}

// One query as a B=1 padded batch — the only forward the model has.
text::SqlTokenizer::TokenizedBatch CollateOne(
    const text::SqlTokenizer::Tokenized& tokenized, const PreqrModel& model) {
  return text::SqlTokenizer::Collate({&tokenized}, model.config().max_seq_len);
}

TEST(PreqrModelTest, ForwardShapes) {
  PreqrModel model = E().MakeModel();
  model.set_train(false);  // train-mode dropout needs per-example seeds
  auto tokenized = E().tokenizer->Tokenize(E().corpus[0]);
  ASSERT_TRUE(tokenized.ok());
  nn::Tensor schema = model.EncodeSchemaNodes(false);
  nn::Tensor tokens =
      model.ForwardBatch(CollateOne(tokenized.value(), model), schema);
  ASSERT_EQ(tokens.ndim(), 3);
  EXPECT_EQ(tokens.dim(0), 1);
  EXPECT_EQ(tokens.dim(1), static_cast<int>(tokenized.value().ids.size()));
  EXPECT_EQ(tokens.dim(2), 32);
  nn::Tensor logits = model.MlmLogits(tokens);
  EXPECT_EQ(logits.dim(2), model.vocab_size());
}

TEST(PreqrModelTest, AblationFlagsChangeOutputs) {
  PreqrConfig na = Env::SmallConfig();
  na.use_automaton = false;
  PreqrConfig nt = Env::SmallConfig();
  nt.use_schema = false;
  PreqrModel full = E().MakeModel();
  PreqrModel no_auto = E().MakeModel(na);
  PreqrModel no_trm = E().MakeModel(nt);
  no_trm.set_train(false);
  auto tokenized = E().tokenizer->Tokenize(E().corpus[0]);
  ASSERT_TRUE(tokenized.ok());
  // The NT variant ignores schema nodes entirely.
  nn::Tensor schema = no_trm.EncodeSchemaNodes(false);
  nn::Tensor tokens = no_trm.ForwardBatch(
      CollateOne(tokenized.value(), no_trm), nn::Tensor());
  EXPECT_EQ(tokens.dim(2), 32);
  (void)schema;
  (void)full;
  (void)no_auto;
}

TEST(PreqrModelTest, PrefixPlusLastLayerMatchesFullForward) {
  PreqrModel model = E().MakeModel();
  model.set_train(false);
  auto tokenized = E().tokenizer->Tokenize(E().corpus[1]);
  ASSERT_TRUE(tokenized.ok());
  nn::Tensor schema = model.EncodeSchemaNodes(false);
  const auto batch = CollateOne(tokenized.value(), model);
  nn::Tensor full = model.ForwardBatch(batch, schema);
  nn::Tensor prefix = model.EncodePrefixBatch(batch, schema);
  nn::Tensor split = model.LastLayerBatch(prefix, schema, batch.lengths);
  ASSERT_EQ(full.size(), split.size());
  for (nn::Index i = 0; i < full.size(); ++i) {
    EXPECT_NEAR(full.at(i), split.at(i), 1e-4f);
  }
}

TEST(PreqrModelTest, ParameterGroupsDisjoint) {
  PreqrModel model = E().MakeModel();
  const auto last = model.LastLayerParameters();
  const auto schema = model.SchemaParameters();
  const auto input = model.InputParameters();
  EXPECT_FALSE(last.empty());
  EXPECT_FALSE(schema.empty());
  EXPECT_FALSE(input.empty());
  for (const auto& a : last) {
    for (const auto& b : schema) EXPECT_NE(a.impl().get(), b.impl().get());
    for (const auto& b : input) EXPECT_NE(a.impl().get(), b.impl().get());
  }
}

TEST(PretrainerTest, LossDecreasesAndAccuracyRises) {
  PreqrModel model = E().MakeModel();
  Pretrainer::Options opt;
  opt.epochs = 3;
  Pretrainer trainer(model, opt);
  auto history = trainer.Train(E().corpus);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_LT(history.back().mlm_loss, history.front().mlm_loss);
  EXPECT_GT(history.back().masked_accuracy, history.front().masked_accuracy);
}

TEST(PretrainerTest, EvaluateRuns) {
  PreqrModel model = E().MakeModel();
  Pretrainer::Options opt;
  opt.epochs = 1;
  Pretrainer trainer(model, opt);
  trainer.Train(E().corpus);
  auto stats = trainer.Evaluate(E().corpus);
  EXPECT_GT(stats.mlm_loss, 0.0);
}

TEST(PreqrModelTest, EncodeConvenience) {
  PreqrModel model = E().MakeModel();
  tasks::PreqrEncoder encoder(&model);
  auto enc = encoder.TryEncodeVector(E().corpus[0], /*train=*/false);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc.value().dim(1), encoder.dim());
  EXPECT_FALSE(encoder.TryEncodeVector("not a query !!", false).ok());
}

TEST(PreqrModelTest, SaveLoadRoundTrip) {
  PreqrModel a = E().MakeModel();
  PreqrModel b = E().MakeModel();
  const std::string path = test::TempPath("preqr_model.bin");
  ASSERT_TRUE(nn::SaveModule(a, path).ok());
  ASSERT_TRUE(nn::LoadModule(b, path).ok());
  tasks::PreqrEncoder enc_a(&a);
  tasks::PreqrEncoder enc_b(&b);
  auto ea = enc_a.TryEncodeVector(E().corpus[0], /*train=*/false);
  auto eb = enc_b.TryEncodeVector(E().corpus[0], /*train=*/false);
  ASSERT_TRUE(ea.ok());
  ASSERT_TRUE(eb.ok());
  for (nn::Index i = 0; i < ea.value().size(); ++i) {
    EXPECT_FLOAT_EQ(ea.value().at(i), eb.value().at(i));
  }
  std::remove(path.c_str());
}

TEST(PreqrEncoderTest, ReadoutShapesAndCache) {
  PreqrModel model = E().MakeModel();
  tasks::PreqrEncoder encoder(&model);
  EXPECT_EQ(encoder.dim(), 5 * 32);
  EXPECT_EQ(encoder.sequence_dim(), 32);
  auto v1 = encoder.EncodeVector(E().corpus[0], false);
  EXPECT_EQ(v1.dim(1), encoder.dim());
  // Cached prefix: repeated encodings agree.
  auto v2 = encoder.EncodeVector(E().corpus[0], false);
  for (nn::Index i = 0; i < v1.size(); ++i) {
    EXPECT_FLOAT_EQ(v1.at(i), v2.at(i));
  }
  auto seq = encoder.EncodeSequence(E().corpus[0], false);
  EXPECT_EQ(seq.dim(1), 32);
  EXPECT_FALSE(encoder.TrainableParameters().empty());
}

}  // namespace
}  // namespace preqr::core
