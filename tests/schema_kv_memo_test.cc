// The schema cross-attention memo: a TrmGLayer fed precomputed schema
// keys/values must reproduce the layer's own projection bit for bit under
// every kernel table, and a PreqrEncoder's memoized keys/values must track
// the weights it serves — after a hot reload and after fine-tuning steps —
// so its encodes stay bitwise equal to a freshly built encoder over the
// same weights. The frozen-prefix memo keeps every miss once an encoder has
// fine-tuned and, before that, a query's prefix only from its second miss
// on; filling the memo or not never changes a bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "automaton/template_extractor.h"
#include "common/rng.h"
#include "core/preqr_model.h"
#include "db/stats.h"
#include "nn/kernels_dispatch.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "schema/schema_graph.h"
#include "serving/encoder_service.h"
#include "tasks/preqr_encoder.h"
#include "text/tokenizer.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"
#include "test_temp_dir.h"

namespace preqr::tasks {
namespace {

bool SameBits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// The kernel tables this host can run.
std::vector<const char*> Impls() {
  std::vector<const char*> impls = {"scalar"};
  if (nn::kernels::Avx2Supported()) impls.push_back("avx2");
  return impls;
}

// Restores the active kernel table on scope exit.
class ImplRestorer {
 public:
  ImplRestorer() : name_(nn::kernels::ActiveImplName()) {}
  ~ImplRestorer() { nn::kernels::SetActiveImpl(name_); }

 private:
  const char* name_;
};

// Random [rows, cols] values with about half of them exactly zero, like
// the ReLU output of the schema branch.
nn::Tensor SparseRandom(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(rows) * cols);
  for (auto& x : v) {
    const float u = rng.NextFloat() * 2.0f - 1.0f;
    x = u > 0.0f ? u : 0.0f;
  }
  return nn::Tensor::FromData({rows, cols}, std::move(v));
}

TEST(SchemaKvMemoTest, TrmGLayerMemoMatchesFreshProjectionBitwise) {
  ImplRestorer restore;
  const core::PreqrConfig config;
  Rng rng(41);
  core::TrmGLayer layer(config, rng);
  layer.set_train(false);
  const int bsz = 3, t = 34, n = 92, d = config.d_model;
  const std::vector<int> lengths = {34, 17, 5};
  // Valid rows random, pad rows exactly zero (the layer's input contract).
  Rng xrng(43);
  std::vector<float> x(static_cast<size_t>(bsz) * t * d, 0.0f);
  for (int b = 0; b < bsz; ++b) {
    for (int i = 0; i < lengths[static_cast<size_t>(b)] * d; ++i) {
      x[static_cast<size_t>(b) * t * d + static_cast<size_t>(i)] =
          xrng.NextFloat() * 2.0f - 1.0f;
    }
  }
  const nn::Tensor e_q = nn::Tensor::FromData({bsz, t, d}, std::move(x));
  const nn::Tensor schema = SparseRandom(n, d, 47);

  nn::NoGradGuard no_grad;
  for (const char* impl : Impls()) {
    ASSERT_TRUE(nn::kernels::SetActiveImpl(impl));
    SCOPED_TRACE(impl);
    const nn::Tensor fresh = layer.ForwardBatch(e_q, schema, lengths);
    const nn::AttentionKv kv = layer.ProjectSchemaKv(schema);
    const nn::Tensor memo = layer.ForwardBatch(e_q, schema, lengths, &kv);
    EXPECT_TRUE(SameBits(fresh, memo));
    // Reusing the memo for a second batch changes nothing either.
    EXPECT_TRUE(
        SameBits(fresh, layer.ForwardBatch(e_q, schema, lengths, &kv)));
  }
}

struct Env {
  db::Database imdb = workload::MakeImdbDatabase(5, 0.02);
  std::vector<db::TableStats> stats;
  std::unique_ptr<text::SqlTokenizer> tokenizer;
  automaton::Automaton fa;
  schema::SchemaGraph graph;
  std::vector<std::string> corpus;

  Env() {
    db::StatsCollector collector;
    stats = collector.AnalyzeAll(imdb);
    tokenizer = std::make_unique<text::SqlTokenizer>(imdb.catalog(), stats, 8);
    workload::ImdbQueryGenerator gen(imdb, 17);
    for (const auto& q : gen.Synthetic(12, 2)) corpus.push_back(q.sql);
    automaton::TemplateExtractor extractor(0.2);
    fa = extractor.BuildAutomaton(corpus).value();
    graph = schema::SchemaGraph::Build(imdb.catalog());
  }

  std::unique_ptr<core::PreqrModel> MakeModel(uint64_t seed) const {
    return std::make_unique<core::PreqrModel>(
        core::PreqrConfig(), tokenizer.get(), &fa, &graph, seed);
  }
};

const Env& E() {
  static const Env* env = new Env();
  return *env;
}

// Every corpus query through `served` equals a fresh encoder over `model`,
// bit for bit.
void ExpectMatchesFreshEncoder(PreqrEncoder& served, core::PreqrModel* model) {
  const auto got = served.TryEncodeVectorBatch(E().corpus, /*train=*/false);
  PreqrEncoder fresh(model);
  const auto want = fresh.TryEncodeVectorBatch(E().corpus, /*train=*/false);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok() && want[i].ok()) << E().corpus[i];
    EXPECT_TRUE(SameBits(got[i].value(), want[i].value()))
        << "encode differs from a fresh encoder: " << E().corpus[i];
  }
}

TEST(EncoderMemoTest, ReloadMatchesFreshEncoder) {
  const std::string path = test::TempPath("schema_kv_memo_reload.prm");
  ASSERT_TRUE(nn::SaveModule(*E().MakeModel(53), path).ok());

  auto served = E().MakeModel(29);
  PreqrEncoder encoder(served.get());
  serving::EncoderService service(&encoder);
  service.AttachModel(served.get());
  ASSERT_TRUE(service.Encode(E().corpus.front()).ok());  // warm the memo
  ASSERT_TRUE(service.ReloadModel(path).ok());
  std::remove(path.c_str());
  ExpectMatchesFreshEncoder(encoder, served.get());
}

// One fine-tuning step on the last layer: sum-of-squares loss over a few
// train-mode encodes, then an Adam step.
void FineTuneStep(PreqrEncoder& encoder, bool begin_step) {
  nn::Adam adam(encoder.TrainableParameters(), 5e-2f);
  adam.ZeroGrad();
  if (begin_step) encoder.BeginStep(/*train=*/true);
  nn::Tensor loss;
  for (size_t i = 0; i < 4; ++i) {
    nn::Tensor v = encoder.EncodeVector(E().corpus[i], /*train=*/true);
    nn::Tensor l = nn::Sum(nn::Mul(v, v));
    loss = loss.defined() ? nn::Add(loss, l) : l;
  }
  loss.Backward();
  adam.Step();
  if (begin_step) encoder.BeginStep(/*train=*/false);
}

TEST(EncoderMemoTest, FineTuneStepMatchesFreshEncoder) {
  auto model = E().MakeModel(31);
  PreqrEncoder encoder(model.get());
  // Warm the schema memo with an inference encode first (a never-tuned
  // encoder keeps no prefix on a query's first miss; the fine-tuning steps
  // below fill the prefix memo).
  for (const auto& v : encoder.TryEncodeVectorBatch(E().corpus, false)) {
    ASSERT_TRUE(v.ok());
  }
  FineTuneStep(encoder, /*begin_step=*/true);
  ExpectMatchesFreshEncoder(encoder, model.get());
  // Without the BeginStep hooks the train-mode encodes alone mark the
  // last layer stale.
  FineTuneStep(encoder, /*begin_step=*/false);
  ExpectMatchesFreshEncoder(encoder, model.get());
}

// Every corpus query through `encoder`, inference mode, in order.
std::vector<nn::Tensor> EncodeCorpus(PreqrEncoder& encoder) {
  std::vector<nn::Tensor> out;
  for (auto& v : encoder.TryEncodeVectorBatch(E().corpus, /*train=*/false)) {
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    out.push_back(v.ok() ? std::move(v).value() : nn::Tensor());
  }
  return out;
}

// The same bits whether an encoder fills the prefix memo or not, and
// whether an encode reads its prefix from the memo or computes it.
TEST(EncoderMemoTest, MemoFillingEncoderMatchesNeverTunedBitwise) {
  auto model = E().MakeModel(43);
  PreqrEncoder never_tuned(model.get());
  PreqrEncoder filling(model.get());
  // A fine-tuning step that moves no weight turns the memo on.
  filling.BeginStep(/*train=*/true);
  filling.BeginStep(/*train=*/false);
  const auto want = EncodeCorpus(never_tuned);
  const auto missed = EncodeCorpus(filling);
  EXPECT_EQ(never_tuned.cached_queries(), 0u);
  ASSERT_GT(filling.cached_queries(), 0u);
  const uint64_t hits_before = filling.cache_stats().hits;
  const auto hit = EncodeCorpus(filling);
  EXPECT_GE(filling.cache_stats().hits, hits_before + E().corpus.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameBits(missed[i], want[i])) << E().corpus[i];
    EXPECT_TRUE(SameBits(hit[i], want[i])) << E().corpus[i];
  }
}

// A serving encoder never fine-tunes: a query EncoderService sends it once
// is computed and dropped, since the service's own cache answers repeats.
TEST(PrefixMemoTest, NeverTunedEncoderBehindServiceKeepsNoPrefixes) {
  auto model = E().MakeModel(47);
  PreqrEncoder encoder(model.get());
  serving::EncoderService service(&encoder);
  service.AttachModel(model.get());
  for (const auto& sql : E().corpus) ASSERT_TRUE(service.Encode(sql).ok());
  ASSERT_TRUE(
      service.EncodeBatch(std::vector<std::string>(E().corpus))[0].ok());
  EXPECT_EQ(encoder.cached_queries(), 0u);
  // The probes still count: every distinct query missed.
  EXPECT_GE(encoder.cache_stats().misses,
            std::unordered_set<std::string>(E().corpus.begin(),
                                            E().corpus.end())
                .size());
  EXPECT_EQ(encoder.cache_stats().hits, 0u);
}

// The corpus without repeats, in first-occurrence order.
std::vector<std::string> DistinctCorpus() {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const auto& sql : E().corpus) {
    if (seen.insert(sql).second) out.push_back(sql);
  }
  return out;
}

// Behind a result cache smaller than its working set, a never-tuned encoder
// is sent the same queries again: it keeps each one's prefix from its
// second miss on and serves the third from the memo, with the same bits.
TEST(PrefixMemoTest, NeverTunedEncoderKeepsPrefixesFromTheSecondMiss) {
  const auto corpus = DistinctCorpus();
  ASSERT_GE(corpus.size(), 3u);
  auto model = E().MakeModel(67);
  PreqrEncoder encoder(model.get());
  serving::EncoderServiceOptions options;
  options.cache_capacity = 1;
  options.cache_shards = 1;
  serving::EncoderService service(&encoder, options);
  service.AttachModel(model.get());
  std::vector<nn::Tensor> first;
  for (const auto& sql : corpus) {
    auto v = service.Encode(sql);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    first.push_back(std::move(v).value());
  }
  EXPECT_EQ(encoder.cached_queries(), 0u);
  for (const auto& sql : corpus) ASSERT_TRUE(service.Encode(sql).ok());
  EXPECT_EQ(encoder.cached_queries(), corpus.size());
  EXPECT_EQ(encoder.cache_stats().hits, 0u);
  for (size_t i = 0; i < corpus.size(); ++i) {
    auto v = service.Encode(corpus[i]);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_TRUE(SameBits(v.value(), first[i])) << corpus[i];
  }
  EXPECT_EQ(encoder.cache_stats().hits, corpus.size());
}

// One train-mode encode turns the memo on for every later inference miss,
// bounded by the capacity and counted.
TEST(PrefixMemoTest, TrainModeEncodeTurnsTheMemoOn) {
  const auto corpus = DistinctCorpus();
  auto model = E().MakeModel(53);
  PreqrEncoder::Options options;
  options.cache_capacity = 4;
  options.cache_shards = 2;
  PreqrEncoder encoder(model.get(), options);
  for (const auto& sql : corpus) {
    ASSERT_TRUE(encoder.TryEncodeVector(sql, /*train=*/false).ok());
  }
  ASSERT_EQ(encoder.cached_queries(), 0u);
  ASSERT_TRUE(encoder.TryEncodeVector(corpus[0], /*train=*/true).ok());
  EXPECT_EQ(encoder.cached_queries(), 1u);
  const auto before = encoder.cache_stats();
  for (const auto& sql : corpus) {
    ASSERT_TRUE(encoder.TryEncodeVector(sql, /*train=*/false).ok());
  }
  const auto after = encoder.cache_stats();
  EXPECT_GT(encoder.cached_queries(), 1u);
  EXPECT_LE(encoder.cached_queries(), 4u);
  EXPECT_GT(after.evictions, before.evictions);
  EXPECT_EQ(after.hits + after.misses,
            before.hits + before.misses + corpus.size());
  // The last query in is still held: encoding it again is a hit.
  ASSERT_TRUE(encoder.TryEncodeVector(corpus.back(), /*train=*/false).ok());
  EXPECT_EQ(encoder.cache_stats().hits, after.hits + 1);
}

// The flag describes how the encoder is used, not the weights it holds:
// InvalidateCache and a hot reload empty the memo but keep it on.
TEST(PrefixMemoTest, FineTunedFlagSurvivesInvalidateAndReload) {
  const std::string path = test::TempPath("prefix_memo_reload.prm");
  ASSERT_TRUE(nn::SaveModule(*E().MakeModel(59), path).ok());
  auto model = E().MakeModel(61);
  PreqrEncoder encoder(model.get());
  serving::EncoderService service(&encoder);
  service.AttachModel(model.get());
  encoder.BeginStep(/*train=*/true);
  encoder.BeginStep(/*train=*/false);
  ASSERT_TRUE(encoder.TryEncodeVector(E().corpus[0], false).ok());
  ASSERT_EQ(encoder.cached_queries(), 1u);

  encoder.InvalidateCache();
  EXPECT_EQ(encoder.cached_queries(), 0u);
  ASSERT_TRUE(encoder.TryEncodeVector(E().corpus[1], false).ok());
  EXPECT_EQ(encoder.cached_queries(), 1u);

  ASSERT_TRUE(service.ReloadModel(path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(encoder.cached_queries(), 0u);
  ASSERT_TRUE(service.Encode(E().corpus[2]).ok());
  EXPECT_EQ(encoder.cached_queries(), 1u);
}

}  // namespace
}  // namespace preqr::tasks
