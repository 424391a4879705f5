// Padding invariance of the batched [B, T, d] execution path: encoding a
// query inside any batch — at any padded length, next to any neighbors,
// duplicated or not — must be bitwise-identical to encoding it alone. The
// batched kernels partition their loops per example (src/nn/kernels.cc), so
// this holds exactly; these tests are the contract's pin.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "automaton/template_extractor.h"
#include "common/thread_pool.h"
#include "core/preqr_model.h"
#include "db/stats.h"
#include "nn/ops.h"
#include "schema/schema_graph.h"
#include "serving/metrics.h"
#include "tasks/preqr_encoder.h"
#include "text/tokenizer.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

namespace preqr::core {
namespace {

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
    workload::ImdbQueryGenerator gen(imdb, 7);
    for (const auto& q : gen.Synthetic(24, 2)) corpus.push_back(q.sql);
    automaton::TemplateExtractor extractor(0.2);
    fa = extractor.BuildAutomaton(corpus).value();
    graph = schema::SchemaGraph::Build(imdb.catalog());
  }
  PreqrModel MakeModel() {
    PreqrConfig config;
    config.d_model = 32;
    config.ffn_hidden = 64;
    return PreqrModel(config, tokenizer.get(), &fa, &graph, 23);
  }
};

Env& E() {
  static Env* env = new Env();
  return *env;
}

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (a.empty()) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": bitwise mismatch";
}

// ForwardBatch row b/i must carry exactly the bits the B=1 ForwardBatch
// produces on that example alone, and every pad row must be exactly zero
// (the guarantee that keeps junk out of downstream reductions).
TEST(BatchInvarianceTest, ModelForwardBatchMatchesPerQueryRows) {
  PreqrModel model = E().MakeModel();
  model.set_train(false);
  nn::NoGradGuard no_grad;
  nn::Tensor schema = model.EncodeSchemaNodes(/*with_grad=*/false);

  std::vector<text::SqlTokenizer::Tokenized> toks;
  for (size_t q = 0; q < 6; ++q) {
    auto t = model.tokenizer().Tokenize(E().corpus[q]);
    ASSERT_TRUE(t.ok());
    toks.push_back(std::move(t.value()));
  }
  const auto batch =
      text::SqlTokenizer::Collate(toks, model.config().max_seq_len);
  nn::Tensor out = model.ForwardBatch(batch, schema);
  ASSERT_EQ(out.ndim(), 3);
  ASSERT_EQ(out.dim(0), batch.batch_size);
  ASSERT_EQ(out.dim(1), batch.t_max);
  const int d = model.config().d_model;
  for (int b = 0; b < batch.batch_size; ++b) {
    const int len = batch.lengths[static_cast<size_t>(b)];
    const auto one = text::SqlTokenizer::Collate(
        {&toks[static_cast<size_t>(b)]}, model.config().max_seq_len);
    ExpectBitwiseEqual(model.ForwardBatch(one, schema).vec(),
                       nn::SliceExample(out, b, len).vec(),
                       "ForwardBatch valid rows");
    // Pad rows: exactly zero, every float.
    const float* base = out.data() +
                        (static_cast<size_t>(b) * batch.t_max + len) *
                            static_cast<size_t>(d);
    for (int i = 0; i < (batch.t_max - len) * d; ++i) {
      ASSERT_EQ(base[i], 0.0f) << "pad row junk at example " << b;
    }
  }
}

// A short query padded out next to a much longer neighbor sees T_max far
// beyond its own length; its bits must not notice.
TEST(BatchInvarianceTest, ShortQueryUnchangedByLongNeighbor) {
  PreqrModel model = E().MakeModel();
  // Shortest and longest corpus members by tokenized length.
  std::string shortest, longest;
  size_t min_len = SIZE_MAX, max_len = 0;
  for (const auto& sql : E().corpus) {
    auto t = model.tokenizer().Tokenize(sql);
    ASSERT_TRUE(t.ok());
    const size_t n = t.value().ids.size();
    if (n < min_len) { min_len = n; shortest = sql; }
    if (n > max_len) { max_len = n; longest = sql; }
  }
  ASSERT_LT(min_len, max_len);
  tasks::PreqrEncoder solo(&model);
  nn::Tensor alone = solo.EncodeVector(shortest, /*train=*/false);
  tasks::PreqrEncoder cold(&model);  // fresh cache: the batch path computes
  auto padded = cold.EncodeVectorBatch({shortest, longest}, /*train=*/false);
  ExpectBitwiseEqual(alone.vec(), padded[0].vec(),
                     "short query next to long neighbor");
}

TEST(BatchInvarianceTest, BatchedEncodingsBitwiseMatchSinglesAcrossSizes) {
  PreqrModel model = E().MakeModel();
  tasks::PreqrEncoder single(&model);
  for (int bsz : {1, 3, 8}) {
    tasks::PreqrEncoder batched(&model);  // cold cache per batch size
    std::vector<std::string> sqls(E().corpus.begin(),
                                  E().corpus.begin() + bsz);
    auto results = batched.TryEncodeVectorBatch(sqls, /*train=*/false);
    ASSERT_EQ(results.size(), sqls.size());
    for (size_t i = 0; i < sqls.size(); ++i) {
      ASSERT_TRUE(results[i].ok());
      auto one = single.TryEncodeVector(sqls[i], /*train=*/false);
      ASSERT_TRUE(one.ok());
      ExpectBitwiseEqual(one.value().vec(), results[i].value().vec(),
                         "batched vs single");
    }
  }
}

TEST(BatchInvarianceTest, ShuffledCompositionDoesNotChangeBits) {
  PreqrModel model = E().MakeModel();
  std::vector<std::string> sqls(E().corpus.begin(), E().corpus.begin() + 8);
  tasks::PreqrEncoder in_order(&model);
  auto ordered = in_order.EncodeVectorBatch(sqls, /*train=*/false);
  // Fixed permutation; a fresh encoder so every prefix is recomputed inside
  // the differently-composed padded batch.
  const int perm[] = {5, 2, 7, 0, 3, 6, 1, 4};
  std::vector<std::string> shuffled;
  for (int p : perm) shuffled.push_back(sqls[static_cast<size_t>(p)]);
  tasks::PreqrEncoder reordered(&model);
  auto permuted = reordered.EncodeVectorBatch(shuffled, /*train=*/false);
  for (size_t i = 0; i < shuffled.size(); ++i) {
    ExpectBitwiseEqual(ordered[static_cast<size_t>(perm[i])].vec(),
                       permuted[i].vec(), "shuffled batch member");
  }
}

TEST(BatchInvarianceTest, DuplicatesCollapseOntoIdenticalBits) {
  PreqrModel model = E().MakeModel();
  tasks::PreqrEncoder single(&model);
  tasks::PreqrEncoder batched(&model);
  const std::vector<std::string> sqls = {
      E().corpus[0], E().corpus[1], E().corpus[0],
      E().corpus[2], E().corpus[1], E().corpus[0]};
  auto results = batched.EncodeVectorBatch(sqls, /*train=*/false);
  ASSERT_EQ(results.size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    nn::Tensor one = single.EncodeVector(sqls[i], /*train=*/false);
    ExpectBitwiseEqual(one.vec(), results[i].vec(), "duplicate slot");
  }
  ExpectBitwiseEqual(results[0].vec(), results[2].vec(), "dup pair 0/2");
  ExpectBitwiseEqual(results[0].vec(), results[5].vec(), "dup pair 0/5");
  ExpectBitwiseEqual(results[1].vec(), results[4].vec(), "dup pair 1/4");
}

// A malformed batch member must get its own parse error without perturbing
// a single bit of its neighbors — and the zero-vector fallback is counted,
// not silent.
TEST(BatchInvarianceTest, MalformedMemberDoesNotPoisonNeighbors) {
  PreqrModel model = E().MakeModel();
  tasks::PreqrEncoder single(&model);
  tasks::PreqrEncoder batched(&model);
  std::vector<std::string> sqls(E().corpus.begin(), E().corpus.begin() + 5);
  sqls.insert(sqls.begin() + 2, "SELECT FROM WHERE !!! not sql");
  auto results = batched.TryEncodeVectorBatch(sqls, /*train=*/false);
  ASSERT_EQ(results.size(), sqls.size());
  EXPECT_FALSE(results[2].ok());
  for (size_t i = 0; i < sqls.size(); ++i) {
    if (i == 2) continue;
    ASSERT_TRUE(results[i].ok());
    auto one = single.TryEncodeVector(sqls[i], /*train=*/false);
    ASSERT_TRUE(one.ok());
    ExpectBitwiseEqual(one.value().vec(), results[i].value().vec(),
                       "neighbor of malformed query");
  }
  // The EncodeVectorBatch fallback for the malformed slot is counted in the
  // process-global metric (satellite of the silent-zero-vector bugfix).
  const uint64_t before = serving::GlobalEncodePathStats().fallback_total;
  auto with_fallback = batched.EncodeVectorBatch(sqls, /*train=*/false);
  EXPECT_GT(serving::GlobalEncodePathStats().fallback_total, before);
  nn::Tensor zero_readout = single.EncodeVector(sqls[2], /*train=*/false);
  ExpectBitwiseEqual(zero_readout.vec(), with_fallback[2].vec(),
                     "zero fallback readout");
}

// A query that tokenizes past max_seq_len is clipped to it, both alone and
// in the middle of a batch next to short neighbors; the clipped encode
// keeps its bits and its read-out width.
TEST(BatchInvarianceTest, OverlongQueryClipsIdenticallyAloneAndInBatch) {
  PreqrModel model = E().MakeModel();
  std::string in_list;
  for (int v = 1; v <= 400; ++v) {
    if (v > 1) in_list += ", ";
    in_list += std::to_string(v);
  }
  const std::string overlong =
      "SELECT COUNT(*) FROM title t WHERE t.kind_id IN (" + in_list + ")";
  auto tokenized = model.tokenizer().Tokenize(overlong);
  ASSERT_TRUE(tokenized.ok());
  ASSERT_GT(static_cast<int>(tokenized.value().ids.size()),
            model.config().max_seq_len);
  tasks::PreqrEncoder single(&model);
  auto alone = single.TryEncodeVector(overlong, /*train=*/false);
  ASSERT_TRUE(alone.ok()) << alone.status().ToString();
  EXPECT_EQ(alone.value().size(), single.dim());
  tasks::PreqrEncoder batched(&model);
  auto results = batched.TryEncodeVectorBatch(
      {E().corpus[0], overlong, E().corpus[1]}, /*train=*/false);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[1].ok()) << results[1].status().ToString();
  ExpectBitwiseEqual(alone.value().vec(), results[1].value().vec(),
                     "overlong query alone vs mid-batch");
}

// Fine-tune mode (train=true, tape on through the padded last layer) must
// produce the same forward bits as the per-query path.
TEST(BatchInvarianceTest, TrainModeReadOutBitwiseMatchesSingle) {
  PreqrModel model = E().MakeModel();
  tasks::PreqrEncoder single(&model);
  tasks::PreqrEncoder batched(&model);
  std::vector<std::string> sqls(E().corpus.begin(), E().corpus.begin() + 4);
  auto results = batched.TryEncodeVectorBatch(sqls, /*train=*/true);
  for (size_t i = 0; i < sqls.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    auto one = single.TryEncodeVector(sqls[i], /*train=*/true);
    ASSERT_TRUE(one.ok());
    ExpectBitwiseEqual(one.value().vec(), results[i].value().vec(),
                       "train-mode batched readout");
  }
}

// The padded-batch shape metrics feed the serving dashboards; a batched
// encode must record its occupancy.
TEST(BatchInvarianceTest, PaddedBatchMetricsRecorded) {
  PreqrModel model = E().MakeModel();
  tasks::PreqrEncoder encoder(&model);
  const auto before = serving::GlobalEncodePathStats();
  std::vector<std::string> sqls(E().corpus.begin(), E().corpus.begin() + 8);
  encoder.EncodeVectorBatch(sqls, /*train=*/false);
  const auto after = serving::GlobalEncodePathStats();
  EXPECT_GT(after.padded_batches, before.padded_batches);
  EXPECT_GT(after.padded_slots, before.padded_slots);
  EXPECT_GT(after.valid_tokens, before.valid_tokens);
  EXPECT_GE(after.padded_slots, after.valid_tokens);
  EXPECT_GT(after.Occupancy(), 0.0);
  EXPECT_LE(after.Occupancy(), 1.0);
}

// Batched execution at several thread counts: composition AND scheduling
// both held invariant (complements parallel_determinism_test, which pins
// the per-thread-count story for the whole pipeline).
TEST(BatchInvarianceTest, BatchedBitsStableAcrossThreadCounts) {
  std::vector<std::string> sqls(E().corpus.begin(), E().corpus.begin() + 8);
  std::vector<std::vector<std::vector<float>>> per_threads;
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    PreqrModel model = E().MakeModel();
    tasks::PreqrEncoder encoder(&model);
    auto batch = encoder.EncodeVectorBatch(sqls, /*train=*/false);
    std::vector<std::vector<float>> outputs;
    for (auto& t : batch) outputs.push_back(t.vec());
    per_threads.push_back(std::move(outputs));
  }
  ThreadPool::SetGlobalThreads(0);
  for (size_t t = 1; t < per_threads.size(); ++t) {
    for (size_t q = 0; q < sqls.size(); ++q) {
      ExpectBitwiseEqual(per_threads[0][q], per_threads[t][q],
                         "batched encode across thread counts");
    }
  }
}

}  // namespace
}  // namespace preqr::core
