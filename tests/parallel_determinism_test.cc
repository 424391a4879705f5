// Bitwise determinism of the parallel compute path: the full PreQR encoder,
// the batched encoder entry point, and one pre-training step must produce
// identical bits at 1, 2, and 8 threads. All kernel reductions are ordered
// (see src/common/thread_pool.h), so this holds exactly, not approximately.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "automaton/template_extractor.h"
#include "common/thread_pool.h"
#include "core/pretrain.h"
#include "db/stats.h"
#include "nn/buffer_pool.h"
#include "schema/schema_graph.h"
#include "serving/encoder_service.h"
#include "tasks/preqr_encoder.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

namespace preqr::core {
namespace {

const int kThreadCounts[] = {1, 2, 8};

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
    workload::ImdbQueryGenerator gen(imdb, 2);
    for (const auto& q : gen.Synthetic(24, 2)) corpus.push_back(q.sql);
    automaton::TemplateExtractor extractor(0.2);
    fa = extractor.BuildAutomaton(corpus).value();
    graph = schema::SchemaGraph::Build(imdb.catalog());
  }
  PreqrModel MakeModel() {
    PreqrConfig config;
    config.d_model = 32;
    config.ffn_hidden = 64;
    return PreqrModel(config, tokenizer.get(), &fa, &graph, 11);
  }
};

Env& E() {
  static Env* env = new Env();
  return *env;
}

// Bitwise tensor comparison (EXPECT_EQ on floats would accept -0.0 == 0.0
// and reject NaN == NaN; memcmp is the actual claim).
void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (a.empty()) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": bitwise mismatch";
}

TEST(ParallelDeterminismTest, EncoderForwardBitwiseIdenticalAcrossThreads) {
  std::vector<std::vector<std::vector<float>>> per_threads;
  for (int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    PreqrModel model = E().MakeModel();
    model.set_train(false);
    nn::NoGradGuard no_grad;
    const nn::Tensor schema = model.EncodeSchemaNodes(/*with_grad=*/false);
    std::vector<std::vector<float>> outputs;
    for (const auto& sql : E().corpus) {
      auto tokenized = model.tokenizer().Tokenize(sql);
      ASSERT_TRUE(tokenized.ok());
      const auto batch = text::SqlTokenizer::Collate(
          {&tokenized.value()}, model.config().max_seq_len);
      outputs.push_back(model.ForwardBatch(batch, schema).vec());
    }
    per_threads.push_back(std::move(outputs));
  }
  for (size_t t = 1; t < per_threads.size(); ++t) {
    for (size_t q = 0; q < per_threads[0].size(); ++q) {
      ExpectBitwiseEqual(per_threads[0][q], per_threads[t][q],
                         "encoder tokens");
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

TEST(ParallelDeterminismTest, BatchedEncoderMatchesPerQueryEncode) {
  ThreadPool::SetGlobalThreads(8);
  PreqrModel model = E().MakeModel();
  tasks::PreqrEncoder single(&model);
  tasks::PreqrEncoder batched(&model);
  std::vector<std::string> sqls(E().corpus.begin(), E().corpus.begin() + 8);
  sqls.push_back("not a query !!");  // malformed entry exercises the fallback
  auto batch = batched.EncodeVectorBatch(sqls, /*train=*/false);
  ASSERT_EQ(batch.size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    nn::Tensor one = single.EncodeVector(sqls[i], /*train=*/false);
    ExpectBitwiseEqual(one.vec(), batch[i].vec(), "batched readout");
  }
  ThreadPool::SetGlobalThreads(0);
}

TEST(ParallelDeterminismTest, BatchedEncoderBitwiseIdenticalAcrossThreads) {
  std::vector<std::vector<std::vector<float>>> per_threads;
  std::vector<std::string> sqls(E().corpus.begin(), E().corpus.begin() + 8);
  for (int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    PreqrModel model = E().MakeModel();
    tasks::PreqrEncoder encoder(&model);
    auto batch = encoder.EncodeVectorBatch(sqls, /*train=*/false);
    std::vector<std::vector<float>> outputs;
    for (auto& t : batch) outputs.push_back(t.vec());
    per_threads.push_back(std::move(outputs));
  }
  for (size_t t = 1; t < per_threads.size(); ++t) {
    for (size_t q = 0; q < sqls.size(); ++q) {
      ExpectBitwiseEqual(per_threads[0][q], per_threads[t][q],
                         "batched encoder output");
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

// The serving layer's contract: whether a result comes from a cold encode,
// a coalesced micro-batch, or the embedding cache, it is bitwise-identical
// to EncodeVector(sql, false) on the wrapped encoder — at every thread
// count.
TEST(ParallelDeterminismTest, ServedEmbeddingsBitwiseIdenticalAcrossThreads) {
  std::vector<std::string> sqls(E().corpus.begin(), E().corpus.begin() + 8);
  std::vector<std::vector<std::vector<float>>> per_threads;
  for (int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    PreqrModel model = E().MakeModel();
    tasks::PreqrEncoder reference(&model);
    tasks::PreqrEncoder wrapped(&model);
    serving::EncoderService service(&wrapped);
    std::vector<std::vector<float>> outputs;
    // Cold pass (misses, dispatched as micro-batches), then warm pass
    // (cache hits): both must reproduce the direct encode bit-for-bit.
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& sql : sqls) {
        auto served = service.Encode(sql);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        nn::Tensor direct = reference.EncodeVector(sql, /*train=*/false);
        ExpectBitwiseEqual(direct.vec(), served.value().vec(),
                           pass == 0 ? "cold serve" : "cache hit");
        if (pass == 0) outputs.push_back(served.value().vec());
      }
    }
    // EncodeBatch takes the deduped-batch path; same bits required.
    auto batch = service.EncodeBatch(sqls);
    for (size_t q = 0; q < sqls.size(); ++q) {
      ASSERT_TRUE(batch[q].ok());
      ExpectBitwiseEqual(outputs[q], batch[q].value().vec(), "served batch");
    }
    per_threads.push_back(std::move(outputs));
  }
  for (size_t t = 1; t < per_threads.size(); ++t) {
    for (size_t q = 0; q < sqls.size(); ++q) {
      ExpectBitwiseEqual(per_threads[0][q], per_threads[t][q],
                         "served embedding across thread counts");
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

// Grad mode and pooled storage are pure bookkeeping: the inference
// embeddings must be bit-for-bit identical whether the tape is on or off,
// and whether tensor storage is recycled through the BufferPool or
// heap-allocated fresh every time.
TEST(ParallelDeterminismTest, GradModeAndPoolDoNotChangeBits) {
  ThreadPool::SetGlobalThreads(8);
  std::vector<std::string> sqls(E().corpus.begin(), E().corpus.begin() + 8);

  auto encode_all = [&] {
    PreqrModel model = E().MakeModel();
    tasks::PreqrEncoder encoder(&model);
    std::vector<std::vector<float>> outputs;
    for (auto& t : encoder.EncodeVectorBatch(sqls, /*train=*/false)) {
      outputs.push_back(t.vec());
    }
    return outputs;
  };

  // Baseline: tape off inside the encoder (the production inference path),
  // pool recycling on.
  const auto baseline = encode_all();

  // Tape forced ON around the whole encode. The encoder installs per-chunk
  // NoGradGuards internally, so this exercises the nesting/restore path on
  // the caller thread while the math stays identical.
  {
    nn::GradMode::set_enabled(true);
    const auto taped = encode_all();
    for (size_t q = 0; q < sqls.size(); ++q) {
      ExpectBitwiseEqual(baseline[q], taped[q], "grad-on vs grad-off");
    }
  }

  // Pool bypassed: every no-grad tensor heap-allocates instead of reusing
  // recycled (zeroed) buffers. Same bits required.
  {
    nn::BufferPool::set_enabled(false);
    const auto unpooled = encode_all();
    nn::BufferPool::set_enabled(true);
    for (size_t q = 0; q < sqls.size(); ++q) {
      ExpectBitwiseEqual(baseline[q], unpooled[q], "pool on vs bypassed");
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

// One full pre-training step (masking, parallel per-example forwards,
// ordered gradient reduction, Adam update): losses, gradients, and the
// updated parameters must be bitwise-identical across thread counts.
TEST(ParallelDeterminismTest, PretrainStepBitwiseIdenticalAcrossThreads) {
  struct Run {
    std::vector<double> losses;
    std::vector<std::vector<float>> params;
    std::vector<std::vector<float>> grads;
  };
  std::vector<Run> runs;
  for (int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    PreqrModel model = E().MakeModel();
    Pretrainer::Options opt;
    opt.epochs = 1;
    opt.batch_size = 8;
    Pretrainer trainer(model, opt);
    auto history = trainer.Train(E().corpus);
    Run run;
    for (const auto& h : history) run.losses.push_back(h.mlm_loss);
    for (const auto& p : model.Parameters()) {
      run.params.push_back(p.vec());
      run.grads.push_back(p.grad_vec());
    }
    runs.push_back(std::move(run));
  }
  for (size_t t = 1; t < runs.size(); ++t) {
    ASSERT_EQ(runs[0].losses.size(), runs[t].losses.size());
    for (size_t e = 0; e < runs[0].losses.size(); ++e) {
      EXPECT_EQ(runs[0].losses[e], runs[t].losses[e])
          << "epoch loss diverged at threads=" << kThreadCounts[t];
    }
    ASSERT_EQ(runs[0].params.size(), runs[t].params.size());
    for (size_t p = 0; p < runs[0].params.size(); ++p) {
      ExpectBitwiseEqual(runs[0].params[p], runs[t].params[p], "parameter");
      ExpectBitwiseEqual(runs[0].grads[p], runs[t].grads[p], "gradient");
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

// Evaluate() runs forwards in parallel; its aggregate statistics must also
// be scheduling-independent.
TEST(ParallelDeterminismTest, EvaluateBitwiseIdenticalAcrossThreads) {
  std::vector<Pretrainer::EpochStats> stats;
  for (int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    PreqrModel model = E().MakeModel();
    Pretrainer::Options opt;
    Pretrainer trainer(model, opt);
    stats.push_back(trainer.Evaluate(E().corpus));
  }
  for (size_t t = 1; t < stats.size(); ++t) {
    EXPECT_EQ(stats[0].mlm_loss, stats[t].mlm_loss);
    EXPECT_EQ(stats[0].masked_accuracy, stats[t].masked_accuracy);
  }
  ThreadPool::SetGlobalThreads(0);
}

}  // namespace
}  // namespace preqr::core
