// Transactional checkpointing end to end: the interrupted-training drill
// (checkpoint at step N in one trainer, resume in a fresh trainer over a
// fresh model, final weights + Adam moments bitwise-identical to a run
// that never stopped) and hot model reload through EncoderService.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "automaton/template_extractor.h"
#include "core/pretrain.h"
#include "db/stats.h"
#include "nn/checkpoint.h"
#include "nn/serialize.h"
#include "schema/schema_graph.h"
#include "serving/encoder_service.h"
#include "tasks/preqr_encoder.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"
#include "test_temp_dir.h"

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
    return PreqrModel(config, tokenizer.get(), &fa, &graph, 7);
  }
};

Env& E() {
  static Env* env = new Env();
  return *env;
}

std::vector<std::vector<float>> Snapshot(const nn::Module& m) {
  std::vector<std::vector<float>> out;
  for (const auto& [name, t] : m.NamedParameters()) out.push_back(t.vec());
  return out;
}

bool SameBits(const std::vector<std::vector<float>>& a,
              const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (std::memcmp(a[i].data(), b[i].data(),
                    a[i].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameOptimizerBits(const nn::OptimizerState& a,
                       const nn::OptimizerState& b) {
  if (a.type != b.type || a.step != b.step ||
      a.slots.size() != b.slots.size()) {
    return false;
  }
  for (size_t i = 0; i < a.slots.size(); ++i) {
    if (a.slots[i].size() != b.slots[i].size()) return false;
    if (std::memcmp(a.slots[i].data(), b.slots[i].data(),
                    a.slots[i].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

Pretrainer::Options BaseOptions() {
  Pretrainer::Options opt;
  opt.epochs = 2;
  opt.batch_size = 8;
  opt.seed = 99;
  return opt;
}

TEST(CheckpointResumeTest, BitwiseResumeMatchesUninterruptedRun) {
  const std::string path = test::TempPath("resume_drill.ckpt");

  // Run A: the reference — 2 epochs, never interrupted.
  PreqrModel model_a = E().MakeModel();
  Pretrainer trainer_a(model_a, BaseOptions());
  auto history_a = trainer_a.Train(E().corpus);
  const int64_t total_steps = trainer_a.step();
  ASSERT_GE(total_steps, 4) << "corpus too small for a mid-epoch drill";
  const auto weights_a = Snapshot(model_a);
  const auto optim_a = trainer_a.optimizer()->StateDict();

  // N lands mid-epoch so the drill also covers the shuffled-order cursor.
  const int64_t n = total_steps / 2 - 1 > 0 ? total_steps / 2 - 1
                                            : total_steps / 2;

  // Run B: same options, but killed at step N with a checkpoint on disk.
  PreqrModel model_b = E().MakeModel();
  Pretrainer::Options interrupted = BaseOptions();
  interrupted.checkpoint_every = n;
  interrupted.checkpoint_path = path;
  interrupted.max_steps = n;
  Pretrainer trainer_b(model_b, interrupted);
  trainer_b.Train(E().corpus);
  ASSERT_EQ(trainer_b.step(), n);
  ASSERT_TRUE(trainer_b.last_checkpoint_status().ok());

  // Mid-run weights must differ from the finished run (the drill is
  // vacuous otherwise).
  ASSERT_FALSE(SameBits(weights_a, Snapshot(model_b)));

  // Run C: a fresh process in miniature — new model object, new trainer,
  // nothing shared with run B except the checkpoint file.
  PreqrModel model_c = E().MakeModel();
  Pretrainer trainer_c(model_c, BaseOptions());
  ASSERT_TRUE(trainer_c.ResumeFrom(path).ok());
  EXPECT_EQ(trainer_c.step(), n);
  auto history_c = trainer_c.Train(E().corpus);

  EXPECT_EQ(trainer_c.step(), total_steps);
  EXPECT_TRUE(SameBits(weights_a, Snapshot(model_c)))
      << "resumed weights diverged from the uninterrupted run";
  EXPECT_TRUE(
      SameOptimizerBits(optim_a, trainer_c.optimizer()->StateDict()))
      << "resumed Adam moments diverged from the uninterrupted run";

  // The per-epoch history is reconstructed exactly as well, including the
  // epoch that was in flight when the checkpoint was cut.
  ASSERT_EQ(history_a.size(), history_c.size());
  for (size_t e = 0; e < history_a.size(); ++e) {
    EXPECT_EQ(history_a[e].mlm_loss, history_c[e].mlm_loss);
    EXPECT_EQ(history_a[e].masked_accuracy, history_c[e].masked_accuracy);
  }
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, ResumeRejectsCorruptFileWithoutTouchingState) {
  const std::string path = test::TempPath("resume_corrupt.ckpt");
  PreqrModel model = E().MakeModel();
  Pretrainer::Options opt = BaseOptions();
  opt.epochs = 1;
  opt.max_steps = 1;
  Pretrainer trainer(model, opt);
  trainer.Train(E().corpus);
  ASSERT_TRUE(trainer.SaveCheckpoint(path).ok());

  // Corrupt one payload byte: the CRC must reject it and the model must
  // stay bitwise as-is.
  std::string bytes;
  ASSERT_TRUE(nn::ReadFileToString(path, &bytes).ok());
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
  ASSERT_TRUE(nn::AtomicWriteFile(path, bytes).ok());

  const auto before = Snapshot(model);
  const int64_t step_before = trainer.step();
  EXPECT_FALSE(trainer.ResumeFrom(path).ok());
  EXPECT_TRUE(SameBits(before, Snapshot(model)));
  EXPECT_EQ(trainer.step(), step_before);

  EXPECT_FALSE(trainer.ResumeFrom("/nonexistent/ckpt.prc1").ok());
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, PeriodicCheckpointsAreCompleteFiles) {
  const std::string path = test::TempPath("resume_periodic.ckpt");
  PreqrModel model = E().MakeModel();
  Pretrainer::Options opt = BaseOptions();
  opt.epochs = 1;
  opt.checkpoint_every = 2;
  opt.checkpoint_path = path;
  Pretrainer trainer(model, opt);
  trainer.Train(E().corpus);
  ASSERT_TRUE(trainer.last_checkpoint_status().ok());

  nn::CheckpointReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_TRUE(reader.Has(nn::kSectionModel));
  EXPECT_TRUE(reader.Has(nn::kSectionOptimizer));
  EXPECT_TRUE(reader.Has(nn::kSectionRng));
  EXPECT_TRUE(reader.Has(nn::kSectionStep));
  EXPECT_TRUE(reader.Has(nn::kSectionTrainer));

  // The periodic file reflects the step it was cut at (not the final
  // weights); re-saving at the end and loading it back as a weights-only
  // consumer must reproduce the final model bitwise.
  PreqrModel other = E().MakeModel();
  EXPECT_TRUE(nn::LoadModule(other, path).ok());
  ASSERT_TRUE(trainer.SaveCheckpoint(path).ok());
  EXPECT_TRUE(nn::LoadModule(other, path).ok());
  EXPECT_TRUE(SameBits(Snapshot(model), Snapshot(other)));
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, ServingHotReloadSwapsWeightsAndDropsCache) {
  const std::string path = test::TempPath("serving_reload.ckpt");

  // The updated model: a short pre-training pass, checkpointed to disk.
  PreqrModel updated = E().MakeModel();
  Pretrainer::Options opt = BaseOptions();
  opt.epochs = 1;
  Pretrainer trainer(updated, opt);
  trainer.Train(E().corpus);
  ASSERT_TRUE(trainer.SaveCheckpoint(path).ok());

  // The serving stack still runs the stale (un-trained) weights.
  PreqrModel served = E().MakeModel();
  tasks::PreqrEncoder encoder(&served);
  serving::EncoderService service(&encoder);
  service.AttachModel(&served);

  const std::string& probe = E().corpus.front();
  auto before = service.Encode(probe);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(service.cached_embeddings(), 0u);

  // Hot reload from the checkpoint: the old embedding must be evicted and
  // every new encode must match a fresh encoder over the updated model.
  ASSERT_TRUE(service.ReloadModel(path).ok());
  EXPECT_EQ(service.cached_embeddings(), 0u);
  EXPECT_EQ(service.metrics().reloads.value(), 1u);

  auto after = service.Encode(probe);
  ASSERT_TRUE(after.ok());
  tasks::PreqrEncoder fresh(&updated);
  nn::Tensor expect = fresh.EncodeVector(probe, /*train=*/false);
  ASSERT_EQ(after.value().size(), expect.size());
  EXPECT_EQ(std::memcmp(after.value().data(), expect.data(),
                        static_cast<size_t>(expect.size()) * sizeof(float)),
            0)
      << "served embedding after reload differs from the updated model";
  EXPECT_NE(std::memcmp(after.value().data(), before.value().data(),
                        static_cast<size_t>(expect.size()) * sizeof(float)),
            0)
      << "reload served the stale embedding";

  // A failed reload keeps both the weights and the cache: the same bits
  // keep being served and the failure is visible in the metrics.
  const auto weights = Snapshot(served);
  EXPECT_FALSE(service.ReloadModel("/nonexistent/ckpt.prc1").ok());
  EXPECT_TRUE(SameBits(weights, Snapshot(served)));
  EXPECT_EQ(service.metrics().reload_failures.value(), 1u);
  auto again = service.Encode(probe);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(std::memcmp(again.value().data(), after.value().data(),
                        static_cast<size_t>(expect.size()) * sizeof(float)),
            0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace preqr::core
