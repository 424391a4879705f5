// Regenerates Table 5: relative update cost of the four model-maintenance
// cases (Section 3.6). Wall-clock of one representative update round per
// case; the paper's ordering (Case 1 << Case 2 < Case 3 < Case 4) is the
// claim under test, not the absolute hours.
#include <stdlib.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/harness.h"

#include "core/pretrain.h"
#include "nn/optim.h"
#include "serving/encoder_service.h"
#include "tasks/preqr_encoder.h"

namespace preqr::bench {
namespace {

double Seconds(const std::chrono::steady_clock::time_point& a,
               const std::chrono::steady_clock::time_point& b) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count() /
         1000.0;
}

// Reconstruction loss of one query's own token ids from its B=1 final
// token states [1, T, d].
nn::Tensor TokenLoss(const core::PreqrModel& model, const nn::Tensor& tokens,
                     const std::vector<int>& ids) {
  const int t = tokens.dim(1);
  nn::Tensor logits =
      nn::Reshape(model.MlmLogits(tokens), {t, model.vocab_size()});
  std::vector<int> targets(ids.begin(), ids.begin() + t);
  return nn::CrossEntropy(logits, targets, -1);
}

text::SqlTokenizer::TokenizedBatch CollateOne(
    const core::PreqrModel& model,
    const text::SqlTokenizer::Tokenized& tokenized) {
  return text::SqlTokenizer::Collate({&tokenized}, model.config().max_seq_len);
}

// Returns the process exit code: non-zero when the checkpoint save or the
// hot reload fails.
int Run() {
  PrintHeader("Table 5", "update cost of the PreQR model");
  core::PreqrConfig config = BenchConfig();
  EstimationSetup s = BuildEstimationSetup(config, /*pretrain_epochs=*/0);
  auto corpus = Sqls(s.synthetic_train);
  if (corpus.size() > 200) corpus.resize(200);
  const int sample_rounds = Sized(1, 1);

  core::Pretrainer::Options opt;
  opt.epochs = sample_rounds;

  // A serving front-end caches one probe embedding before any update round;
  // every maintenance case below changes model parameters, so the cached
  // bits go stale. The refresh goes the way a production deployment would:
  // the updated weights are checkpointed to disk and hot-reloaded via
  // ReloadModel (which swaps under the encode mutex and drops the cache),
  // rather than mutated in place under the service's feet.
  tasks::PreqrEncoder serving_encoder(s.model.get());
  serving::EncoderService service(&serving_encoder);
  service.AttachModel(s.model.get());
  const std::string probe = corpus.front();
  auto probe_before = service.Encode(probe);

  std::printf("%-8s %-52s %9s\n", "case", "description", "seconds");

  // Case 4 first (from scratch): full pre-training pass over the corpus.
  double case4;
  {
    const auto t0 = std::chrono::steady_clock::now();
    core::Pretrainer trainer(*s.model, opt);
    trainer.Train(corpus);
    case4 = Seconds(t0, std::chrono::steady_clock::now());
  }

  // Case 1: data distribution changed -> incremental training of the last
  // SQLBERT layer only (a few samples).
  double case1;
  {
    std::vector<std::string> samples(corpus.begin(),
                                     corpus.begin() + corpus.size() / 8);
    const auto t0 = std::chrono::steady_clock::now();
    nn::Adam adam(s.model->LastLayerParameters(), 1e-3f);
    nn::Tensor schema = s.model->EncodeSchemaNodes(/*with_grad=*/false);
    for (const auto& sql : samples) {
      auto tokenized = s.model->tokenizer().Tokenize(sql);
      if (!tokenized.ok()) continue;
      adam.ZeroGrad();
      const auto batch = CollateOne(*s.model, tokenized.value());
      nn::Tensor prefix = s.model->EncodePrefixBatch(batch, schema);
      nn::Tensor tokens = s.model->LastLayerBatch(prefix, schema, batch.lengths);
      TokenLoss(*s.model, tokens, tokenized.value().ids).Backward();
      adam.Step();
    }
    case1 = Seconds(t0, std::chrono::steady_clock::now());
  }

  // Case 2: schema updated -> incremental training of the Schema2Graph
  // parameters (name encoder + R-GCN) against the MLM objective.
  double case2;
  {
    std::vector<std::string> samples(corpus.begin(),
                                     corpus.begin() + corpus.size() / 4);
    const auto t0 = std::chrono::steady_clock::now();
    nn::Adam adam(s.model->SchemaParameters(), 1e-3f);
    for (size_t i = 0; i < samples.size(); i += 8) {
      adam.ZeroGrad();
      nn::Tensor schema = s.model->EncodeSchemaNodes(/*with_grad=*/true);
      for (size_t j = i; j < std::min(samples.size(), i + 8); ++j) {
        auto tokenized = s.model->tokenizer().Tokenize(samples[j]);
        if (!tokenized.ok()) continue;
        nn::Tensor tokens = s.model->ForwardBatch(
            CollateOne(*s.model, tokenized.value()), schema);
        TokenLoss(*s.model, tokens, tokenized.value().ids).Backward();
      }
      adam.Step();
    }
    case2 = Seconds(t0, std::chrono::steady_clock::now());
  }

  // Case 3: query patterns changed -> rebuild the FA and retrain the Input
  // Embedding module (token/state/position embeddings + projection).
  double case3;
  {
    const auto t0 = std::chrono::steady_clock::now();
    automaton::TemplateExtractor extractor(0.2);
    automaton::Automaton fa = extractor.BuildAutomaton(corpus).value();
    (void)fa;
    nn::Adam adam(s.model->InputParameters(), 1e-3f);
    nn::Tensor schema = s.model->EncodeSchemaNodes(/*with_grad=*/false);
    for (size_t i = 0; i + 1 < corpus.size(); i += 1) {
      auto tokenized = s.model->tokenizer().Tokenize(corpus[i]);
      if (!tokenized.ok()) continue;
      adam.ZeroGrad();
      nn::Tensor tokens = s.model->ForwardBatch(
          CollateOne(*s.model, tokenized.value()), schema);
      TokenLoss(*s.model, tokens, tokenized.value().ids).Backward();
      adam.Step();
    }
    case3 = Seconds(t0, std::chrono::steady_clock::now());
  }

  std::printf("%-8s %-52s %9.2f\n", "Case 1",
              "incremental learning, last SQLBERT layer", case1);
  std::printf("%-8s %-52s %9.2f\n", "Case 2",
              "incremental learning, Schema2Graph part", case2);
  std::printf("%-8s %-52s %9.2f\n", "Case 3",
              "incremental learning, Input Embedding module", case3);
  std::printf("%-8s %-52s %9.2f\n", "Case 4", "train from scratch", case4);

  // After the update rounds the serving cache is stale. Run the Table-5
  // deployment loop end to end: checkpoint the updated model (atomic PRC1
  // write), hot-reload it into the serving stack, then re-serve the probe
  // and report how far the embedding moved (the drift the stale cache
  // would have kept serving).
  // The checkpoint goes to a directory of this process's own, so two runs
  // at once never overwrite or delete each other's file.
  std::error_code ec;
  const std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
  std::string dir = (tmp / "preqr_table5_XXXXXX").string();
  if (ec || mkdtemp(dir.data()) == nullptr) {
    std::fprintf(stderr, "cannot make a checkpoint directory under '%s'\n",
                 tmp.c_str());
    return 1;
  }
  const std::string ckpt = dir + "/update.ckpt";
  bool deployed = false;
  {
    core::Pretrainer checkpointer(*s.model, core::Pretrainer::Options{});
    const auto t0 = std::chrono::steady_clock::now();
    if (auto st = checkpointer.SaveCheckpoint(ckpt); !st.ok()) {
      std::printf("checkpoint save FAILED: %s\n", st.ToString().c_str());
    } else if (auto st = service.ReloadModel(ckpt); !st.ok()) {
      std::printf("hot reload FAILED: %s\n", st.ToString().c_str());
    } else {
      deployed = true;
      std::printf(
          "\nserving: checkpoint + hot reload took %.3f s (PRC1 -> %s)\n",
          Seconds(t0, std::chrono::steady_clock::now()), ckpt.c_str());
    }
  }
  std::filesystem::remove_all(dir, ec);
  if (!deployed) return 1;
  auto probe_after = service.Encode(probe);
  if (probe_before.ok() && probe_after.ok()) {
    const auto& a = probe_before.value().vec();
    const auto& b = probe_after.value().vec();
    double l2 = 0;
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
      l2 += d * d;
    }
    std::printf("\nserving: probe embedding L2 drift after updates %.4f "
                "(stale cache dropped by the checkpoint hot reload)\n",
                std::sqrt(l2));
  }
  std::printf("serving: hit-rate %.2f over %llu requests, %llu invalidation(s)\n",
              service.metrics().CacheHitRate(),
              static_cast<unsigned long long>(service.metrics().requests.value()),
              static_cast<unsigned long long>(
                  service.metrics().invalidations.value()));
  return 0;
}

}  // namespace
}  // namespace preqr::bench

int main() { return preqr::bench::Run(); }
