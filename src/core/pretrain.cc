#include "core/pretrain.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "common/thread_pool.h"
#include "nn/checkpoint.h"
#include "nn/ops.h"
#include "nn/serialize.h"

namespace preqr::core {

namespace {

template <typename T>
void AppendScalar(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
bool ReadScalar(const std::string& bytes, size_t* offset, T* v) {
  if (bytes.size() - *offset < sizeof(T)) return false;
  std::memcpy(v, bytes.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

// The loop cursor the "trainer" checkpoint section carries: everything
// Train needs (besides model/optimizer/RNG) to continue mid-epoch.
struct TrainerCursor {
  int64_t epoch = 0;
  uint64_t cursor = 0;
  std::vector<uint64_t> order;
  double loss_sum = 0, correct = 0, masked = 0;
  int64_t batches = 0;
  std::vector<Pretrainer::EpochStats> history;
};

std::string EncodeTrainerCursor(const TrainerCursor& c) {
  std::string out;
  AppendScalar<int64_t>(&out, c.epoch);
  AppendScalar<uint64_t>(&out, c.cursor);
  AppendScalar<uint64_t>(&out, c.order.size());
  for (uint64_t idx : c.order) AppendScalar<uint64_t>(&out, idx);
  AppendScalar<double>(&out, c.loss_sum);
  AppendScalar<double>(&out, c.correct);
  AppendScalar<double>(&out, c.masked);
  AppendScalar<int64_t>(&out, c.batches);
  AppendScalar<uint64_t>(&out, c.history.size());
  for (const auto& e : c.history) {
    AppendScalar<double>(&out, e.mlm_loss);
    AppendScalar<double>(&out, e.masked_accuracy);
  }
  return out;
}

Status DecodeTrainerCursor(const std::string& payload, TrainerCursor* out) {
  TrainerCursor c;
  size_t offset = 0;
  uint64_t order_len = 0;
  if (!ReadScalar(payload, &offset, &c.epoch) ||
      !ReadScalar(payload, &offset, &c.cursor) ||
      !ReadScalar(payload, &offset, &order_len) ||
      order_len > (payload.size() - offset) / sizeof(uint64_t)) {
    return Status::ParseError("truncated trainer section");
  }
  c.order.resize(order_len);
  for (auto& idx : c.order) {
    if (!ReadScalar(payload, &offset, &idx)) {
      return Status::ParseError("truncated trainer order");
    }
  }
  uint64_t history_len = 0;
  if (!ReadScalar(payload, &offset, &c.loss_sum) ||
      !ReadScalar(payload, &offset, &c.correct) ||
      !ReadScalar(payload, &offset, &c.masked) ||
      !ReadScalar(payload, &offset, &c.batches) ||
      !ReadScalar(payload, &offset, &history_len) ||
      history_len > (payload.size() - offset) / (2 * sizeof(double))) {
    return Status::ParseError("truncated trainer stats");
  }
  c.history.resize(history_len);
  for (auto& e : c.history) {
    if (!ReadScalar(payload, &offset, &e.mlm_loss) ||
        !ReadScalar(payload, &offset, &e.masked_accuracy)) {
      return Status::ParseError("truncated trainer history");
    }
  }
  if (offset != payload.size()) {
    return Status::ParseError("trailing garbage in trainer section");
  }
  if (c.epoch < 0 || c.batches < 0 || c.cursor > c.order.size()) {
    return Status::InvalidArgument("inconsistent trainer cursor");
  }
  *out = std::move(c);
  return Status::Ok();
}

}  // namespace

Pretrainer::Pretrainer(PreqrModel& model, Options options)
    : model_(model), options_(options), rng_(options.seed) {}

Pretrainer::MaskedExample Pretrainer::MaskTokens(const std::vector<int>& ids) {
  MaskedExample ex;
  ex.input_ids = ids;
  ex.targets.assign(ids.size(), -1);
  const int vocab = model_.vocab_size();
  for (size_t i = 0; i < ids.size(); ++i) {
    // Never mask the special [CLS]/[END] anchors.
    if (ids[i] == text::Vocab::kClsId || ids[i] == text::Vocab::kEndId) {
      continue;
    }
    if (rng_.NextFloat() >= model_.config().mask_prob) continue;
    ex.targets[i] = ids[i];
    const float dice = rng_.NextFloat();
    if (dice < 0.8f) {
      ex.input_ids[i] = text::Vocab::kMaskId;
    } else if (dice < 0.9f) {
      ex.input_ids[i] = static_cast<int>(rng_.NextUint64(
          static_cast<uint64_t>(vocab)));
    }  // else: keep the original token
  }
  return ex;
}

Status Pretrainer::SaveCheckpoint(const std::string& path) const {
  nn::CheckpointWriter writer;
  writer.AddSection(nn::kSectionModel, nn::EncodeModuleParams(model_));
  if (opt_) {
    writer.AddSection(nn::kSectionOptimizer,
                      nn::EncodeOptimizerState(opt_->StateDict()));
  }
  writer.AddSection(nn::kSectionRng, nn::EncodeRngState(rng_.state()));
  writer.AddSection(nn::kSectionStep,
                    nn::EncodeU64(static_cast<uint64_t>(step_)));
  TrainerCursor cursor;
  cursor.epoch = epoch_;
  cursor.cursor = cursor_;
  cursor.order = order_;
  cursor.loss_sum = loss_sum_;
  cursor.correct = correct_;
  cursor.masked = masked_;
  cursor.batches = batches_;
  cursor.history = history_;
  writer.AddSection(nn::kSectionTrainer, EncodeTrainerCursor(cursor));
  return writer.WriteAtomic(path);
}

Status Pretrainer::ResumeFrom(const std::string& path) {
  nn::CheckpointReader reader;
  Status s = reader.Open(path);
  if (!s.ok()) return s;

  const std::string* rng_sec = reader.Section(nn::kSectionRng);
  const std::string* step_sec = reader.Section(nn::kSectionStep);
  const std::string* trainer_sec = reader.Section(nn::kSectionTrainer);
  const std::string* optim_sec = reader.Section(nn::kSectionOptimizer);
  if (rng_sec == nullptr || step_sec == nullptr || trainer_sec == nullptr) {
    return Status::InvalidArgument("checkpoint missing training sections: " +
                                   path);
  }
  // Decode and validate everything before mutating anything, so a bad
  // checkpoint leaves the trainer (and the model) fully intact.
  Rng::State rng_state;
  s = nn::DecodeRngState(*rng_sec, &rng_state);
  if (!s.ok()) return s;
  uint64_t step = 0;
  s = nn::DecodeU64(*step_sec, &step);
  if (!s.ok()) return s;
  TrainerCursor cursor;
  s = DecodeTrainerCursor(*trainer_sec, &cursor);
  if (!s.ok()) return s;
  auto opt = std::make_unique<nn::Adam>(model_.Parameters(), options_.lr);
  if (optim_sec != nullptr) {
    nn::OptimizerState optim_state;
    s = nn::DecodeOptimizerState(*optim_sec, &optim_state);
    if (!s.ok()) return s;
    s = opt->LoadStateDict(optim_state);
    if (!s.ok()) return s;
  }
  const std::string* model_sec = reader.Section(nn::kSectionModel);
  if (model_sec == nullptr) {
    return Status::InvalidArgument("checkpoint has no model section: " + path);
  }
  // Last: the only mutation that can still fail is itself transactional.
  s = nn::DecodeModuleParams(model_, *model_sec, path);
  if (!s.ok()) return s;

  rng_.set_state(rng_state);
  opt_ = std::move(opt);
  step_ = static_cast<int64_t>(step);
  epoch_ = cursor.epoch;
  cursor_ = cursor.cursor;
  order_ = std::move(cursor.order);
  loss_sum_ = cursor.loss_sum;
  correct_ = cursor.correct;
  masked_ = cursor.masked;
  batches_ = cursor.batches;
  history_ = std::move(cursor.history);
  mid_epoch_resume_ = true;
  return Status::Ok();
}

std::vector<Pretrainer::EpochStats> Pretrainer::Train(
    const std::vector<std::string>& queries) {
  // Tokenize once.
  std::vector<text::SqlTokenizer::Tokenized> tokenized;
  tokenized.reserve(queries.size());
  for (const auto& q : queries) {
    auto t = model_.tokenizer().Tokenize(q);
    if (t.ok()) tokenized.push_back(std::move(t.value()));
  }
  PREQR_CHECK(!tokenized.empty());

  const bool resuming = mid_epoch_resume_;
  if (resuming) {
    // ResumeFrom restored optimizer, RNG, step, and the epoch cursor; the
    // corpus must match the checkpointed run for the order to make sense.
    PREQR_CHECK_MSG(order_.size() == tokenized.size(),
                    "resume corpus differs from checkpointed run");
  } else {
    // Legacy semantics: every un-resumed Train starts from scratch.
    opt_ = std::make_unique<nn::Adam>(model_.Parameters(), options_.lr);
    step_ = 0;
    epoch_ = 0;
    cursor_ = 0;
    loss_sum_ = correct_ = masked_ = 0;
    batches_ = 0;
    history_.clear();
    order_.resize(tokenized.size());
    std::iota(order_.begin(), order_.end(), uint64_t{0});
  }

  model_.set_train(true);
  for (; epoch_ < options_.epochs; ++epoch_) {
    if (!mid_epoch_resume_) {
      // Deterministic in-place shuffle (consumes the trainer RNG).
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.NextUint64(i)]);
      }
      cursor_ = 0;
      loss_sum_ = correct_ = masked_ = 0;
      batches_ = 0;
    }
    mid_epoch_resume_ = false;
    for (size_t start = cursor_; start < order_.size();
         start += static_cast<size_t>(options_.batch_size)) {
      const size_t end = std::min(
          order_.size(), start + static_cast<size_t>(options_.batch_size));
      opt_->ZeroGrad();
      // One schema encoding per step, shared across the batch (gradients
      // flow into the Schema2Graph parameters through every query).
      nn::Tensor schema = model_.config().use_schema
                              ? model_.EncodeSchemaNodes(/*with_grad=*/true)
                              : nn::Tensor();
      // Serial pre-pass: masking and dropout seeds consume the trainer RNG
      // in example order, so the draw sequence — and therefore every
      // result — is independent of how the forwards are scheduled. The
      // same property makes checkpointed resume exact: the RNG state plus
      // this epoch's order fully determine all remaining draws.
      const size_t bsz = end - start;
      std::vector<MaskedExample> examples(bsz);
      std::vector<uint64_t> dropout_seeds(bsz);
      for (size_t bi = 0; bi < bsz; ++bi) {
        examples[bi] = MaskTokens(tokenized[order_[start + bi]].ids);
        dropout_seeds[bi] = rng_.NextUint64();
      }
      // One padded [B, T, d] forward for the whole batch. Inside the model
      // the kernels are partitioned per example, so every valid row — and
      // therefore the loss and its gradients — is bitwise the value the
      // retired per-example loop produced (and stays independent of thread
      // count and batch composition; see batch_invariance_test).
      std::vector<const text::SqlTokenizer::Tokenized*> items(bsz);
      std::vector<std::vector<int>> inputs(bsz);
      for (size_t bi = 0; bi < bsz; ++bi) {
        items[bi] = &tokenized[order_[start + bi]];
        inputs[bi] = examples[bi].input_ids;
      }
      const auto batch =
          text::SqlTokenizer::Collate(items, model_.config().max_seq_len);
      nn::Tensor tokens =
          model_.ForwardBatch(batch, schema, inputs, dropout_seeds);
      nn::Tensor logits = model_.MlmLogits(tokens);  // [B, T, vocab]
      const int t_max = batch.t_max;
      // Padded targets: -1 everywhere a row must not contribute (pads and
      // unmasked positions alike).
      std::vector<int> targets(bsz * static_cast<size_t>(t_max), -1);
      for (size_t bi = 0; bi < bsz; ++bi) {
        const int len = batch.lengths[bi];
        std::copy(examples[bi].targets.begin(),
                  examples[bi].targets.begin() + len,
                  targets.begin() + static_cast<long>(bi) * t_max);
      }
      nn::Tensor batch_loss =
          nn::MaskedCrossEntropy(logits, targets, batch.lengths, -1);
      // Accuracy bookkeeping over valid masked rows.
      const int vocab = model_.vocab_size();
      std::vector<int> ex_correct(bsz, 0), ex_masked(bsz, 0);
      ParallelFor(0, static_cast<int64_t>(bsz), 1, [&](int64_t b0,
                                                       int64_t b1) {
        for (int64_t bi = b0; bi < b1; ++bi) {
          const size_t off = static_cast<size_t>(bi) * t_max;
          for (int i = 0; i < batch.lengths[static_cast<size_t>(bi)]; ++i) {
            if (targets[off + static_cast<size_t>(i)] < 0) continue;
            ex_masked[static_cast<size_t>(bi)] += 1;
            const float* row =
                logits.data() + (off + static_cast<size_t>(i)) * vocab;
            int best = 0;
            for (int v = 1; v < vocab; ++v) {
              if (row[v] > row[best]) best = v;
            }
            if (best == targets[off + static_cast<size_t>(i)]) {
              ex_correct[static_cast<size_t>(bi)] += 1;
            }
          }
        }
      });
      for (size_t bi = 0; bi < bsz; ++bi) {
        correct_ += ex_correct[bi];
        masked_ += ex_masked[bi];
      }
      batch_loss.Backward();
      opt_->Step();
      loss_sum_ += batch_loss.item();
      ++batches_;
      ++step_;
      cursor_ = end;
      if (options_.checkpoint_every > 0 &&
          !options_.checkpoint_path.empty() &&
          step_ % options_.checkpoint_every == 0) {
        last_checkpoint_status_ = SaveCheckpoint(options_.checkpoint_path);
        if (!last_checkpoint_status_.ok()) {
          std::fprintf(stderr, "[pretrain] checkpoint failed at step %lld: %s\n",
                       static_cast<long long>(step_),
                       last_checkpoint_status_.ToString().c_str());
        }
      }
      if (options_.max_steps > 0 && step_ >= options_.max_steps) {
        // Stop mid-run; ResumeFrom on a checkpoint written here continues
        // exactly where this left off.
        model_.set_train(false);
        return history_;
      }
    }
    EpochStats stats;
    stats.mlm_loss = loss_sum_ / std::max<int64_t>(1, batches_);
    stats.masked_accuracy = masked_ > 0 ? correct_ / masked_ : 0;
    history_.push_back(stats);
    if (options_.verbose) {
      std::fprintf(stderr, "[pretrain] epoch %lld loss=%.4f acc=%.3f\n",
                   static_cast<long long>(epoch_), stats.mlm_loss,
                   stats.masked_accuracy);
    }
  }
  model_.set_train(false);
  return history_;
}

Pretrainer::EpochStats Pretrainer::Evaluate(
    const std::vector<std::string>& queries) {
  model_.set_train(false);
  nn::Tensor schema = model_.config().use_schema
                          ? model_.EncodeSchemaNodes(/*with_grad=*/false)
                          : nn::Tensor();
  // Tokenization + masking consume the RNG serially in query order; the
  // (pure) forward passes then run in parallel with per-slot outputs.
  std::vector<text::SqlTokenizer::Tokenized> toks;
  std::vector<MaskedExample> examples;
  for (const auto& q : queries) {
    auto t = model_.tokenizer().Tokenize(q);
    if (!t.ok()) continue;
    examples.push_back(MaskTokens(t.value().ids));
    toks.push_back(std::move(t.value()));
  }
  const size_t n_ex = toks.size();
  const int vocab = model_.vocab_size();
  double loss_sum = 0, correct = 0, masked = 0;
  int n = 0;
  // Chunked padded forwards: each chunk is one tape-free [B, T, d] pass.
  const size_t chunk = std::max(1, options_.batch_size);
  for (size_t start = 0; start < n_ex; start += chunk) {
    const size_t end = std::min(n_ex, start + chunk);
    const size_t bsz = end - start;
    std::vector<const text::SqlTokenizer::Tokenized*> items(bsz);
    std::vector<std::vector<int>> inputs(bsz);
    for (size_t bi = 0; bi < bsz; ++bi) {
      items[bi] = &toks[start + bi];
      inputs[bi] = examples[start + bi].input_ids;
    }
    const auto batch =
        text::SqlTokenizer::Collate(items, model_.config().max_seq_len);
    nn::NoGradGuard no_grad;
    nn::Tensor logits =
        model_.MlmLogits(model_.ForwardBatch(batch, schema, inputs));
    const int t_max = batch.t_max;
    std::vector<int> targets(bsz * static_cast<size_t>(t_max), -1);
    for (size_t bi = 0; bi < bsz; ++bi) {
      std::copy(examples[start + bi].targets.begin(),
                examples[start + bi].targets.begin() + batch.lengths[bi],
                targets.begin() + static_cast<long>(bi) * t_max);
    }
    std::vector<float> example_loss;
    nn::MaskedCrossEntropy(logits, targets, batch.lengths, -1, &example_loss);
    for (size_t bi = 0; bi < bsz; ++bi) {
      loss_sum += example_loss[bi];
      ++n;
      const size_t off = bi * static_cast<size_t>(t_max);
      for (int i = 0; i < batch.lengths[bi]; ++i) {
        if (targets[off + static_cast<size_t>(i)] < 0) continue;
        masked += 1;
        const float* row =
            logits.data() + (off + static_cast<size_t>(i)) * vocab;
        int best = 0;
        for (int v = 1; v < vocab; ++v) {
          if (row[v] > row[best]) best = v;
        }
        if (best == targets[off + static_cast<size_t>(i)]) correct += 1;
      }
    }
  }
  EpochStats stats;
  stats.mlm_loss = n > 0 ? loss_sum / n : 0;
  stats.masked_accuracy = masked > 0 ? correct / masked : 0;
  return stats;
}

}  // namespace preqr::core
