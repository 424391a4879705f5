#include "tasks/preqr_encoder.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>

#include "automaton/symbol.h"
#include "nn/ops.h"
#include "serving/metrics.h"

namespace preqr::tasks {

PreqrEncoder::PreqrEncoder(core::PreqrModel* model)
    : PreqrEncoder(model, Options()) {}

PreqrEncoder::PreqrEncoder(core::PreqrModel* model, Options options)
    : model_(model),
      recent_misses_(options.cache_capacity),
      prefix_cache_(options.cache_capacity, options.cache_shards) {
  EncodeSchema();
}

void PreqrEncoder::BeginStep(bool train) {
  // The schema branch is below the fine-tuned layer boundary, so it stays
  // frozen; only the last layer's memo can go stale.
  if (train) last_layer_stale_ = fine_tuned_ = true;
}

void PreqrEncoder::InvalidateCache() {
  prefix_cache_.Clear();
  EncodeSchema();
}

void PreqrEncoder::EncodeSchema() {
  schema_ = model_->config().use_schema
                ? model_->EncodeSchemaNodes(/*with_grad=*/false)
                : nn::Tensor();
  ProjectSchemaKv();
}

void PreqrEncoder::ProjectSchemaKv() {
  last_layer_stale_ = false;
  schema_kv_ = model_->ProjectSchemaKv(schema_);
}

void PreqrEncoder::PrepareLastLayer(bool train) {
  if (train) {
    last_layer_stale_ = fine_tuned_ = true;
  } else if (last_layer_stale_) {
    // The frozen layers re-project to the same bits; only the last moved.
    ProjectSchemaKv();
  }
}

const std::vector<nn::AttentionKv>* PreqrEncoder::SchemaKv() const {
  return schema_kv_.empty() ? nullptr : &schema_kv_;
}

PreqrEncoder::CachedQuery PreqrEncoder::ZeroEntry() const {
  // A single zero row keeps downstream shapes valid.
  CachedQuery zero;
  zero.prefix = nn::Tensor::Zeros({1, model_->config().d_model});
  return zero;
}

void PreqrEncoder::ExtractStructure(
    const text::SqlTokenizer::Tokenized& tokenized, int s, CachedQuery* out) {
  CachedQuery& entry = *out;
  entry.predicate_spans.clear();
  entry.table_rows.clear();
  using automaton::Symbol;
  // Predicate spans: maximal runs of predicate-body symbols (a column, its
  // operator, and its literals / rhs column) inside the WHERE region.
  auto is_pred_symbol = [](Symbol sym) {
    switch (sym) {
      case Symbol::kColumn:
      case Symbol::kOpEq:
      case Symbol::kOpNe:
      case Symbol::kOpLt:
      case Symbol::kOpLe:
      case Symbol::kOpGt:
      case Symbol::kOpGe:
      case Symbol::kLike:
      case Symbol::kIn:
      case Symbol::kBetween:
      case Symbol::kNot:
      case Symbol::kValueNum:
      case Symbol::kValueStr:
      case Symbol::kLParen:
      case Symbol::kRParen:
        return true;
      default:
        return false;
    }
  };
  std::vector<int> current;
  const auto& symbols = tokenized.symbols;
  for (int i = 0; i < s && i < static_cast<int>(symbols.size()); ++i) {
    const Symbol sym = symbols[static_cast<size_t>(i)];
    if (is_pred_symbol(sym)) {
      current.push_back(i);
    } else {
      if (!current.empty()) entry.predicate_spans.push_back(current);
      current.clear();
      if (sym == Symbol::kTable) entry.table_rows.push_back(i);
    }
  }
  if (!current.empty()) entry.predicate_spans.push_back(current);
}

void PreqrEncoder::ComputeQueriesBatched(const std::vector<std::string>& sqls,
                                         std::vector<CachedQuery>* computed,
                                         std::vector<Status>* status) {
  const size_t m = sqls.size();
  computed->assign(m, CachedQuery());
  status->assign(m, Status::Ok());
  // Tokenize serially; a parse error stays in its own slot so a malformed
  // query never joins (or poisons) a padded chunk.
  std::vector<std::optional<text::SqlTokenizer::Tokenized>> toks(m);
  std::vector<size_t> valid;
  valid.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    auto t = model_->tokenizer().Tokenize(sqls[i]);
    if (!t.ok()) {
      (*status)[i] = t.status();
      continue;
    }
    toks[i] = std::move(t.value());
    valid.push_back(i);
  }
  // Chunked padded prefix forwards: each chunk is ONE [B, T, d] pass over
  // the frozen layers instead of B separate per-query forwards.
  for (size_t c0 = 0; c0 < valid.size(); c0 += kMaxEncodeBatch) {
    const size_t c1 =
        std::min(valid.size(), c0 + static_cast<size_t>(kMaxEncodeBatch));
    std::vector<const text::SqlTokenizer::Tokenized*> items;
    items.reserve(c1 - c0);
    for (size_t j = c0; j < c1; ++j) items.push_back(&*toks[valid[j]]);
    const auto batch =
        text::SqlTokenizer::Collate(items, model_->config().max_seq_len);
    uint64_t valid_tokens = 0;
    for (int len : batch.lengths) valid_tokens += static_cast<uint64_t>(len);
    serving::RecordPaddedBatch(batch.batch_size, batch.t_max, valid_tokens);
    const nn::Tensor prefixes =
        model_->EncodePrefixBatch(batch, schema_, SchemaKv());
    // Slice each example's valid rows back out (tape-free: the cached
    // prefix never carries autograd history).
    nn::NoGradGuard no_grad;
    for (size_t j = c0; j < c1; ++j) {
      CachedQuery& entry = (*computed)[valid[j]];
      const int len = batch.lengths[j - c0];
      entry.prefix =
          nn::SliceExample(prefixes, static_cast<int>(j - c0), len);
      ExtractStructure(*toks[valid[j]], len, &entry);
    }
  }
}

bool PreqrEncoder::RepeatMiss(const std::string& sql) {
  const uint64_t h = std::hash<std::string>{}(sql);
  const uint64_t tag = h | 1;  // never 0, the empty-slot mark
  return recent_misses_[h % recent_misses_.size()].exchange(
             tag, std::memory_order_relaxed) == tag;
}

std::vector<StatusOr<PreqrEncoder::CachedQuery>> PreqrEncoder::Lookup(
    const std::vector<std::string>& sqls) {
  const size_t n = sqls.size();
  // Serial cache probe; duplicate misses collapse onto one computation.
  std::vector<std::optional<CachedQuery>> hit(n);
  std::vector<int> miss_of(n, -1);
  std::vector<std::string> miss_sqls;
  std::unordered_map<std::string, int> miss_index;
  for (size_t i = 0; i < n; ++i) {
    if (auto h = prefix_cache_.Get(sqls[i])) {
      hit[i] = std::move(h);
      continue;
    }
    auto [it, inserted] =
        miss_index.emplace(sqls[i], static_cast<int>(miss_sqls.size()));
    if (inserted) miss_sqls.push_back(sqls[i]);
    miss_of[i] = it->second;
  }
  // Missing frozen prefixes: one padded [B, T, d] forward per chunk of
  // distinct misses (inside, the kernels parallelize over the flattened
  // rows — far better occupancy than one task per query).
  std::vector<CachedQuery> computed;
  std::vector<Status> miss_status;
  ComputeQueriesBatched(miss_sqls, &computed, &miss_status);
  // Serial cache insertion in first-occurrence order: every prefix once the
  // encoder has fine-tuned, before that only a repeat miss's.
  for (size_t m = 0; m < miss_sqls.size(); ++m) {
    if (miss_status[m].ok() && (fine_tuned_ || RepeatMiss(miss_sqls[m]))) {
      prefix_cache_.Put(miss_sqls[m], computed[m]);
    }
  }
  std::vector<StatusOr<CachedQuery>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (hit[i]) {
      out.push_back(std::move(*hit[i]));
      continue;
    }
    const auto m = static_cast<size_t>(miss_of[i]);
    if (miss_status[m].ok()) {
      out.push_back(computed[m]);
    } else {
      out.push_back(miss_status[m]);
    }
  }
  return out;
}

std::vector<nn::Tensor> PreqrEncoder::FinalTokens(
    const std::vector<const CachedQuery*>& entries) {
  // Pad the prefixes into [B, T, d] chunks, run the last Trm_g layer once
  // per chunk, then slice each entry's valid rows back out. In train mode
  // the tape runs through the padded pass into the layer's parameters,
  // wk/wv's schema projections included, so the memo is left out.
  const std::vector<nn::AttentionKv>* kv = SchemaKv();
  const nn::AttentionKv* last_kv =
      kv != nullptr && !nn::GradMode::enabled() ? &kv->back() : nullptr;
  std::vector<nn::Tensor> out;
  out.reserve(entries.size());
  for (size_t c0 = 0; c0 < entries.size(); c0 += kMaxEncodeBatch) {
    const size_t c1 =
        std::min(entries.size(), c0 + static_cast<size_t>(kMaxEncodeBatch));
    std::vector<nn::Tensor> prefixes;
    std::vector<int> lengths;
    prefixes.reserve(c1 - c0);
    lengths.reserve(c1 - c0);
    uint64_t valid_tokens = 0;
    int t_max = 0;
    for (size_t j = c0; j < c1; ++j) {
      const nn::Tensor& p = entries[j]->prefix;
      prefixes.push_back(p);
      lengths.push_back(p.dim(0));
      valid_tokens += static_cast<uint64_t>(p.dim(0));
      t_max = std::max(t_max, p.dim(0));
    }
    serving::RecordPaddedBatch(static_cast<int>(c1 - c0), t_max,
                               valid_tokens);
    nn::Tensor padded = nn::PadExamples(prefixes);
    nn::Tensor out_batch =
        model_->LastLayerBatch(padded, schema_, lengths, last_kv);
    for (size_t j = c0; j < c1; ++j) {
      out.push_back(nn::SliceExample(out_batch, static_cast<int>(j - c0),
                                     lengths[j - c0]));
    }
  }
  return out;
}

nn::Tensor PreqrEncoder::PoolReadOut(const nn::Tensor& tokens,
                                     const CachedQuery& cached) {
  // Structured read-out over the final token states: the aggregate [CLS],
  // the global mean, mean/max pools over per-predicate span means (set
  // pooling that keeps each predicate's column-op-value binding), and the
  // FROM-list pool. The automaton provides the span structure.
  const int d = model_->config().d_model;
  nn::Tensor cls = nn::SliceRows(tokens, 0, 1);
  nn::Tensor mean = nn::Reshape(nn::MeanRows(tokens), {1, d});
  nn::Tensor span_mean, span_max;
  if (cached.predicate_spans.empty()) {
    span_mean = nn::Tensor::Zeros({1, d});
    span_max = nn::Tensor::Zeros({1, d});
  } else {
    std::vector<nn::Tensor> spans;
    spans.reserve(cached.predicate_spans.size());
    for (const auto& rows : cached.predicate_spans) {
      spans.push_back(nn::Reshape(nn::MeanRowsSubset(tokens, rows), {1, d}));
    }
    nn::Tensor stacked = nn::ConcatRows(spans);  // [P, d]
    // Sum pooling over spans: per-conjunct contributions add up, matching
    // the log-additive structure of join/filter cardinality factors.
    span_mean = nn::Scale(
        nn::Reshape(nn::MeanRows(stacked), {1, d}),
        static_cast<float>(cached.predicate_spans.size()));
    span_max = nn::Reshape(nn::MaxRows(stacked), {1, d});
  }
  nn::Tensor tabs = nn::Scale(
      nn::Reshape(nn::MeanRowsSubset(tokens, cached.table_rows), {1, d}),
      static_cast<float>(cached.table_rows.size()));
  return nn::ConcatLastDim({cls, mean, span_mean, span_max, tabs});
}

std::vector<StatusOr<nn::Tensor>> PreqrEncoder::EncodeBatch(
    const std::vector<std::string>& sqls, bool train, bool zero_fallback) {
  PrepareLastLayer(train);
  model_->set_train(train);
  auto looked_up = Lookup(sqls);
  std::optional<CachedQuery> zero;  // built on the first fallback
  std::vector<const CachedQuery*> entries;
  std::vector<size_t> slots;
  entries.reserve(sqls.size());
  slots.reserve(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    if (looked_up[i].ok()) {
      entries.push_back(&looked_up[i].value());
    } else if (zero_fallback) {
      // Legacy fallback for the task loops: malformed queries read out
      // zeros. Not silent — counted process-wide, logged once per distinct
      // error.
      serving::RecordEncodeFallback(looked_up[i].status().ToString());
      if (!zero) zero = ZeroEntry();
      entries.push_back(&*zero);
    } else {
      continue;
    }
    slots.push_back(i);
  }
  // Inference encodes never take gradients; only fine-tuning (train=true)
  // needs the tape through the last layer's read-out.
  std::optional<nn::NoGradGuard> no_grad;
  if (!train) no_grad.emplace();
  const std::vector<nn::Tensor> tokens = FinalTokens(entries);
  std::vector<StatusOr<nn::Tensor>> out;
  out.reserve(sqls.size());
  for (size_t i = 0, k = 0; i < sqls.size(); ++i) {
    if (k < slots.size() && slots[k] == i) {
      out.push_back(PoolReadOut(tokens[k], *entries[k]));
      ++k;
    } else {
      out.push_back(looked_up[i].status());
    }
  }
  model_->set_train(false);
  return out;
}

std::vector<StatusOr<nn::Tensor>> PreqrEncoder::TryEncodeVectorBatch(
    const std::vector<std::string>& sqls, bool train) {
  return EncodeBatch(sqls, train, /*zero_fallback=*/false);
}

StatusOr<nn::Tensor> PreqrEncoder::TryEncodeVector(const std::string& sql,
                                                   bool train) {
  return std::move(TryEncodeVectorBatch({sql}, train)[0]);
}

std::vector<nn::Tensor> PreqrEncoder::EncodeVectorBatch(
    const std::vector<std::string>& sqls, bool train) {
  auto results = EncodeBatch(sqls, train, /*zero_fallback=*/true);
  std::vector<nn::Tensor> out;
  out.reserve(results.size());
  for (auto& r : results) out.push_back(std::move(r).value());
  return out;
}

nn::Tensor PreqrEncoder::EncodeVector(const std::string& sql, bool train) {
  return std::move(EncodeVectorBatch({sql}, train)[0]);
}

nn::Tensor PreqrEncoder::EncodeSequence(const std::string& sql, bool train) {
  PrepareLastLayer(train);
  std::optional<nn::NoGradGuard> no_grad;
  if (!train) no_grad.emplace();
  model_->set_train(train);
  auto cached = std::move(Lookup({sql})[0]);
  if (!cached.ok()) serving::RecordEncodeFallback(cached.status().ToString());
  const CachedQuery entry =
      cached.ok() ? std::move(cached).value() : ZeroEntry();
  nn::Tensor tokens = std::move(FinalTokens({&entry})[0]);
  model_->set_train(false);
  return tokens;  // [S, d]
}

std::vector<nn::Tensor> PreqrEncoder::TrainableParameters() {
  return model_->LastLayerParameters();
}

}  // namespace preqr::tasks
