#include "core/preqr_model.h"

#include <algorithm>
#include <optional>

namespace preqr::core {

using nn::Tensor;

TrmGLayer::TrmGLayer(const PreqrConfig& config, Rng& rng)
    : trm_(config.d_model, config.num_heads, config.ffn_hidden, rng),
      graph_attention_(config.d_model, config.num_heads, rng),
      graph_ffn_(config.d_model, config.ffn_hidden, rng),
      graph_ln1_(config.d_model),
      graph_ln2_(config.d_model),
      fuse_(2 * config.d_model, config.d_model, rng),
      fuse_ln_(config.d_model) {
  RegisterChild("trm", &trm_);
  RegisterChild("graph_attn", &graph_attention_);
  RegisterChild("graph_ffn", &graph_ffn_);
  RegisterChild("graph_ln1", &graph_ln1_);
  RegisterChild("graph_ln2", &graph_ln2_);
  RegisterChild("fuse", &fuse_);
  RegisterChild("fuse_ln", &fuse_ln_);
}

nn::AttentionKv TrmGLayer::ProjectSchemaKv(const Tensor& schema_nodes) const {
  return graph_attention_.ProjectKv(schema_nodes);
}

Tensor TrmGLayer::ForwardBatch(const Tensor& e_q, const Tensor& schema_nodes,
                               const std::vector<int>& lengths,
                               const nn::AttentionKv* schema_kv) const {
  // Original transformer (Eq. 6).
  Tensor q = trm_.ForwardBatch(e_q, lengths);
  if (!schema_nodes.defined()) return q;
  // Query-aware sub-graph transformer (Eq. 5, 7): scaled dot-product
  // attention from query tokens onto the schema graph representation e_G,
  // residual + layer norms + FFN. Every key is a valid schema vertex; only
  // the queries' pad rows are skipped (they stay zero throughout).
  Tensor attended = schema_kv != nullptr
                        ? graph_attention_.Attend(q, *schema_kv, lengths)
                        : graph_attention_.Forward(q, schema_nodes, lengths);
  Tensor e_g = graph_ln1_.ForwardMasked(q, attended, lengths);
  e_g = graph_ln2_.ForwardMasked(e_g, graph_ffn_.Forward(e_g, lengths),
                                 lengths);
  // y = Concat(e_q, e_g) (Eq. 8), projected back to d_model so every
  // sub-layer keeps output dimension d_model; normalized so downstream
  // heads see a stable scale across sequence lengths.
  return fuse_ln_.ForwardMasked(
      fuse_.Forward(nn::ConcatLastDim({q, e_g}), lengths), lengths);
}

PreqrModel::PreqrModel(PreqrConfig config, const text::SqlTokenizer* tokenizer,
                       const automaton::Automaton* fa,
                       const schema::SchemaGraph* graph, uint64_t seed)
    : config_(config),
      tokenizer_(tokenizer),
      fa_(fa),
      graph_(graph),
      rng_(seed),
      token_embedding_(tokenizer->vocab().size(), config.d_model, rng_),
      state_embedding_(fa->num_states() + 1, config.state_dim, rng_),
      position_embedding_(config.max_seq_len, config.pos_dim, rng_),
      composite_proj_(config.d_model + config.state_dim + config.pos_dim + 1,
                      config.d_model, rng_),
      name_lstm_(config.d_model, config.name_lstm_hidden, rng_),
      name_proj_(2 * config.name_lstm_hidden, config.d_model, rng_),
      mlm_head_(config.d_model, tokenizer->vocab().size(), rng_) {
  RegisterChild("token_embedding", &token_embedding_);
  RegisterChild("state_embedding", &state_embedding_);
  RegisterChild("position_embedding", &position_embedding_);
  RegisterChild("composite_proj", &composite_proj_);
  RegisterChild("name_lstm", &name_lstm_);
  RegisterChild("name_proj", &name_proj_);
  for (int l = 0; l < config.rgcn_layers; ++l) {
    rgcn_.push_back(std::make_unique<nn::RgcnLayer>(
        config.d_model, config.d_model, schema::kNumEdgeTypes, rng_));
    RegisterChild("rgcn" + std::to_string(l), rgcn_.back().get());
  }
  for (int l = 0; l < config.num_layers; ++l) {
    layers_.push_back(std::make_unique<TrmGLayer>(config, rng_));
    RegisterChild("trm_g" + std::to_string(l), layers_.back().get());
  }
  RegisterChild("mlm_head", &mlm_head_);

  graph->RelationalEdges(&rel_edges_, &rel_norms_);
  for (const auto& node : graph->nodes()) {
    std::vector<int> ids;
    for (const auto& tok : node.name_tokens) {
      ids.push_back(tokenizer_->vocab().Id(tok));
    }
    if (ids.empty()) ids.push_back(text::Vocab::kUnkId);
    node_name_ids_.push_back(std::move(ids));
  }
}

Tensor PreqrModel::EncodeSchemaNodes(bool with_grad) {
  // Eq. 1-2: BiLSTM over the name tokens of each vertex, summary =
  // Concat(fwd last, rev first); then R-GCN propagation (Eq. 3).
  // Without grad the whole branch runs tape-free (no parents/grad_fn are
  // ever allocated), so the result is already detached.
  std::optional<nn::NoGradGuard> no_grad;
  if (!with_grad) no_grad.emplace();
  std::vector<Tensor> summaries;
  summaries.reserve(node_name_ids_.size());
  for (const auto& ids : node_name_ids_) {
    Tensor name_emb = token_embedding_.Forward(ids);  // [T, d]
    summaries.push_back(name_lstm_.Forward(name_emb).summary);  // [1, 2h]
  }
  Tensor h = name_proj_.Forward(nn::ConcatRows(summaries));  // [N, d]
  for (const auto& layer : rgcn_) {
    h = layer->Forward(h, rel_edges_, rel_norms_);
  }
  return h;
}

Tensor PreqrModel::EmbedInputBatch(
    const text::SqlTokenizer::TokenizedBatch& batch,
    const std::vector<std::vector<int>>& override_ids) const {
  const int bsz = batch.batch_size;
  const int t = batch.t_max;
  PREQR_CHECK_GT(bsz, 0);
  PREQR_CHECK_LE(t, config_.max_seq_len);
  if (!override_ids.empty()) {
    PREQR_CHECK_EQ(static_cast<int>(override_ids.size()), bsz);
  }
  const size_t total = static_cast<size_t>(bsz) * static_cast<size_t>(t);
  // Flattened [B*T] id channels; pads use the same benign ids throughout
  // (kPadId / state 0 / position 0 / quantile 0) — their gathered rows are
  // junk by design and the projection below never reads them.
  std::vector<int> tok_ids(batch.ids);
  std::vector<int> state_ids(total, 0);
  std::vector<int> pos_ids(total, 0);
  std::vector<float> quantiles(batch.quantiles);
  for (int b = 0; b < bsz; ++b) {
    const int s = batch.lengths[static_cast<size_t>(b)];
    const size_t off = static_cast<size_t>(b) * static_cast<size_t>(t);
    if (!override_ids.empty()) {
      const auto& ids = override_ids[static_cast<size_t>(b)];
      PREQR_CHECK_GE(static_cast<int>(ids.size()), s);
      std::copy(ids.begin(), ids.begin() + s,
                tok_ids.begin() + static_cast<long>(off));
    }
    // SQL state ids via the automaton (Section 3.3.1), per example: the
    // automaton sees the example's full symbol sequence, [CLS] is the start
    // state, and matching degrades gracefully for unknown structures.
    if (config_.use_automaton) {
      const auto& symbols = batch.symbols[static_cast<size_t>(b)];
      std::vector<automaton::Symbol> tail(
          symbols.begin() + 1,
          symbols.begin() + static_cast<long>(symbols.size()));
      const auto match = fa_->Match(tail);
      for (int i = 1; i < s; ++i) {
        state_ids[off + static_cast<size_t>(i)] =
            match.states[static_cast<size_t>(i - 1)] + 1;
      }
      state_ids[off] = fa_->start_state() + 1;
    }
    for (int i = 0; i < s; ++i) {
      pos_ids[off + static_cast<size_t>(i)] = i;
    }
  }
  // One gather/projection per channel for the whole batch: row-wise ops on
  // the flattened [B*T, .] views, so a valid row's bits do not depend on
  // the batch around it. The quantile channel is the continuous refinement
  // of range tokens (the value's empirical quantile, 0 elsewhere), and the
  // composite embedding is e(t_i) = (b(t_i), a(t_i), pos(t_i)) (3.3.2).
  Tensor tok = token_embedding_.Forward(tok_ids);      // [B*T, d]
  Tensor state = state_embedding_.Forward(state_ids);  // [B*T, ds]
  Tensor pos = position_embedding_.Forward(pos_ids);   // [B*T, dp]
  Tensor quant =
      Tensor::FromData({static_cast<int>(total), 1}, std::move(quantiles));
  Tensor composite = nn::ConcatLastDim({tok, state, pos, quant});
  const int in = composite.dim(1);
  // The projection skips pad rows, so they leave here as zeros.
  return composite_proj_.Forward(nn::Reshape(composite, {bsz, t, in}),
                                 batch.lengths);  // [B, T, d]
}

Tensor PreqrModel::MlmLogits(const Tensor& token_states) const {
  return mlm_head_.Forward(token_states);
}

Tensor PreqrModel::ForwardBatch(
    const text::SqlTokenizer::TokenizedBatch& batch, const Tensor& schema_nodes,
    const std::vector<std::vector<int>>& masked_ids,
    const std::vector<uint64_t>& dropout_seeds) {
  Tensor h = EmbedInputBatch(batch, masked_ids);
  if (train_mode() && config_.dropout > 0.0f) {
    // Scheduling-independent dropout needs one pre-drawn seed per example
    // (the trainer's serial RNG pre-pass supplies them).
    PREQR_CHECK_EQ(dropout_seeds.size(),
                   static_cast<size_t>(batch.batch_size));
    h = nn::MaskedDropout(h, config_.dropout, dropout_seeds, batch.lengths,
                          /*train=*/true);
  }
  const Tensor schema = config_.use_schema ? schema_nodes : Tensor();
  for (const auto& layer : layers_) {
    h = layer->ForwardBatch(h, schema, batch.lengths);
  }
  return h;  // [B, T, d]
}

std::vector<nn::AttentionKv> PreqrModel::ProjectSchemaKv(
    const Tensor& schema_nodes_detached) const {
  std::vector<nn::AttentionKv> out;
  if (!config_.use_schema || !schema_nodes_detached.defined()) return out;
  nn::NoGradGuard no_grad;
  out.reserve(layers_.size());
  for (const auto& layer : layers_) {
    out.push_back(layer->ProjectSchemaKv(schema_nodes_detached));
  }
  return out;
}

Tensor PreqrModel::EncodePrefixBatch(
    const text::SqlTokenizer::TokenizedBatch& batch,
    const Tensor& schema_nodes_detached,
    const std::vector<nn::AttentionKv>* schema_kv) {
  // The prefix is frozen in the fine-tune-last-layer protocol, so the
  // whole padded forward runs tape-free on pooled storage.
  nn::NoGradGuard no_grad;
  Tensor h = EmbedInputBatch(batch, {});
  const Tensor schema = config_.use_schema ? schema_nodes_detached : Tensor();
  const bool memo = schema.defined() && schema_kv != nullptr;
  if (memo) PREQR_CHECK_GE(schema_kv->size() + 1, layers_.size());
  for (size_t l = 0; l + 1 < layers_.size(); ++l) {
    h = layers_[l]->ForwardBatch(h, schema, batch.lengths,
                                 memo ? &(*schema_kv)[l] : nullptr);
  }
  return h;  // [B, T, d]
}

Tensor PreqrModel::LastLayerBatch(const Tensor& prefix_states,
                                  const Tensor& schema_nodes,
                                  const std::vector<int>& lengths,
                                  const nn::AttentionKv* schema_kv) {
  const Tensor schema = config_.use_schema ? schema_nodes : Tensor();
  return layers_.back()->ForwardBatch(
      prefix_states, schema, lengths, schema.defined() ? schema_kv : nullptr);
}

std::vector<Tensor> PreqrModel::LastLayerParameters() const {
  return layers_.back()->Parameters();
}

std::vector<Tensor> PreqrModel::SchemaParameters() const {
  std::vector<Tensor> out = name_lstm_.Parameters();
  for (const auto& t : name_proj_.Parameters()) out.push_back(t);
  for (const auto& layer : rgcn_) {
    for (const auto& t : layer->Parameters()) out.push_back(t);
  }
  return out;
}

std::vector<Tensor> PreqrModel::InputParameters() const {
  std::vector<Tensor> out = token_embedding_.Parameters();
  for (const auto& t : state_embedding_.Parameters()) out.push_back(t);
  for (const auto& t : position_embedding_.Parameters()) out.push_back(t);
  for (const auto& t : composite_proj_.Parameters()) out.push_back(t);
  return out;
}

}  // namespace preqr::core
