#ifndef PREQR_CORE_PREQR_MODEL_H_
#define PREQR_CORE_PREQR_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "automaton/fa.h"
#include "core/config.h"
#include "nn/module.h"
#include "schema/schema_graph.h"
#include "text/tokenizer.h"

namespace preqr::core {

// One Trm_g block (Figure 6): the original transformer encoder sub-layer
// over the query tokens, plus the query-aware sub-graph transformer that
// cross-attends tokens to schema-node embeddings; outputs are concatenated
// and projected back to d_model.
class TrmGLayer : public nn::Module {
 public:
  TrmGLayer(const PreqrConfig& config, Rng& rng);

  // Padded-batch forward: e_q is [B, T, d] with lengths[b] valid rows per
  // example; schema_nodes is [N, d] (an empty tensor disables the schema
  // branch, cf. PreQRNT). Masked self-attention inside trm_, unmasked
  // cross-attention onto the shared schema nodes (every key is valid),
  // masked layer norms throughout. Valid rows are bitwise the same example
  // run at B=1; pad rows come out exactly zero. Returns [B, T, d].
  // `schema_kv`, when given, must be ProjectSchemaKv(schema_nodes) built
  // under the same kernel table; the cross attention then reads it
  // instead of projecting the schema again (bitwise the same).
  nn::Tensor ForwardBatch(const nn::Tensor& e_q,
                          const nn::Tensor& schema_nodes,
                          const std::vector<int>& lengths,
                          const nn::AttentionKv* schema_kv = nullptr) const;

  // The schema branch's cross-attention keys/values for schema_nodes [N, d]
  // (Trm' reads e_G, which does not depend on the query).
  nn::AttentionKv ProjectSchemaKv(const nn::Tensor& schema_nodes) const;

 private:
  nn::TransformerEncoderLayer trm_;        // black rectangle of Figure 6
  nn::MultiHeadAttention graph_attention_; // red rectangle: Trm'
  nn::FeedForward graph_ffn_;
  nn::LayerNorm graph_ln1_, graph_ln2_;
  nn::Linear fuse_;  // Concat(e_q, e_g) [S,2d] -> [S,d]
  nn::LayerNorm fuse_ln_;  // keeps every sub-layer output normalized
};

// The full PreQR model: Input Embedding (token + SQL state + position),
// Query-Aware Schema (BiLSTM name encoder + R-GCN), and SQLBERT (a stack of
// Trm_g layers with an MLM head).
class PreqrModel : public nn::Module {
 public:
  // Pointers are non-owned and must outlive the model.
  PreqrModel(PreqrConfig config, const text::SqlTokenizer* tokenizer,
             const automaton::Automaton* fa, const schema::SchemaGraph* graph,
             uint64_t seed = 1234);

  // --- Schema branch ----------------------------------------------------
  // Encodes all schema nodes ([N, d]); call once per training step and
  // share across the batch. With `with_grad=false` the result is detached
  // (used for frozen-encoder fine-tuning and inference).
  nn::Tensor EncodeSchemaNodes(bool with_grad);

  // MLM prediction head over the final token states; row-wise, so
  // [B, T, d] maps to [B, T, vocab].
  nn::Tensor MlmLogits(const nn::Tensor& token_states) const;

  // --- Forward ([B, T, d] padded execution) -------------------------------
  // Every SQLBERT forward runs on a padded batch; a single query is a B=1
  // batch. The batch must have been collated with max_len =
  // config().max_seq_len. Padding invariance: row i < batch.lengths[b] of
  // every output is bitwise-identical to the same row of that example
  // collated and run alone (B=1); pad rows are exactly zero.
  //
  // Full forward for the MLM step. `masked_ids[b]` (optional)
  // overrides example b's token ids; in train mode `dropout_seeds[b]`
  // seeds example b's private dropout stream (the serial RNG pre-pass in
  // the trainer keeps draws independent of scheduling). Returns [B, T, d].
  nn::Tensor ForwardBatch(const text::SqlTokenizer::TokenizedBatch& batch,
                          const nn::Tensor& schema_nodes,
                          const std::vector<std::vector<int>>& masked_ids = {},
                          const std::vector<uint64_t>& dropout_seeds = {});

  // --- Split forward (fine-tuning: frozen prefix + trainable last layer) --
  // Schema keys/values of every Trm_g layer (element l is layer l's
  // TrmGLayer::ProjectSchemaKv), projected from detached schema nodes; a
  // caller that encodes many batches against one frozen schema projects
  // them once and passes them to the calls below. Empty when the model
  // runs without the schema branch.
  std::vector<nn::AttentionKv> ProjectSchemaKv(
      const nn::Tensor& schema_nodes_detached) const;
  // Embedding + the first L-1 layers as one tape-free padded forward.
  // Returns [B, T, d]; slice per example with nn::SliceExample.
  // `schema_kv` (optional) is ProjectSchemaKv(schema_nodes_detached);
  // entries past the prefix layers are ignored.
  nn::Tensor EncodePrefixBatch(
      const text::SqlTokenizer::TokenizedBatch& batch,
      const nn::Tensor& schema_nodes_detached,
      const std::vector<nn::AttentionKv>* schema_kv = nullptr);
  // The last Trm_g layer over padded prefixes [B, T, d] (lengths[b] valid
  // rows each). In train mode gradients flow into the layer's parameters;
  // a train-mode caller passes no `schema_kv`, so wk/wv get theirs too.
  nn::Tensor LastLayerBatch(const nn::Tensor& prefix_states,
                            const nn::Tensor& schema_nodes,
                            const std::vector<int>& lengths,
                            const nn::AttentionKv* schema_kv = nullptr);

  // --- Parameter groups (Section 3.6 update cases) -------------------------
  std::vector<nn::Tensor> LastLayerParameters() const;   // Case 1
  std::vector<nn::Tensor> SchemaParameters() const;      // Case 2
  std::vector<nn::Tensor> InputParameters() const;       // Case 3

  const PreqrConfig& config() const { return config_; }
  const text::SqlTokenizer& tokenizer() const { return *tokenizer_; }
  int vocab_size() const { return tokenizer_->vocab().size(); }

 private:
  // Padded batch embedding [B, T, d]: per-example token/state/position ids
  // and quantiles, then every channel gathers/projects as one [B*T, .]
  // block (row-wise ops, so a row's bits do not depend on its neighbors).
  nn::Tensor EmbedInputBatch(const text::SqlTokenizer::TokenizedBatch& batch,
                             const std::vector<std::vector<int>>& override_ids)
      const;

  PreqrConfig config_;
  const text::SqlTokenizer* tokenizer_;
  const automaton::Automaton* fa_;
  const schema::SchemaGraph* graph_;
  Rng rng_;  // parameter initialization

  // Input Embedding.
  nn::Embedding token_embedding_;
  nn::Embedding state_embedding_;
  nn::Embedding position_embedding_;
  nn::Linear composite_proj_;

  // Query-Aware Schema.
  nn::BiLstm name_lstm_;
  nn::Linear name_proj_;
  std::vector<std::unique_ptr<nn::RgcnLayer>> rgcn_;
  std::vector<std::vector<nn::Edge>> rel_edges_;
  std::vector<std::vector<float>> rel_norms_;
  // Tokenized schema node names (vocab ids), cached at construction.
  std::vector<std::vector<int>> node_name_ids_;

  // SQLBERT.
  std::vector<std::unique_ptr<TrmGLayer>> layers_;
  nn::Linear mlm_head_;
};

}  // namespace preqr::core

#endif  // PREQR_CORE_PREQR_MODEL_H_
