#ifndef PREQR_NN_MODULE_H_
#define PREQR_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace preqr::nn {

// Base class for trainable components. Parameters are registered with names
// so they can be serialized and fed to an optimizer.
class Module {
 public:
  virtual ~Module() = default;

  // Named parameters of this module (and registered children).
  std::vector<std::pair<std::string, Tensor>> NamedParameters() const;
  std::vector<Tensor> Parameters() const;
  void ZeroGrad();
  // Total number of scalar parameters.
  Index NumParameters() const;

  // Sets train/eval mode on this module and every registered child (so a
  // parent switched to eval cannot leave a child's dropout on).
  void set_train(bool train);
  bool train_mode() const { return train_; }

 protected:
  Tensor RegisterParameter(std::string name, Tensor t);
  void RegisterChild(std::string name, Module* child);

 private:
  std::vector<std::pair<std::string, Tensor>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool train_ = true;
};

// y = act(x W + b). x: [..., in], W: [in, out], b: [out]; one Affine op.
// With `lengths`, x is a padded [B, T, in] batch and pad rows are never
// computed (they come out zero).
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng& rng, bool bias = true);
  Tensor Forward(const Tensor& x, const std::vector<int>& lengths = {},
                 Activation act = Activation::kNone) const;
  int in_features() const { return in_; }
  int out_features() const { return out_; }

 private:
  int in_, out_;
  Tensor weight_, bias_;
  bool has_bias_;
};

// ids -> rows of the embedding matrix. weight: [vocab, dim].
class Embedding : public Module {
 public:
  Embedding(int vocab_size, int dim, Rng& rng);
  Tensor Forward(const std::vector<int>& ids) const;
  Tensor weight() const { return weight_; }
  int vocab_size() const { return vocab_; }
  int dim() const { return dim_; }

 private:
  int vocab_, dim_;
  Tensor weight_;
};

class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim);
  // x: [B, T, d] padded batch; valid rows normalize bitwise as LayerNormOp
  // does and pad rows come out zero (re-zeroing any junk the row-wise ops
  // left).
  Tensor ForwardMasked(const Tensor& x, const std::vector<int>& lengths) const;
  // The post-norm residual LN(x + y) over a padded batch, in one pass.
  Tensor ForwardMasked(const Tensor& x, const Tensor& y,
                       const std::vector<int>& lengths) const;

 private:
  Tensor gamma_, beta_;
};

// Keys and values projected from one attention's kv input, heads packed:
// head h owns rows [h*hd, (h+1)*hd) of kt and the same columns of v. They
// depend only on that input and wk/wv, so a frozen input (the schema nodes)
// can be projected once and attended to by every later query.
struct AttentionKv {
  Tensor kt;  // kᵀ [d, Skv]
  Tensor v;   // v [Skv, d]
};

// Multi-head scaled dot-product attention (post-norm residual handled by the
// caller), one nn::Attention op between the projections. Queries may differ
// from keys/values (cross attention). Forward also accepts batched
// [B, T, d] queries against shared 2-D keys/values (schema cross
// attention) — every key is valid, so no key mask is needed; `lengths`
// only skips the queries' pad rows, which come out zero.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int dim, int num_heads, Rng& rng);
  // q: [Sq, d] (or [B, T, d]); kv: [Skv, d] -> q's shape. The op-level
  // reference: Attend(q, ProjectKv(kv)).
  Tensor Forward(const Tensor& q, const Tensor& kv,
                 const std::vector<int>& lengths = {}) const;
  // The kv half of Forward: kv [Skv, d] through wk/wv, kᵀ transposed once.
  // Under the tape the result carries wk/wv's gradient history.
  AttentionKv ProjectKv(const Tensor& kv) const;
  // The query half of Forward against already projected keys/values:
  // bitwise Forward(q, kv) whenever `heads` came from ProjectKv(kv) under
  // the same kernel table.
  Tensor Attend(const Tensor& q, const AttentionKv& heads,
                const std::vector<int>& lengths = {}) const;
  // Masked self-attention over a padded batch [B, T, d]: example b attends
  // over its first lengths[b] positions only; each valid row is bitwise the
  // op-level Forward(x_b, x_b) result on that example's rows.
  Tensor ForwardBatch(const Tensor& x, const std::vector<int>& lengths) const;
  int num_heads() const { return heads_; }

 private:
  int dim_, heads_, head_dim_;
  Linear wq_, wk_, wv_, wo_;
};

// Two-layer position-wise feed-forward with GELU (fused into fc1's GEMM).
class FeedForward : public Module {
 public:
  FeedForward(int dim, int hidden, Rng& rng);
  Tensor Forward(const Tensor& x, const std::vector<int>& lengths = {}) const;

 private:
  Linear fc1_, fc2_;
};

// Standard post-norm transformer encoder layer:
//   x = LN(x + SelfAttn(x)); x = LN(x + FFN(x))
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(int dim, int num_heads, int ffn_hidden, Rng& rng);
  // Padded-batch forward over [B, T, d] (a single sequence is B=1): masked
  // self-attention + masked layer norms, so outputs carry exact
  // per-example rows and exactly-zero pad rows.
  Tensor ForwardBatch(const Tensor& x, const std::vector<int>& lengths) const;

 private:
  MultiHeadAttention attn_;
  FeedForward ffn_;
  LayerNorm ln1_, ln2_;
};

// Single-layer bidirectional LSTM over a short token sequence.
// Input: [T, in]; output per step: [T, 2*hidden]; also exposes the paper's
// Concat(fwd_last, rev_first) summary used for schema node names (Eq. 2).
class BiLstm : public Module {
 public:
  BiLstm(int input_dim, int hidden_dim, Rng& rng);
  struct Output {
    Tensor per_step;  // [T, 2*hidden]
    Tensor summary;   // [1, 2*hidden] = Concat(h_fwd[T-1], h_rev[0])
  };
  Output Forward(const Tensor& x) const;
  int hidden_dim() const { return hidden_; }

 private:
  // One directional pass; returns [T, hidden] hidden states.
  Tensor RunDirection(const Tensor& x, bool reverse, const Linear& wx,
                      const Linear& wh) const;
  int input_, hidden_;
  Linear fwd_x_, fwd_h_, rev_x_, rev_h_;
};

// GRU cell for sequence decoders (SQL-to-Text).
class GruCell : public Module {
 public:
  GruCell(int input_dim, int hidden_dim, Rng& rng);
  // x: [1, in], h: [1, hidden] -> new h [1, hidden].
  Tensor Forward(const Tensor& x, const Tensor& h) const;
  int hidden_dim() const { return hidden_; }

 private:
  int input_, hidden_;
  Linear wx_, wh_;  // produce 3*hidden gates each
};

// One relational GCN layer (Eq. 3): per-relation weight matrices plus a
// self-connection, mean-normalized neighborhood sums, sigma = ReLU.
class RgcnLayer : public Module {
 public:
  RgcnLayer(int in_dim, int out_dim, int num_relations, Rng& rng);
  // h: [N, in]; per relation r an edge list (src->dst) with 1/|N_e(i)| norms.
  Tensor Forward(const Tensor& h,
                 const std::vector<std::vector<Edge>>& rel_edges,
                 const std::vector<std::vector<float>>& rel_norms) const;

 private:
  int num_relations_;
  std::vector<Linear> rel_weights_;
  Linear self_weight_;
};

}  // namespace preqr::nn

#endif  // PREQR_NN_MODULE_H_
