#include "nn/module.h"

#include <cmath>

namespace preqr::nn {

std::vector<std::pair<std::string, Tensor>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, Tensor>> out = params_;
  for (const auto& [name, child] : children_) {
    for (const auto& [pname, t] : child->NamedParameters()) {
      out.emplace_back(name + "." + pname, t);
    }
  }
  return out;
}

std::vector<Tensor> Module::Parameters() const {
  std::vector<Tensor> out;
  for (const auto& [name, t] : NamedParameters()) out.push_back(t);
  return out;
}

void Module::ZeroGrad() {
  for (auto& t : Parameters()) t.ZeroGrad();
}

Index Module::NumParameters() const {
  Index n = 0;
  for (const auto& t : Parameters()) n += t.size();
  return n;
}

Tensor Module::RegisterParameter(std::string name, Tensor t) {
  t.set_requires_grad(true);
  params_.emplace_back(std::move(name), t);
  return t;
}

void Module::RegisterChild(std::string name, Module* child) {
  children_.emplace_back(std::move(name), child);
}

void Module::set_train(bool train) {
  train_ = train;
  for (auto& [name, child] : children_) child->set_train(train);
}

// --- Linear -----------------------------------------------------------

Linear::Linear(int in_features, int out_features, Rng& rng, bool bias)
    : in_(in_features), out_(out_features), has_bias_(bias) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_ + out_));
  weight_ = RegisterParameter(
      "weight", Tensor::Uniform({in_, out_}, rng, bound));
  if (has_bias_) {
    bias_ = RegisterParameter("bias", Tensor::Zeros({out_}));
  }
}

Tensor Linear::Forward(const Tensor& x, const std::vector<int>& lengths,
                       Activation act) const {
  return Affine(x, weight_, has_bias_ ? bias_ : Tensor(), act, lengths);
}

// --- Embedding ---------------------------------------------------------

Embedding::Embedding(int vocab_size, int dim, Rng& rng)
    : vocab_(vocab_size), dim_(dim) {
  weight_ = RegisterParameter(
      "weight", Tensor::Randn({vocab_, dim_}, rng, 0.02f));
}

Tensor Embedding::Forward(const std::vector<int>& ids) const {
  return Gather(weight_, ids);
}

// --- LayerNorm ----------------------------------------------------------

LayerNorm::LayerNorm(int dim) {
  gamma_ = RegisterParameter("gamma", Tensor::Full({dim}, 1.0f));
  beta_ = RegisterParameter("beta", Tensor::Zeros({dim}));
}

Tensor LayerNorm::ForwardMasked(const Tensor& x,
                                const std::vector<int>& lengths) const {
  return MaskedLayerNorm(x, gamma_, beta_, lengths);
}

Tensor LayerNorm::ForwardMasked(const Tensor& x, const Tensor& y,
                                const std::vector<int>& lengths) const {
  return MaskedAddLayerNorm(x, y, gamma_, beta_, lengths);
}

// --- MultiHeadAttention ---------------------------------------------------

MultiHeadAttention::MultiHeadAttention(int dim, int num_heads, Rng& rng)
    : dim_(dim),
      heads_(num_heads),
      head_dim_(dim / num_heads),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng) {
  PREQR_CHECK_EQ(head_dim_ * heads_, dim_);
  RegisterChild("wq", &wq_);
  RegisterChild("wk", &wk_);
  RegisterChild("wv", &wv_);
  RegisterChild("wo", &wo_);
}

Tensor MultiHeadAttention::Forward(const Tensor& q, const Tensor& kv,
                                   const std::vector<int>& lengths) const {
  return Attend(q, ProjectKv(kv), lengths);
}

AttentionKv MultiHeadAttention::ProjectKv(const Tensor& kv) const {
  return {Transpose(wk_.Forward(kv)), wv_.Forward(kv)};
}

Tensor MultiHeadAttention::Attend(const Tensor& q, const AttentionKv& heads,
                                  const std::vector<int>& lengths) const {
  const Tensor qp = wq_.Forward(q, lengths);
  return wo_.Forward(Attention(qp, heads.kt, heads.v, heads_, lengths),
                     lengths);
}

Tensor MultiHeadAttention::ForwardBatch(const Tensor& x,
                                        const std::vector<int>& lengths) const {
  // Projections are row-wise, so running them on the valid rows of the
  // padded [B, T, d] block reproduces each example's rows bitwise; the
  // attention op masks keys to each example's own positions.
  const Tensor qp = wq_.Forward(x, lengths);  // [B, T, d]
  const Tensor kp = wk_.Forward(x, lengths);
  const Tensor vp = wv_.Forward(x, lengths);
  return wo_.Forward(Attention(qp, kp, vp, heads_, lengths), lengths);
}

// --- FeedForward ------------------------------------------------------------

FeedForward::FeedForward(int dim, int hidden, Rng& rng)
    : fc1_(dim, hidden, rng), fc2_(hidden, dim, rng) {
  RegisterChild("fc1", &fc1_);
  RegisterChild("fc2", &fc2_);
}

Tensor FeedForward::Forward(const Tensor& x,
                            const std::vector<int>& lengths) const {
  return fc2_.Forward(fc1_.Forward(x, lengths, Activation::kGelu), lengths);
}

// --- TransformerEncoderLayer -------------------------------------------------

TransformerEncoderLayer::TransformerEncoderLayer(int dim, int num_heads,
                                                 int ffn_hidden, Rng& rng)
    : attn_(dim, num_heads, rng),
      ffn_(dim, ffn_hidden, rng),
      ln1_(dim),
      ln2_(dim) {
  RegisterChild("attn", &attn_);
  RegisterChild("ffn", &ffn_);
  RegisterChild("ln1", &ln1_);
  RegisterChild("ln2", &ln2_);
}

Tensor TransformerEncoderLayer::ForwardBatch(
    const Tensor& x, const std::vector<int>& lengths) const {
  // Every sub-layer computes valid rows only, and the residual layer norms
  // hand on exactly-zero pad rows.
  Tensor h = ln1_.ForwardMasked(x, attn_.ForwardBatch(x, lengths), lengths);
  return ln2_.ForwardMasked(h, ffn_.Forward(h, lengths), lengths);
}

// --- BiLstm -------------------------------------------------------------------

BiLstm::BiLstm(int input_dim, int hidden_dim, Rng& rng)
    : input_(input_dim),
      hidden_(hidden_dim),
      fwd_x_(input_dim, 4 * hidden_dim, rng),
      fwd_h_(hidden_dim, 4 * hidden_dim, rng, /*bias=*/false),
      rev_x_(input_dim, 4 * hidden_dim, rng),
      rev_h_(hidden_dim, 4 * hidden_dim, rng, /*bias=*/false) {
  RegisterChild("fwd_x", &fwd_x_);
  RegisterChild("fwd_h", &fwd_h_);
  RegisterChild("rev_x", &rev_x_);
  RegisterChild("rev_h", &rev_h_);
}

Tensor BiLstm::RunDirection(const Tensor& x, bool reverse, const Linear& wx,
                            const Linear& wh) const {
  const int t_len = x.dim(0);
  Tensor h = Tensor::Zeros({1, hidden_});
  Tensor c = Tensor::Zeros({1, hidden_});
  std::vector<Tensor> states(static_cast<size_t>(t_len));
  for (int step = 0; step < t_len; ++step) {
    const int t = reverse ? t_len - 1 - step : step;
    const Tensor xt = SliceRows(x, t, 1);  // [1, in]
    Tensor gates = Add(wx.Forward(xt), wh.Forward(h));  // [1, 4H]
    const Tensor i = Sigmoid(SliceLastDim(gates, 0, hidden_));
    const Tensor f = Sigmoid(SliceLastDim(gates, hidden_, hidden_));
    const Tensor g = Tanh(SliceLastDim(gates, 2 * hidden_, hidden_));
    const Tensor o = Sigmoid(SliceLastDim(gates, 3 * hidden_, hidden_));
    c = Add(Mul(f, c), Mul(i, g));
    h = Mul(o, Tanh(c));
    states[static_cast<size_t>(t)] = h;
  }
  return ConcatRows(states);  // [T, hidden] in original time order
}

BiLstm::Output BiLstm::Forward(const Tensor& x) const {
  const Tensor fwd = RunDirection(x, /*reverse=*/false, fwd_x_, fwd_h_);
  const Tensor rev = RunDirection(x, /*reverse=*/true, rev_x_, rev_h_);
  const int t_len = x.dim(0);
  Output out;
  out.per_step = ConcatLastDim({fwd, rev});  // [T, 2H]
  out.summary = ConcatLastDim(
      {SliceRows(fwd, t_len - 1, 1), SliceRows(rev, 0, 1)});  // [1, 2H]
  return out;
}

// --- GruCell ---------------------------------------------------------------

GruCell::GruCell(int input_dim, int hidden_dim, Rng& rng)
    : input_(input_dim),
      hidden_(hidden_dim),
      wx_(input_dim, 3 * hidden_dim, rng),
      wh_(hidden_dim, 3 * hidden_dim, rng, /*bias=*/false) {
  RegisterChild("wx", &wx_);
  RegisterChild("wh", &wh_);
}

Tensor GruCell::Forward(const Tensor& x, const Tensor& h) const {
  const Tensor gx = wx_.Forward(x);  // [1, 3H]
  const Tensor gh = wh_.Forward(h);  // [1, 3H]
  const Tensor r = Sigmoid(Add(SliceLastDim(gx, 0, hidden_),
                               SliceLastDim(gh, 0, hidden_)));
  const Tensor z = Sigmoid(Add(SliceLastDim(gx, hidden_, hidden_),
                               SliceLastDim(gh, hidden_, hidden_)));
  const Tensor n = Tanh(Add(SliceLastDim(gx, 2 * hidden_, hidden_),
                            Mul(r, SliceLastDim(gh, 2 * hidden_, hidden_))));
  // h' = (1-z)*n + z*h = n + z*(h - n)
  return Add(n, Mul(z, Sub(h, n)));
}

// --- RgcnLayer ----------------------------------------------------------------

RgcnLayer::RgcnLayer(int in_dim, int out_dim, int num_relations, Rng& rng)
    : num_relations_(num_relations), self_weight_(in_dim, out_dim, rng) {
  rel_weights_.reserve(static_cast<size_t>(num_relations));
  for (int r = 0; r < num_relations; ++r) {
    rel_weights_.emplace_back(in_dim, out_dim, rng, /*bias=*/false);
  }
  for (int r = 0; r < num_relations; ++r) {
    RegisterChild("rel" + std::to_string(r), &rel_weights_[static_cast<size_t>(r)]);
  }
  RegisterChild("self", &self_weight_);
}

Tensor RgcnLayer::Forward(
    const Tensor& h, const std::vector<std::vector<Edge>>& rel_edges,
    const std::vector<std::vector<float>>& rel_norms) const {
  PREQR_CHECK_EQ(static_cast<int>(rel_edges.size()), num_relations_);
  Tensor acc = self_weight_.Forward(h);
  for (int r = 0; r < num_relations_; ++r) {
    const auto& edges = rel_edges[static_cast<size_t>(r)];
    if (edges.empty()) continue;
    const Tensor agg =
        SparseAggregate(h, edges, rel_norms[static_cast<size_t>(r)]);
    acc = Add(acc, rel_weights_[static_cast<size_t>(r)].Forward(agg));
  }
  return Relu(acc);
}

}  // namespace preqr::nn
