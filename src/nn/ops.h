#ifndef PREQR_NN_OPS_H_
#define PREQR_NN_OPS_H_

#include <vector>

#include "common/rng.h"
#include "nn/kernels.h"  // Edge + the compute kernels these ops wire up
#include "nn/tensor.h"

namespace preqr::nn {

// All ops are differentiable (reverse-mode) unless noted. Tensors are
// row-major float32; shapes are asserted with PREQR_CHECK.

// --- Elementwise ------------------------------------------------------
Tensor Add(const Tensor& a, const Tensor& b);        // same shape
Tensor Sub(const Tensor& a, const Tensor& b);        // same shape
Tensor Mul(const Tensor& a, const Tensor& b);        // same shape
Tensor Scale(const Tensor& a, float c);
Tensor AddScalar(const Tensor& a, float c);
// x: [..., d], bias: [d] broadcast over leading dims.
Tensor AddBias(const Tensor& x, const Tensor& bias);

Tensor Relu(const Tensor& x);
Tensor Gelu(const Tensor& x);  // tanh approximation
Tensor Tanh(const Tensor& x);
Tensor Sigmoid(const Tensor& x);

// --- Linear algebra ---------------------------------------------------
// a: [..., k] x b: [k, n] -> [..., n]. Leading dims of `a` flatten to rows,
// so [m,k] and batched [B,T,k] inputs share one kernel (rows are
// independent: per-row results are bitwise-identical either way). The same
// op as Affine(a, b, Tensor()).
Tensor MatMul(const Tensor& a, const Tensor& b);
Tensor Transpose(const Tensor& a);                // [m,n] -> [n,m]

enum class Activation { kNone, kGelu };

// y = act(x w + bias): x [..., k], w [k, n], bias [n] (an undefined tensor
// for none; kGelu needs a bias) -> [..., n]. One Gemm whose epilogue adds
// the bias (and applies GELU) after each element's chain, so the bits are
// exactly AddBias(MatMul(x, w), bias) (then Gelu). With `lengths`, x is a
// padded [B, T, k] batch and only example b's first lengths[b] rows are
// computed; pad rows come out exactly zero. Under the tape the
// pre-activation is kept for GeluBackward.
Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& bias,
              Activation act = Activation::kNone,
              const std::vector<int>& lengths = {});

// --- Normalization / activation over rows ------------------------------
Tensor SoftmaxLastDim(const Tensor& x);
// x: [..., d]; gamma,beta: [d]. Normalizes each trailing-dim row.
Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps = 1e-5f);

// --- Reductions --------------------------------------------------------
Tensor Sum(const Tensor& x);   // -> scalar
Tensor Mean(const Tensor& x);  // -> scalar
// [N,d] -> [d]: average over rows (avg-pool over graph nodes / tokens).
Tensor MeanRows(const Tensor& x);
// [N,d] -> [d]: max over rows; gradient flows to the argmax row.
Tensor MaxRows(const Tensor& x);
// [N,d] -> [d]: average over the given subset of rows (empty -> zeros,
// no gradient).
Tensor MeanRowsSubset(const Tensor& x, const std::vector<int>& rows);

// --- Shape manipulation -------------------------------------------------
Tensor Reshape(const Tensor& x, Shape new_shape);
Tensor ConcatLastDim(const std::vector<Tensor>& xs);  // same leading dims
Tensor ConcatRows(const std::vector<Tensor>& xs);     // along dim 0
// x: [..., d] -> [..., len] taking columns [start, start+len).
Tensor SliceLastDim(const Tensor& x, int start, int len);
// x: [N, ...] -> [len, ...] taking rows [start, start+len).
Tensor SliceRows(const Tensor& x, int start, int len);

// --- Lookup / graph ------------------------------------------------------
// weight: [V,d], ids: N indices -> [N,d]. Gradient scatters into weight.
Tensor Gather(const Tensor& weight, const std::vector<int>& ids);
// Edge list aggregation: out[dst] += norm[e] * h[src] for each edge e.
// h: [N,d] -> out [N,d]. Used by the relational GCN. (`Edge` lives in
// nn/kernels.h.)
Tensor SparseAggregate(const Tensor& h, const std::vector<Edge>& edges,
                       const std::vector<float>& norm);

// --- Losses --------------------------------------------------------------
// logits: [N,C]; targets: N class ids; entries with target==ignore_index are
// skipped. Returns mean cross-entropy over non-ignored rows.
Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                    int ignore_index = -1);
// Mean squared error against a constant target vector.
Tensor MseLoss(const Tensor& pred, const std::vector<float>& target);

// --- Regularization -------------------------------------------------------
Tensor Dropout(const Tensor& x, float p, Rng& rng, bool train);

// --- Batched / masked ops -------------------------------------------------
// Padded-batch counterparts of the ops above, over [B, T, ...] tensors
// where example b occupies rows [0, lengths[b]) and the rest is padding.
// Forward pads stay exactly zero and backward never reads them, so every
// valid row is bitwise-identical to the single-example op at any batch
// composition (see kernels.h for the per-example loop contract).

// a, b: [B, T, k] -> scores [B, T, T]: per example, a_b x b_b^T over valid
// rows (attention logits).
Tensor BatchedMatMulNT(const Tensor& a, const Tensor& b,
                       const std::vector<int>& lengths);
// w: [B, T, T] (attention probs), v: [B, T, dv] -> [B, T, dv].
Tensor BatchedMatMulNN(const Tensor& w, const Tensor& v,
                       const std::vector<int>& lengths);
// x: [B, T, T] -> softmax over each valid row's first lengths[b] entries.
Tensor MaskedSoftmaxLastDim(const Tensor& x, const std::vector<int>& lengths);
// x: [B, T, d]; gamma,beta: [d]. Valid rows normalize as LayerNormOp; pad
// rows are zeroed (the batch path's periodic re-zeroing of padding).
Tensor MaskedLayerNorm(const Tensor& x, const Tensor& gamma,
                       const Tensor& beta, const std::vector<int>& lengths,
                       float eps = 1e-5f);
// The post-norm residual: MaskedLayerNorm(Add(x, y), ...) in one pass, bit
// for bit, without materializing the sum (valid rows only).
Tensor MaskedAddLayerNorm(const Tensor& x, const Tensor& y,
                          const Tensor& gamma, const Tensor& beta,
                          const std::vector<int>& lengths, float eps = 1e-5f);

// Multi-head scaled dot-product attention, heads packed along the last
// dim (head h owns columns [h*hd, (h+1)*hd), hd = d / num_heads).
// q: [B, T, d] projected queries ([S, d] is one example). Two key sources:
//   * self attention — keys, values: [B, T, d], each example attending
//     over its own first lengths[b] positions;
//   * shared keys (schema cross attention) — keys: kᵀ [d, N] (head h's kᵀ
//     is rows [h*hd, (h+1)*hd)), values: [N, d], every key valid.
// Per (example, head, row block): scores = Gemm(q_h, kᵀ_h) with a
// 1/sqrt(hd) scale epilogue, SoftmaxRows, then Gemm(scores, v_h) written
// straight into head h's columns of the output. Valid rows are bitwise
// ConcatLastDim over heads of MatMul/BatchedMatMulNN(Softmax(Scale(
// MatMul/BatchedMatMulNT(q_h, k_h))), v_h); pad rows are never computed
// and stay exactly zero. Empty `lengths` means every row is valid.
Tensor Attention(const Tensor& q, const Tensor& keys, const Tensor& values,
                 int num_heads, const std::vector<int>& lengths = {});
// logits: [B, T, C]; targets: B*T ids (pads/ignore_index skipped). Scalar
// loss = mean over examples of each example's mean row loss — the value the
// per-example CrossEntropy + Add/Scale chain used to produce. example_loss
// (optional) receives each example's own mean.
Tensor MaskedCrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                          const std::vector<int>& lengths,
                          int ignore_index = -1,
                          std::vector<float>* example_loss = nullptr);
// x: [B, T, d] with one dropout RNG stream per example: example b draws
// exactly lengths[b]*d uniforms from Rng(seeds[b]), the sequence the
// single-example Dropout consumes.
Tensor MaskedDropout(const Tensor& x, float p,
                     const std::vector<uint64_t>& seeds,
                     const std::vector<int>& lengths, bool train);
// x: [B, T, d] -> [len, d]: copy example b's valid rows out of the batch.
Tensor SliceExample(const Tensor& x, int b, int len);
// xs: one [S_i, d] per example -> [B, T, d] padded with zeros; T is
// max S_i (or t_max if larger). The inverse of SliceExample per example.
Tensor PadExamples(const std::vector<Tensor>& xs, int t_max = 0);

}  // namespace preqr::nn

#endif  // PREQR_NN_OPS_H_
