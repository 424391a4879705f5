#ifndef PREQR_NN_KERNELS_H_
#define PREQR_NN_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace preqr::nn {

// Edge of a sparse aggregation (R-GCN) edge list: out[dst] += w * h[src].
struct Edge {
  int src;
  int dst;
};

// Pure row-major float32 compute kernels. This is the bottom stratum of the
// nn execution layer: no Tensor, no tape, no allocation beyond internal
// scratch — just raw pointers/sizes in, values out. The tape-wiring in
// ops.cc and the storage policy in buffer_pool.{h,cc} sit on top.
//
// Every kernel keeps the exact loop structure (including ParallelFor
// partitioning and accumulation order) of the op it was extracted from, so
// results are bitwise-identical to the pre-split implementation at every
// thread count. Backward kernels all *accumulate* into their destination
// (dst += ...), matching the tape's gradient-accumulation contract.
namespace kernels {

// --- Elementwise forward -------------------------------------------------
void AddForward(const float* a, const float* b, float* out, size_t n);
void SubForward(const float* a, const float* b, float* out, size_t n);
void MulForward(const float* a, const float* b, float* out, size_t n);
void ScaleForward(const float* a, float c, float* out, size_t n);
void AddScalarForward(const float* a, float c, float* out, size_t n);
// x: rows x d, bias: [d] broadcast over rows.
void AddBiasForward(const float* x, const float* bias, float* out,
                    size_t rows, int d);
void ReluForward(const float* x, float* out, size_t n);
void GeluForward(const float* x, float* out, size_t n);
void TanhForward(const float* x, float* out, size_t n);
void SigmoidForward(const float* x, float* out, size_t n);

// --- Elementwise backward ------------------------------------------------
void Accumulate(const float* g, float* dst, size_t n);     // dst += g
void AccumulateNeg(const float* g, float* dst, size_t n);  // dst -= g
// dst += g * other (elementwise)
void AccumulateMul(const float* g, const float* other, float* dst, size_t n);
void AccumulateScaled(const float* g, float c, float* dst, size_t n);
void AccumulateConst(float g, float* dst, size_t n);  // dst += g
// dbias[j] += sum_r g[r*d+j]; parallel over columns, row order per column.
void AddBiasBackwardBias(const float* g, float* dbias, size_t rows, int d);
void ReluBackward(const float* x, const float* g, float* dx, size_t n);
void GeluBackward(const float* x, const float* g, float* dx, size_t n);
// Tanh/Sigmoid derivatives read the forward *output* y.
void TanhBackward(const float* y, const float* g, float* dx, size_t n);
void SigmoidBackward(const float* y, const float* g, float* dx, size_t n);

// --- Linear algebra ------------------------------------------------------
// What Gemm applies to an output element once its accumulation chain has
// ended — the elementwise op that follows the product, fused into its
// store, with the bits of running that op separately:
//   kScale:    out = chain * scale           (Scale)
//   kBias:     out = chain + bias[j]         (AddBias)
//   kBiasGelu: out = Gelu(chain + bias[j])   (AddBias, then Gelu)
struct GemmEpilogue {
  enum Kind { kNone, kScale, kBias, kBiasGelu };
  Kind kind = kNone;
  float scale = 1.0f;
  const float* bias = nullptr;  // [n] for kBias / kBiasGelu

  static GemmEpilogue Scale(float s) { return {kScale, s, nullptr}; }
  static GemmEpilogue Bias(const float* b) { return {kBias, 1.0f, b}; }
  static GemmEpilogue BiasGelu(const float* b) {
    return {kBiasGelu, 1.0f, b};
  }
};

// Strided GEMM: for i < m, j < n the element out[i*ldo + j] starts from
// its current value, adds a[i*lda + kk] * b[kk*ldb + j] for every kk < k
// with a nonzero a element in ascending kk (the scalar table with a plain
// multiply-add, the SIMD tables with one fma per step), then applies the
// epilogue. Rows are independent: any row partition gives the same bits.
// An all-zero a row leaves its out row untouched by the chain even when b
// holds inf/NaN.
void Gemm(const float* a, size_t lda, const float* b, size_t ldb, float* out,
          size_t ldo, int m, int k, int n, const GemmEpilogue& epilogue);
// da += g * b^T, db += a^T * g (g: m x n).
void MatMulBackwardA(const float* g, const float* b, float* da, int m, int k,
                     int n);
void MatMulBackwardB(const float* a, const float* g, float* db, int m, int k,
                     int n);
void TransposeForward(const float* a, float* out, int m, int n);
void TransposeBackward(const float* g, float* da, int m, int n);

// --- Softmax / layer norm ------------------------------------------------
// In-place softmax over the first `width` (>= 1) entries of `rows` rows
// that start `ld` floats apart; entries past width are neither read nor
// written.
void SoftmaxRows(float* x, size_t ld, int rows, int width);
// y is the forward output (softmax probabilities).
void SoftmaxBackward(const float* y, const float* g, float* dx, size_t rows,
                     int d);
// xhat (n x d) and inv_std (n) are optional saved-for-backward outputs;
// pass nullptr to skip storing them (no-grad forward).
void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float eps, float* out, float* xhat, float* inv_std,
                      int n, int d);
// dgamma[j] += sum_i g*xhat, dbeta[j] += sum_i g; parallel over columns.
void LayerNormBackwardParams(const float* g, const float* xhat, float* dgamma,
                             float* dbeta, int n, int d);
void LayerNormBackwardInput(const float* g, const float* xhat,
                            const float* inv_std, const float* gamma,
                            float* dx, int n, int d);

// --- Reductions ----------------------------------------------------------
float SumForward(const float* x, size_t n);
// out [d] must be zero-filled; x: n x d.
void MeanRowsForward(const float* x, float* out, int n, int d);
void MeanRowsBackward(const float* g, float invn, float* dx, int n, int d);
// argmax [d] is optional (pass nullptr when no backward will run).
void MaxRowsForward(const float* x, float* out, int* argmax, int n, int d);
void MaxRowsBackward(const float* g, const int* argmax, float* dx, int d);
// out [d] must be zero-filled; rows indexes into x (n x d), inv = 1/|rows|.
void MeanRowsSubsetForward(const float* x, const std::vector<int>& rows,
                           float inv, float* out, int d);
void MeanRowsSubsetBackward(const float* g, const std::vector<int>& rows,
                            float inv, float* dx, int d);

// --- Copies (reshape / concat / slice) -----------------------------------
void Copy(const float* src, float* dst, size_t n);
// Copies `rows` rows of `width` floats; src advances by src_stride per row,
// dst by dst_stride.
void CopyRows(const float* src, size_t src_stride, float* dst,
              size_t dst_stride, size_t rows, size_t width);
// dst += g, row by row with independent strides.
void AccumulateRows(const float* g, size_t g_stride, float* dst,
                    size_t dst_stride, size_t rows, size_t width);

// --- Lookup / graph ------------------------------------------------------
// weight: vocab x d; out: |ids| x d. Checks 0 <= id < vocab.
void GatherForward(const float* weight, int vocab, int d,
                   const std::vector<int>& ids, float* out);
// Embedding scatter grouped by destination row (deterministic; see ops.cc).
void GatherBackward(const float* g, const std::vector<int>& ids, int d,
                    float* dweight);
// out (n x d) must be zero-filled: out[dst] += norm[e] * h[src].
void SparseAggregateForward(const float* h, const std::vector<Edge>& edges,
                            const std::vector<float>& norm, float* out, int d);
void SparseAggregateBackward(const float* g, const std::vector<Edge>& edges,
                             const std::vector<float>& norm, float* dh, int d);

// --- Losses --------------------------------------------------------------
// probs (n x c) receives the softmax of each row (needed by backward;
// always written). Returns the mean loss over non-ignored rows and stores
// their count in *valid_out.
float CrossEntropyForward(const float* logits,
                          const std::vector<int>& targets, int ignore_index,
                          int n, int c, float* probs, int* valid_out);
void CrossEntropyBackward(float g, const float* probs,
                          const std::vector<int>& targets, int ignore_index,
                          int n, int c, float* dlogits);
float MseForward(const float* pred, const std::vector<float>& target);
// dpred += g * (pred - target), g pre-scaled by 2/n.
void MseBackward(float g, const float* pred, const std::vector<float>& target,
                 float* dpred);

// --- Dropout -------------------------------------------------------------
// Draws one uniform per element from rng (serial; determinism depends on
// it). mask is optional saved-for-backward output (nullptr skips).
void DropoutForward(const float* x, float p, float scale, Rng& rng,
                    float* out, float* mask, size_t n);
void DropoutBackward(const float* g, const float* mask, float* dx, size_t n);

// --- Batched / masked kernels --------------------------------------------
// Padded batch layout: a batch packs `bsz` examples into [bsz, t, ...] with
// example b valid in rows [0, lengths[b]) and padding above. Every kernel
// here partitions its loops *per example row* — no float ever crosses an
// example boundary — so each valid row is computed by exactly the serial
// loop the single-query kernels run, and results are bitwise-independent
// of batch composition, padded length, and thread count. Pad entries are
// left untouched by forwards (callers hand in zero-filled outputs, same
// contract as Gemm) and skipped by backwards, so pad gradients
// stay exactly zero.

// Backward of the attention scores out[b,i,j] = sum_k a[b,i,k] * bt[b,j,k]
// (i, j < lengths[b]; a, bt: [bsz, t, k], out: [bsz, t, t]):
// da[b,i,:] += g[b,i,:len] * bt[b,:len,:]; dbt[b,j,:] += sum_i g[b,i,j] * a[b,i,:].
void BatchedMatMulNTBackwardA(const float* g, const float* bt, float* da,
                              int bsz, int t, int k, const int* lengths);
void BatchedMatMulNTBackwardB(const float* g, const float* a, float* dbt,
                              int bsz, int t, int k, const int* lengths);

// Backward of the attention-weighted values out[b,i,:] = sum_j w[b,i,j] *
// v[b,j,:] (i, j < lengths[b]; w: [bsz, t, t], v: [bsz, t, dv]).
void BatchedMatMulNNBackwardW(const float* g, const float* v, float* dw,
                              int bsz, int t, int dv, const int* lengths);
void BatchedMatMulNNBackwardV(const float* w, const float* g, float* dv,
                              int bsz, int t, int dv_dim, const int* lengths);

// Backward of the mask-aware softmax over [bsz, t, t] score blocks (valid
// row i of example b normalized over its first lengths[b] entries).
void MaskedSoftmaxBackward(const float* y, const float* g, float* dx,
                           int bsz, int t, const int* lengths);

// Row-masked layer norm over [bsz, t, d]: valid rows run the
// LayerNormForward row body verbatim; pad rows are skipped (out/xhat stay
// zero-filled). xhat/inv_std optional as in LayerNormForward. With a
// `residual` ([bsz, t, d], optional) a valid row normalizes x + residual,
// summed elementwise with AddForward's single add into out first.
void MaskedLayerNormForward(const float* x, const float* residual,
                            const float* gamma, const float* beta, float eps,
                            float* out, float* xhat, float* inv_std, int bsz,
                            int t, int d, const int* lengths);
// dgamma/dbeta reduce over valid rows only, partitioned over columns with
// (example, row) ascending accumulation order per column.
void MaskedLayerNormBackwardParams(const float* g, const float* xhat,
                                   float* dgamma, float* dbeta, int bsz,
                                   int t, int d, const int* lengths);
void MaskedLayerNormBackwardInput(const float* g, const float* xhat,
                                  const float* inv_std, const float* gamma,
                                  float* dx, int bsz, int t, int d,
                                  const int* lengths);

// Masked MLM loss over [bsz, t, c] logits with targets[b*t+i] (pad rows and
// ignore_index rows contribute nothing). Per example: the double-precision
// row-order mean of CrossEntropyForward, cast to float. The scalar
// returned is the float chain sum (((l_0+l_1)+l_2)+...) scaled by 1/bsz —
// the value the per-example Add/Scale tape used to produce. probs
// ([bsz*t, c]) is written for valid rows; valid_out/example_loss get one
// entry per example (example_loss may be nullptr).
float MaskedCrossEntropyForward(const float* logits,
                                const std::vector<int>& targets,
                                int ignore_index, int bsz, int t, int c,
                                const int* lengths, float* probs,
                                std::vector<int>* valid_out,
                                std::vector<float>* example_loss);
// dlogits[row] += g * (1/bsz) / valid[b] * (probs - onehot) per non-ignored
// valid row.
void MaskedCrossEntropyBackward(float g, const float* probs,
                                const std::vector<int>& targets,
                                int ignore_index, int bsz, int t, int c,
                                const int* lengths,
                                const std::vector<int>& valid,
                                float* dlogits);

// Masked dropout over [bsz, t, d] with one independent RNG stream per
// example: example b draws exactly lengths[b]*d uniforms from Rng(seeds[b])
// in row-major order — the same sequence the single-example DropoutForward
// consumes — so valid rows are bitwise-identical to the per-example path.
// Pad rows draw nothing (out/mask stay zero-filled).
void MaskedDropoutForward(const float* x, float p, float scale,
                          const uint64_t* seeds, float* out, float* mask,
                          int bsz, int t, int d, const int* lengths);

}  // namespace kernels
}  // namespace preqr::nn

#endif  // PREQR_NN_KERNELS_H_
