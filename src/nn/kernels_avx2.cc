// AVX2/FMA backend for the hot forward kernels. Compiled with -mavx2 -mfma
// (see src/nn/CMakeLists.txt); selected at runtime by kernels_dispatch.cc
// only when CPUID reports avx2+fma.
//
// Determinism contract (see kernels_dispatch.h): results are bitwise-stable
// across runs, thread counts, and batch compositions *within this backend*.
// Three rules enforce that:
//   1. Rows are independent. Gemm, SoftmaxRows and the layer norms run
//      one shared routine per row, so a row's bits depend only on its own
//      values and its logical width — never on its stride, its neighbors or
//      how the op layer batches and slices the calls.
//   2. Elementwise tails go through the same vector routine as full lanes
//      (copied through a zero-padded stack block), and GEMM tail columns
//      run through masked vector lanes (a vector FMA lane is the correctly
//      rounded fmaf), so an element's bits never depend on its alignment
//      within a buffer.
//   3. Reductions (softmax sum, layer-norm moments) use one fixed
//      horizontal order per row width.
// Bits intentionally differ from the scalar backend (FMA contraction and a
// polynomial exp); cross-impl comparisons belong in tolerance tests.
#if defined(PREQR_HAVE_AVX2)

#include "nn/kernels_avx2.h"

#include <immintrin.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/thread_pool.h"
#include "nn/kernels_avx2_inl.h"

namespace preqr::nn::kernels::avx2 {
namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

// Cephes-style vectorized expf (max error ~1 ulp over the clamped range).
// Inputs are clamped to ±88.376 so the result never overflows to inf; the
// underflow side flushes to +0, which every caller tolerates.
inline __m256 Exp8(__m256 x) {
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-88.3762626647949f)),
                    _mm256_set1_ps(88.3762626647949f));
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  __m256i imm = _mm256_cvttps_epi32(fx);
  imm = _mm256_add_epi32(imm, _mm256_set1_epi32(0x7f));
  imm = _mm256_slli_epi32(imm, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(imm));
}

// tanh via exp(2|x|): saturates to exactly ±1 once 2/(e+1) underflows past
// the float ulp at 1 — the same saturation point std::tanh exhibits.
inline __m256 Tanh8(__m256 x) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 sign = _mm256_and_ps(x, sign_mask);
  const __m256 ax = _mm256_andnot_ps(sign_mask, x);
  const __m256 e = Exp8(_mm256_add_ps(ax, ax));
  const __m256 t = _mm256_sub_ps(
      _mm256_set1_ps(1.0f),
      _mm256_div_ps(_mm256_set1_ps(2.0f),
                    _mm256_add_ps(e, _mm256_set1_ps(1.0f))));
  return _mm256_or_ps(t, sign);
}

inline __m256 Sigmoid8(__m256 x) {
  const __m256 e = Exp8(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(_mm256_set1_ps(1.0f),
                       _mm256_add_ps(e, _mm256_set1_ps(1.0f)));
}

inline __m256 Gelu8(__m256 v) {
  const __m256 v2 = _mm256_mul_ps(v, v);
  const __m256 v3 = _mm256_mul_ps(v2, v);
  const __m256 inner = _mm256_fmadd_ps(_mm256_set1_ps(0.044715f), v3, v);
  const __m256 u = _mm256_mul_ps(_mm256_set1_ps(kGeluC), inner);
  const __m256 t = Tanh8(u);
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), v),
                       _mm256_add_ps(_mm256_set1_ps(1.0f), t));
}

// Applies a lanewise __m256 -> __m256 function over a flat array. The tail
// runs through the *same* vector routine via a zero-padded stack block, so
// an element's bits are a pure function of its value — independent of its
// offset, which differs between the solo [S, d] and batched [B, T, d]
// layouts of the same logical row.
template <typename F>
inline void Map8(const float* x, float* out, size_t n, F f) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, f(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    alignas(32) float buf[8] = {0};
    std::memcpy(buf, x + i, (n - i) * sizeof(float));
    const __m256 r = f(_mm256_load_ps(buf));
    _mm256_store_ps(buf, r);
    std::memcpy(out + i, buf, (n - i) * sizeof(float));
  }
}

inline float HSum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// Columns [j0, j0 + 8 * kVecs) of one GEMM output row, held in kVecs
// accumulators across the whole kk sweep: one zero-skip branch and one
// broadcast per kk feed kVecs independent FMA chains. With kMaskLast the
// last vector covers only the lanes set in `mask` (maskload reads zeros
// elsewhere, maskstore writes only those columns). The epilogue runs on
// the accumulators between the last fma and the store.
template <int kVecs, bool kMaskLast>
inline void GemmRowBlock(const float* arow, const float* b, size_t ldb,
                         float* orow, int k, int j0, __m256i mask,
                         const GemmEpilogue& ep) {
  auto load = [mask](const float* p, int v) {
    if constexpr (kMaskLast) {
      if (v == kVecs - 1) return _mm256_maskload_ps(p + 8 * v, mask);
    }
    return _mm256_loadu_ps(p + 8 * v);
  };
  float* o = orow + j0;
  __m256 acc[kVecs];
#pragma GCC unroll 8
  for (int v = 0; v < kVecs; ++v) acc[v] = load(o, v);
  for (int kk = 0; kk < k; ++kk) {
    const float av = arow[kk];
    if (av == 0.0f) continue;
    const __m256 a8 = _mm256_set1_ps(av);
    const float* brow = b + static_cast<size_t>(kk) * ldb + j0;
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_fmadd_ps(a8, load(brow, v), acc[v]);
    }
  }
  switch (ep.kind) {
    case GemmEpilogue::kNone:
      break;
    case GemmEpilogue::kScale: {
      const __m256 s8 = _mm256_set1_ps(ep.scale);
#pragma GCC unroll 8
      for (int v = 0; v < kVecs; ++v) acc[v] = _mm256_mul_ps(acc[v], s8);
      break;
    }
    case GemmEpilogue::kBias:
#pragma GCC unroll 8
      for (int v = 0; v < kVecs; ++v) {
        acc[v] = _mm256_add_ps(acc[v], load(ep.bias + j0, v));
      }
      break;
    case GemmEpilogue::kBiasGelu:
#pragma GCC unroll 8
      for (int v = 0; v < kVecs; ++v) {
        acc[v] = Gelu8(_mm256_add_ps(acc[v], load(ep.bias + j0, v)));
      }
      break;
  }
#pragma GCC unroll 8
  for (int v = 0; v < kVecs; ++v) {
    if (kMaskLast && v == kVecs - 1) {
      _mm256_maskstore_ps(o + 8 * v, mask, acc[v]);
    } else {
      _mm256_storeu_ps(o + 8 * v, acc[v]);
    }
  }
}

// One GEMM output row: orow[j] = ep(orow[j] + sum_kk arow[kk] * b[kk*ldb +
// j]), j < n. Register-blocked over 64 output columns (8 accumulators),
// then the remaining < 64 columns as one block whose last vector is
// masked, so a row of any width keeps several independent FMA chains per
// kk. Per output element the operation sequence is an fma chain over the
// nonzero kk in ascending order, then the epilogue's lanewise ops — every
// block shape, masked lanes included, runs the identical sequence, and a
// vector FMA lane is the correctly rounded fmaf — so an element's bits
// depend only on (arow, column of b, prior orow value, bias[j]), never on
// n's divisibility or the blocking boundaries. The av == 0.0f skip keeps
// all-zero (pad) rows' chains empty even when b carries inf/NaN garbage.
inline void GemmRow(const float* arow, const float* b, size_t ldb,
                    float* orow, int k, int n, const GemmEpilogue& ep) {
  const __m256i all = _mm256_set1_epi32(-1);
  int j0 = 0;
  for (; j0 + 64 <= n; j0 += 64) {
    GemmRowBlock<8, false>(arow, b, ldb, orow, k, j0, all, ep);
  }
  const int rest = n - j0;
  if (rest == 0) return;
  const __m256i mask =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(rest - 8 * ((rest - 1) / 8)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  switch ((rest + 7) / 8) {
    case 1: GemmRowBlock<1, true>(arow, b, ldb, orow, k, j0, mask, ep); break;
    case 2: GemmRowBlock<2, true>(arow, b, ldb, orow, k, j0, mask, ep); break;
    case 3: GemmRowBlock<3, true>(arow, b, ldb, orow, k, j0, mask, ep); break;
    case 4: GemmRowBlock<4, true>(arow, b, ldb, orow, k, j0, mask, ep); break;
    case 5: GemmRowBlock<5, true>(arow, b, ldb, orow, k, j0, mask, ep); break;
    case 6: GemmRowBlock<6, true>(arow, b, ldb, orow, k, j0, mask, ep); break;
    case 7: GemmRowBlock<7, true>(arow, b, ldb, orow, k, j0, mask, ep); break;
    default: GemmRowBlock<8, true>(arow, b, ldb, orow, k, j0, mask, ep); break;
  }
}

// One in-place softmax row of width d: SoftmaxRowMax, per-element Exp8
// through Map8, then a sequential j-order sum — one fixed reduction order
// per width.
inline void SoftmaxRow(float* o, int d) {
  const __m256 mx8 = _mm256_set1_ps(SoftmaxRowMax(o, d));
  Map8(o, o, static_cast<size_t>(d),
       [mx8](__m256 v) { return Exp8(_mm256_sub_ps(v, mx8)); });
  float sum = 0.0f;
  for (int j = 0; j < d; ++j) sum += o[j];
  const float inv = 1.0f / sum;
  const __m256 inv8 = _mm256_set1_ps(inv);
  int j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(o + j, _mm256_mul_ps(_mm256_loadu_ps(o + j), inv8));
  }
  for (; j < d; ++j) o[j] *= inv;
}

// One layer-norm row of width d. Moments use the fixed 8-lane partial-sum +
// HSum8 + sequential-tail order; the normalization itself is per-element.
// Shared by LayerNormForward and MaskedLayerNormForward.
inline void LayerNormRow(const float* row, const float* gamma,
                         const float* beta, float eps, float* o, float* xh,
                         float* istd_out, int d) {
  const int d8 = d & ~7;
  __m256 acc = _mm256_setzero_ps();
  for (int j = 0; j < d8; j += 8) {
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(row + j));
  }
  float sum = HSum8(acc);
  for (int j = d8; j < d; ++j) sum += row[j];
  const float mean = sum / static_cast<float>(d);
  const __m256 mean8 = _mm256_set1_ps(mean);
  acc = _mm256_setzero_ps();
  for (int j = 0; j < d8; j += 8) {
    const __m256 c = _mm256_sub_ps(_mm256_loadu_ps(row + j), mean8);
    acc = _mm256_fmadd_ps(c, c, acc);
  }
  float var = HSum8(acc);
  for (int j = d8; j < d; ++j) {
    const float c = row[j] - mean;
    var = std::fmaf(c, c, var);
  }
  var /= static_cast<float>(d);
  const float istd = 1.0f / std::sqrt(var + eps);
  if (istd_out != nullptr) *istd_out = istd;
  const __m256 istd8 = _mm256_set1_ps(istd);
  int j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 xv = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(row + j), mean8), istd8);
    if (xh != nullptr) _mm256_storeu_ps(xh + j, xv);
    const __m256 ov = _mm256_add_ps(
        _mm256_mul_ps(xv, _mm256_loadu_ps(gamma + j)),
        _mm256_loadu_ps(beta + j));
    _mm256_storeu_ps(o + j, ov);
  }
  for (; j < d; ++j) {
    const float xv = (row[j] - mean) * istd;
    if (xh != nullptr) xh[j] = xv;
    o[j] = xv * gamma[j] + beta[j];
  }
}

}  // namespace

void Gemm(const float* a, size_t lda, const float* b, size_t ldb, float* out,
          size_t ldo, int m, int k, int n, const GemmEpilogue& epilogue) {
  ParallelFor(0, m, GrainForCost(static_cast<int64_t>(k) * n),
              [&](int64_t r0, int64_t r1) {
                for (int64_t i = r0; i < r1; ++i) {
                  GemmRow(a + static_cast<size_t>(i) * lda, b, ldb,
                          out + static_cast<size_t>(i) * ldo, k, n, epilogue);
                }
              });
}

void AddBiasForward(const float* x, const float* bias, float* out,
                    size_t rows, int d) {
  // Lane-exact: vector add == scalar add per element.
  const int d8 = d & ~7;
  for (size_t r = 0; r < rows; ++r) {
    const float* in = x + r * static_cast<size_t>(d);
    float* row = out + r * static_cast<size_t>(d);
    int j = 0;
    for (; j < d8; j += 8) {
      _mm256_storeu_ps(row + j, _mm256_add_ps(_mm256_loadu_ps(in + j),
                                              _mm256_loadu_ps(bias + j)));
    }
    for (; j < d; ++j) row[j] = in[j] + bias[j];
  }
}

void ReluForward(const float* x, float* out, size_t n) {
  // max(x, +0) matches the scalar x > 0 ? x : 0 for every input incl. -0.
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void GeluForward(const float* x, float* out, size_t n) {
  Map8(x, out, n, [](__m256 v) { return Gelu8(v); });
}

void TanhForward(const float* x, float* out, size_t n) {
  Map8(x, out, n, [](__m256 v) { return Tanh8(v); });
}

void SigmoidForward(const float* x, float* out, size_t n) {
  Map8(x, out, n, [](__m256 v) { return Sigmoid8(v); });
}

void SoftmaxRows(float* x, size_t ld, int rows, int width) {
  ParallelFor(0, rows, GrainForCost(width), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      SoftmaxRow(x + static_cast<size_t>(r) * ld, width);
    }
  });
}

void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float eps, float* out, float* xhat, float* inv_std,
                      int n, int d) {
  ParallelFor(0, n, GrainForCost(d), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      LayerNormRow(x + static_cast<size_t>(i) * d, gamma, beta, eps,
                   out + static_cast<size_t>(i) * d,
                   xhat != nullptr ? xhat + static_cast<size_t>(i) * d
                                   : nullptr,
                   inv_std != nullptr ? inv_std + static_cast<size_t>(i)
                                      : nullptr,
                   d);
    }
  });
}

void MaskedLayerNormForward(const float* x, const float* residual,
                            const float* gamma, const float* beta, float eps,
                            float* out, float* xhat, float* inv_std, int bsz,
                            int t, int d, const int* lengths) {
  const int64_t rows = static_cast<int64_t>(bsz) * t;
  ParallelFor(0, rows, GrainForCost(d), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int b = static_cast<int>(r / t);
      const int i = static_cast<int>(r % t);
      if (i >= lengths[b]) continue;  // pad row: out/xhat stay zero
      const float* row = x + static_cast<size_t>(r) * d;
      if (residual != nullptr) {
        // x + residual lands in out (a vector add is the scalar add lane
        // for lane); LayerNormRow then reads and overwrites it in place.
        float* sum = out + static_cast<size_t>(r) * d;
        const float* y = residual + static_cast<size_t>(r) * d;
        int j = 0;
        for (; j + 8 <= d; j += 8) {
          _mm256_storeu_ps(sum + j, _mm256_add_ps(_mm256_loadu_ps(row + j),
                                                  _mm256_loadu_ps(y + j)));
        }
        for (; j < d; ++j) sum[j] = row[j] + y[j];
        row = sum;
      }
      LayerNormRow(row, gamma, beta, eps,
                   out + static_cast<size_t>(r) * d,
                   xhat != nullptr ? xhat + static_cast<size_t>(r) * d
                                   : nullptr,
                   inv_std != nullptr ? inv_std + static_cast<size_t>(r)
                                      : nullptr,
                   d);
    }
  });
}

}  // namespace preqr::nn::kernels::avx2

#endif  // PREQR_HAVE_AVX2
