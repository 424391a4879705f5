// AVX-512F backend for the GEMM, softmax and GELU forward kernels. Compiled
// with -mavx512f -mavx2 -mfma (see src/nn/CMakeLists.txt); selected at
// runtime by kernels_dispatch.cc only when CPUID reports avx512f (plus the
// avx2+fma the rest of its table needs).
//
// Contract (see kernels_dispatch.h): every entry is bitwise identical to
// its avx2 counterpart for every input, so the avx512 table inherits the
// avx2 determinism contract and the avx2 golden pins unchanged. What
// changes is only how many independent chains run at once:
//   * GEMM. Blocks of 4 output rows x up to 4 zmm (64 columns), or 8 rows
//     x 1 zmm when n <= 16. Each B row is loaded once per kk and shared by
//     the block's rows; tails are __mmask16 lanes. Every output element
//     still runs the avx2 chain: start from `out`, then one fma per
//     nonzero a[i, kk] in ascending kk, then the epilogue's lanewise
//     scale / bias / GELU ops. The avx2
//     per-row `av == 0.0f` skip becomes a per-row NEQ_UQ compare mask on
//     the fma, so -0.0 is skipped and NaN is not, exactly as there.
//   * Softmax and GELU. Each lane runs Exp8/Gelu8's instruction sequence
//     16 wide. The softmax row max is avx2's own SoftmaxRowMax (max is
//     order-sensitive for NaN), and the row sum keeps its sequential j
//     order; 8 equal-width rows are summed interleaved, so 8 add chains
//     overlap instead of one.
// A row's bits never depend on which rows share its block, so results stay
// bitwise-stable across thread counts and batch compositions.
#if defined(PREQR_HAVE_AVX512)

#include "nn/kernels_avx512.h"

// GCC 12's AVX-512 intrinsics (max/min/roundscale/cvtt/slli) seed their
// result with a self-initialised "undefined" vector, which trips a false
// -Wmaybe-uninitialized (GCC bug 105593, fixed in GCC 13).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <cstdint>

#include "common/thread_pool.h"
#include "nn/kernels_avx2_inl.h"

namespace preqr::nn::kernels::avx512 {
namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
// Output rows per GEMM block: 4, or 8 when the output is one zmm wide
// (n <= 16, the attention's head-width AV product), where each row is a
// single fma chain and 8 chains hide the fma latency that 4 cannot.
// Softmax rows go 8 at a time so 8 sequential sum chains overlap.
constexpr int kRowBlock = 4;
constexpr int kNarrowRowBlock = 8;
constexpr int kSoftmaxRowBlock = 8;

// Lanes [0, n) of a 16-lane vector, n in [1, 16].
inline __mmask16 LaneMask(int n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}

// avx2's Exp8, lane for lane: the same clamp, Cephes reduction, polynomial
// and exponent splice, in the same order.
inline __m512 Exp16(__m512 x) {
  x = _mm512_min_ps(_mm512_max_ps(x, _mm512_set1_ps(-88.3762626647949f)),
                    _mm512_set1_ps(88.3762626647949f));
  __m512 fx = _mm512_fmadd_ps(x, _mm512_set1_ps(1.44269504088896341f),
                              _mm512_set1_ps(0.5f));
  fx = _mm512_roundscale_ps(fx, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(0.693359375f), x);
  x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(-2.12194440e-4f), x);
  const __m512 z = _mm512_mul_ps(x, x);
  __m512 y = _mm512_set1_ps(1.9875691500e-4f);
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.3981999507e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(8.3334519073e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(4.1665795894e-2f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.6666665459e-1f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(5.0000001201e-1f));
  y = _mm512_fmadd_ps(y, z, x);
  y = _mm512_add_ps(y, _mm512_set1_ps(1.0f));
  __m512i imm = _mm512_cvttps_epi32(fx);
  imm = _mm512_add_epi32(imm, _mm512_set1_epi32(0x7f));
  imm = _mm512_slli_epi32(imm, 23);
  return _mm512_mul_ps(y, _mm512_castsi512_ps(imm));
}

// avx2's Tanh8. AVX-512F has no float bitwise ops, so the sign is split
// off and restored through the integer domain (same bits).
inline __m512 Tanh16(__m512 x) {
  const __m512i sign_mask = _mm512_set1_epi32(INT32_MIN);
  const __m512i xi = _mm512_castps_si512(x);
  const __m512i sign = _mm512_and_si512(xi, sign_mask);
  const __m512 ax = _mm512_castsi512_ps(_mm512_andnot_si512(sign_mask, xi));
  const __m512 e = Exp16(_mm512_add_ps(ax, ax));
  const __m512 t = _mm512_sub_ps(
      _mm512_set1_ps(1.0f),
      _mm512_div_ps(_mm512_set1_ps(2.0f),
                    _mm512_add_ps(e, _mm512_set1_ps(1.0f))));
  return _mm512_castsi512_ps(_mm512_or_si512(_mm512_castps_si512(t), sign));
}

// avx2's Gelu8.
inline __m512 Gelu16(__m512 v) {
  const __m512 v2 = _mm512_mul_ps(v, v);
  const __m512 v3 = _mm512_mul_ps(v2, v);
  const __m512 inner = _mm512_fmadd_ps(_mm512_set1_ps(0.044715f), v3, v);
  const __m512 u = _mm512_mul_ps(_mm512_set1_ps(kGeluC), inner);
  const __m512 t = Tanh16(u);
  return _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(0.5f), v),
                       _mm512_add_ps(_mm512_set1_ps(1.0f), t));
}

// Applies a lanewise __m512 -> __m512 function over a flat array; the tail
// is one masked vector (masked-off lanes load zeros and are never stored).
template <typename F>
inline void Map16(const float* x, float* out, size_t n, F f) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, f(_mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 m = LaneMask(static_cast<int>(n - i));
    _mm512_mask_storeu_ps(out + i, m, f(_mm512_maskz_loadu_ps(m, x + i)));
  }
}

// --- GEMM ------------------------------------------------------------------

// out[r, j] = ep(out[r, j] + sum_kk a[r, kk] * b[kk, j]) for kRows rows and
// the 16 * kVecs columns starting at b / out; the last vector covers only
// the lanes set in `last`. Per kk: kVecs B loads shared by all rows, then
// per row one broadcast, one zero-skip mask and kVecs masked fmas. The
// epilogue runs on the accumulators before the store, with avx2's lanewise
// ops (bias lanes past `last` load as zeros and are never stored).
template <int kRows, int kVecs>
inline void GemmBlock(const float* a, size_t lda, const float* b, size_t ldb,
                      float* out, size_t ldo, int k, __mmask16 last,
                      const GemmEpilogue& ep) {
  auto load = [last](const float* p, int v) {
    return v == kVecs - 1 ? _mm512_maskz_loadu_ps(last, p + 16 * v)
                          : _mm512_loadu_ps(p + 16 * v);
  };
  __m512 acc[kRows][kVecs];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) acc[r][v] = load(out + r * ldo, v);
  }
  const __m512 zero = _mm512_setzero_ps();
  for (int kk = 0; kk < k; ++kk) {
    const float* brow = b + static_cast<size_t>(kk) * ldb;
    __m512 bv[kVecs];
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) bv[v] = load(brow, v);
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const __m512 a16 = _mm512_set1_ps(a[r * lda + kk]);
      const __mmask16 nz = _mm512_cmp_ps_mask(a16, zero, _CMP_NEQ_UQ);
#pragma GCC unroll 8
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm512_mask3_fmadd_ps(a16, bv[v], acc[r][v], nz);
      }
    }
  }
  switch (ep.kind) {
    case GemmEpilogue::kNone:
      break;
    case GemmEpilogue::kScale: {
      const __m512 s16 = _mm512_set1_ps(ep.scale);
#pragma GCC unroll 8
      for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 8
        for (int v = 0; v < kVecs; ++v) {
          acc[r][v] = _mm512_mul_ps(acc[r][v], s16);
        }
      }
      break;
    }
    case GemmEpilogue::kBias:
#pragma GCC unroll 8
      for (int v = 0; v < kVecs; ++v) {
        const __m512 bias = load(ep.bias, v);
#pragma GCC unroll 8
        for (int r = 0; r < kRows; ++r) {
          acc[r][v] = _mm512_add_ps(acc[r][v], bias);
        }
      }
      break;
    case GemmEpilogue::kBiasGelu:
#pragma GCC unroll 8
      for (int v = 0; v < kVecs; ++v) {
        const __m512 bias = load(ep.bias, v);
#pragma GCC unroll 8
        for (int r = 0; r < kRows; ++r) {
          acc[r][v] = Gelu16(_mm512_add_ps(acc[r][v], bias));
        }
      }
      break;
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      float* o = out + r * ldo + 16 * v;
      if (v == kVecs - 1) {
        _mm512_mask_storeu_ps(o, last, acc[r][v]);
      } else {
        _mm512_storeu_ps(o, acc[r][v]);
      }
    }
  }
}

// kRows full output rows: 64-column blocks, then the remaining < 64
// columns as one block whose last vector is masked.
template <int kRows>
inline void GemmRows(const float* a, size_t lda, const float* b, size_t ldb,
                     float* out, size_t ldo, int k, int n,
                     const GemmEpilogue& ep) {
  GemmEpilogue blk = ep;
  int j0 = 0;
  for (; j0 + 64 <= n; j0 += 64) {
    if (ep.bias != nullptr) blk.bias = ep.bias + j0;
    GemmBlock<kRows, 4>(a, lda, b + j0, ldb, out + j0, ldo, k, 0xFFFF, blk);
  }
  const int rest = n - j0;
  if (rest == 0) return;
  const __mmask16 last = LaneMask(rest - 16 * ((rest - 1) / 16));
  if (ep.bias != nullptr) blk.bias = ep.bias + j0;
  b += j0;
  out += j0;
  switch ((rest + 15) / 16) {
    case 1: GemmBlock<kRows, 1>(a, lda, b, ldb, out, ldo, k, last, blk); break;
    case 2: GemmBlock<kRows, 2>(a, lda, b, ldb, out, ldo, k, last, blk); break;
    case 3: GemmBlock<kRows, 3>(a, lda, b, ldb, out, ldo, k, last, blk); break;
    default: GemmBlock<kRows, 4>(a, lda, b, ldb, out, ldo, k, last, blk); break;
  }
}

// Output rows [0, rows) of out = ep(out + a * b), rows in [1, kRowBlock];
// a is [rows, k] with row stride lda, b is [k, n] with row stride ldb.
inline void GemmRowBlock(const float* a, size_t lda, const float* b,
                         size_t ldb, float* out, size_t ldo, int rows, int k,
                         int n, const GemmEpilogue& ep) {
  switch (rows) {
    case 1: GemmRows<1>(a, lda, b, ldb, out, ldo, k, n, ep); break;
    case 2: GemmRows<2>(a, lda, b, ldb, out, ldo, k, n, ep); break;
    case 3: GemmRows<3>(a, lda, b, ldb, out, ldo, k, n, ep); break;
    default: GemmRows<4>(a, lda, b, ldb, out, ldo, k, n, ep); break;
  }
}

// The same for n <= 16 (one masked zmm per row), rows in
// [1, kNarrowRowBlock].
inline void GemmNarrowRowBlock(const float* a, size_t lda, const float* b,
                               size_t ldb, float* out, size_t ldo, int rows,
                               int k, int n, const GemmEpilogue& ep) {
  const __mmask16 last = LaneMask(n);
  switch (rows) {
    case 1: GemmBlock<1, 1>(a, lda, b, ldb, out, ldo, k, last, ep); break;
    case 2: GemmBlock<2, 1>(a, lda, b, ldb, out, ldo, k, last, ep); break;
    case 3: GemmBlock<3, 1>(a, lda, b, ldb, out, ldo, k, last, ep); break;
    case 4: GemmBlock<4, 1>(a, lda, b, ldb, out, ldo, k, last, ep); break;
    case 5: GemmBlock<5, 1>(a, lda, b, ldb, out, ldo, k, last, ep); break;
    case 6: GemmBlock<6, 1>(a, lda, b, ldb, out, ldo, k, last, ep); break;
    case 7: GemmBlock<7, 1>(a, lda, b, ldb, out, ldo, k, last, ep); break;
    default: GemmBlock<8, 1>(a, lda, b, ldb, out, ldo, k, last, ep); break;
  }
}

// Rows in the block starting at row i0 of `len` rows, blocks of `block`.
inline int BlockRows(int len, int i0, int block) {
  return len - i0 < block ? len - i0 : block;
}

inline int NumBlocks(int rows, int block) {
  return (rows + block - 1) / block;
}

// --- Softmax -----------------------------------------------------------------

// kRows in-place softmax rows of width d, `stride` floats apart. Per row:
// the shared SoftmaxRowMax, then exp(x - max) 16 wide. Then the kRows sums
// advance together in ascending j (one sequential add chain per row), and
// each row is scaled by its 1 / sum.
template <int kRows>
inline void SoftmaxRowsBlock(float* o, size_t stride, int d) {
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    const __m512 mx16 = _mm512_set1_ps(SoftmaxRowMax(o + r * stride, d));
    Map16(o + r * stride, o + r * stride, static_cast<size_t>(d),
          [mx16](__m512 v) { return Exp16(_mm512_sub_ps(v, mx16)); });
  }
  float sum[kRows];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) sum[r] = 0.0f;
  for (int j = 0; j < d; ++j) {
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) sum[r] += o[r * stride + j];
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    const __m512 inv16 = _mm512_set1_ps(1.0f / sum[r]);
    Map16(o + r * stride, o + r * stride, static_cast<size_t>(d),
          [inv16](__m512 v) { return _mm512_mul_ps(v, inv16); });
  }
}

inline void SoftmaxRowBlock(float* o, size_t stride, int d, int rows) {
  switch (rows) {
    case 1: SoftmaxRowsBlock<1>(o, stride, d); break;
    case 2: SoftmaxRowsBlock<2>(o, stride, d); break;
    case 3: SoftmaxRowsBlock<3>(o, stride, d); break;
    case 4: SoftmaxRowsBlock<4>(o, stride, d); break;
    case 5: SoftmaxRowsBlock<5>(o, stride, d); break;
    case 6: SoftmaxRowsBlock<6>(o, stride, d); break;
    case 7: SoftmaxRowsBlock<7>(o, stride, d); break;
    default: SoftmaxRowsBlock<8>(o, stride, d); break;
  }
}

}  // namespace

void Gemm(const float* a, size_t lda, const float* b, size_t ldb, float* out,
          size_t ldo, int m, int k, int n, const GemmEpilogue& epilogue) {
  const bool narrow = n <= 16;
  const int block = narrow ? kNarrowRowBlock : kRowBlock;
  ParallelFor(0, NumBlocks(m, block),
              GrainForCost(static_cast<int64_t>(block) * k * n),
              [&](int64_t b0, int64_t b1) {
                for (int64_t blk = b0; blk < b1; ++blk) {
                  const int i0 = static_cast<int>(blk) * block;
                  const float* ab = a + static_cast<size_t>(i0) * lda;
                  float* ob = out + static_cast<size_t>(i0) * ldo;
                  const int rows = BlockRows(m, i0, block);
                  if (narrow) {
                    GemmNarrowRowBlock(ab, lda, b, ldb, ob, ldo, rows, k, n,
                                       epilogue);
                  } else {
                    GemmRowBlock(ab, lda, b, ldb, ob, ldo, rows, k, n,
                                 epilogue);
                  }
                }
              });
}

void GeluForward(const float* x, float* out, size_t n) {
  Map16(x, out, n, [](__m512 v) { return Gelu16(v); });
}

void SoftmaxRows(float* x, size_t ld, int rows, int width) {
  ParallelFor(0, NumBlocks(rows, kSoftmaxRowBlock),
              GrainForCost(static_cast<int64_t>(kSoftmaxRowBlock) * width),
              [&](int64_t b0, int64_t b1) {
                for (int64_t blk = b0; blk < b1; ++blk) {
                  const int i0 = static_cast<int>(blk) * kSoftmaxRowBlock;
                  SoftmaxRowBlock(x + static_cast<size_t>(i0) * ld, ld, width,
                                  BlockRows(rows, i0, kSoftmaxRowBlock));
                }
              });
}

}  // namespace preqr::nn::kernels::avx512

#endif  // PREQR_HAVE_AVX512
