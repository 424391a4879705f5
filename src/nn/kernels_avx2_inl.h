#ifndef PREQR_NN_KERNELS_AVX2_INL_H_
#define PREQR_NN_KERNELS_AVX2_INL_H_

// Row helpers shared by the avx2 and avx512 backends, whose contract is
// the same bits (kernels_dispatch.h). Include only from kernels_avx2.cc
// and kernels_avx512.cc, which are compiled with at least -mavx2. The
// helpers have internal linkage on purpose: each backend compiles its own
// copy under its own target flags, so the linker can never hand the avx2
// backend an AVX-512-encoded copy.

#include <immintrin.h>

namespace preqr::nn::kernels {
namespace {

inline float HMax8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_max_ps(lo, hi);
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// The max of a softmax row of width d >= 1 in one fixed order: an 8-wide
// running max, HMax8, then a sequential tail. Max is order-sensitive for
// NaN, so this order is part of both backends' softmax bits.
inline float SoftmaxRowMax(const float* in, int d) {
  float mx;
  if (d >= 8) {
    __m256 m8 = _mm256_loadu_ps(in);
    int j = 8;
    for (; j + 8 <= d; j += 8) {
      m8 = _mm256_max_ps(m8, _mm256_loadu_ps(in + j));
    }
    mx = HMax8(m8);
    for (; j < d; ++j) mx = mx < in[j] ? in[j] : mx;
  } else {
    mx = in[0];
    for (int j = 1; j < d; ++j) mx = mx < in[j] ? in[j] : mx;
  }
  return mx;
}

}  // namespace
}  // namespace preqr::nn::kernels

#endif  // PREQR_NN_KERNELS_AVX2_INL_H_
