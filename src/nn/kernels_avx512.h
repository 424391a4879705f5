#ifndef PREQR_NN_KERNELS_AVX512_H_
#define PREQR_NN_KERNELS_AVX512_H_

#include <cstddef>

#include "nn/kernels.h"  // GemmEpilogue

// Declarations for the AVX-512F kernel backend. Definitions live in
// kernels_avx512.cc, which is compiled with -mavx512f -mavx2 -mfma only when
// CMake's toolchain check passes (PREQR_HAVE_AVX512); callers must gate on
// kernels::Avx512Supported() before invoking any of these. Only the GEMM,
// softmax and GELU entries have an AVX-512 body; the avx512 table points
// every other entry at the avx2 backend.
namespace preqr::nn::kernels::avx512 {

void Gemm(const float* a, size_t lda, const float* b, size_t ldb, float* out,
          size_t ldo, int m, int k, int n, const GemmEpilogue& epilogue);
void GeluForward(const float* x, float* out, size_t n);
void SoftmaxRows(float* x, size_t ld, int rows, int width);

}  // namespace preqr::nn::kernels::avx512

#endif  // PREQR_NN_KERNELS_AVX512_H_
