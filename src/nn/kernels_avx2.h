#ifndef PREQR_NN_KERNELS_AVX2_H_
#define PREQR_NN_KERNELS_AVX2_H_

#include <cstddef>

#include "nn/kernels.h"  // GemmEpilogue

// Declarations for the AVX2/FMA kernel backend. Definitions live in
// kernels_avx2.cc, which is compiled with -mavx2 -mfma only when CMake's
// toolchain check passes (PREQR_HAVE_AVX2); callers must gate on
// kernels::Avx2Supported() before invoking any of these.
namespace preqr::nn::kernels::avx2 {

void Gemm(const float* a, size_t lda, const float* b, size_t ldb, float* out,
          size_t ldo, int m, int k, int n, const GemmEpilogue& epilogue);
void AddBiasForward(const float* x, const float* bias, float* out,
                    size_t rows, int d);
void ReluForward(const float* x, float* out, size_t n);
void GeluForward(const float* x, float* out, size_t n);
void TanhForward(const float* x, float* out, size_t n);
void SigmoidForward(const float* x, float* out, size_t n);
void SoftmaxRows(float* x, size_t ld, int rows, int width);
void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float eps, float* out, float* xhat, float* inv_std,
                      int n, int d);
void MaskedLayerNormForward(const float* x, const float* residual,
                            const float* gamma, const float* beta, float eps,
                            float* out, float* xhat, float* inv_std, int bsz,
                            int t, int d, const int* lengths);

}  // namespace preqr::nn::kernels::avx2

#endif  // PREQR_NN_KERNELS_AVX2_H_
