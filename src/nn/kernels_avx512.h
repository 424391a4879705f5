#ifndef PREQR_NN_KERNELS_AVX512_H_
#define PREQR_NN_KERNELS_AVX512_H_

#include <cstddef>

// Declarations for the AVX-512F kernel backend. Definitions live in
// kernels_avx512.cc, which is compiled with -mavx512f -mavx2 -mfma only when
// CMake's toolchain check passes (PREQR_HAVE_AVX512); callers must gate on
// kernels::Avx512Supported() before invoking any of these. Only the GEMM,
// softmax and GELU entries have an AVX-512 body; the avx512 table points
// every other entry at the avx2 backend.
namespace preqr::nn::kernels::avx512 {

void MatMulForward(const float* a, const float* b, float* out, int m, int k,
                   int n);
void GeluForward(const float* x, float* out, size_t n);
void SoftmaxForward(const float* x, float* out, size_t rows, int d);
void BatchedMatMulNTForward(const float* a, const float* bt, float* out,
                            int bsz, int t, int k, const int* lengths);
void BatchedMatMulNNForward(const float* w, const float* v, float* out,
                            int bsz, int t, int dv, const int* lengths);
void MaskedSoftmaxForward(const float* x, float* out, int bsz, int t,
                          const int* lengths);

}  // namespace preqr::nn::kernels::avx512

#endif  // PREQR_NN_KERNELS_AVX512_H_
