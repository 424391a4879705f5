#ifndef PREQR_NN_KERNELS_DISPATCH_H_
#define PREQR_NN_KERNELS_DISPATCH_H_

#include <cstddef>

#include "nn/kernels.h"  // GemmEpilogue

namespace preqr::nn::kernels {

// Runtime dispatch over the hot *forward* compute kernels. Exactly the
// kernels that dominate the no-grad encode path have more than one
// implementation: the portable scalar loops in kernels.cc (the mandatory
// fallback, bitwise-identical to the pre-dispatch code), the AVX2/FMA
// backend in kernels_avx2.cc (compiled only when the toolchain supports
// -mavx2 -mfma, selected only when CPUID reports both), and the AVX-512F
// backend in kernels_avx512.cc (compiled when the toolchain also takes
// -mavx512f, selected only when CPUID reports avx512f as well).
//
// Every backward kernel stays scalar and is called directly — training,
// exact checkpoint resume, and the pinned grad-path determinism tests never
// see a SIMD float. Forward dispatch is grad-agnostic (the tape-on forward
// uses the same table), which keeps the grad-on/grad-off bitwise pin intact
// because both sides of that comparison run under one implementation.
//
// Determinism contract per implementation:
//   * scalar — bitwise-identical to the historical kernels at any thread
//     count and batch composition (unchanged code).
//   * avx2 — bitwise-stable across runs, thread counts, and batch
//     compositions *under avx2*: Gemm, SoftmaxRows and the layer norms run
//     one routine per row whatever the strides, and elementwise tails run
//     through the same vector routine as full lanes, so a row's bits depend
//     only on its own values. Scalar and avx2
//     *differ* from each other in float low bits (FMA contraction and a
//     polynomial exp); mixed-impl comparisons get tolerances, same-impl
//     comparisons stay memcmp-exact.
//   * avx512 — bitwise identical to avx2 for every input. Its GEMM,
//     softmax and GELU run each element's avx2 operation sequence 16 lanes
//     and 4 or 8 rows at a time; every other entry is the avx2 one. So the
//     avx2 contract and golden pins carry over unchanged.
// Gemm's epilogue (kernels.h) is part of the contract: under every table,
// Gemm with an epilogue returns exactly the bits of Gemm without one
// followed by that table's separate Scale / AddBias / Gelu pass.
struct KernelTable {
  const char* name;
  void (*Gemm)(const float* a, size_t lda, const float* b, size_t ldb,
               float* out, size_t ldo, int m, int k, int n,
               const GemmEpilogue& epilogue);
  void (*AddBiasForward)(const float* x, const float* bias, float* out,
                         size_t rows, int d);
  void (*ReluForward)(const float* x, float* out, size_t n);
  void (*GeluForward)(const float* x, float* out, size_t n);
  void (*TanhForward)(const float* x, float* out, size_t n);
  void (*SigmoidForward)(const float* x, float* out, size_t n);
  void (*SoftmaxRows)(float* x, size_t ld, int rows, int width);
  void (*LayerNormForward)(const float* x, const float* gamma,
                           const float* beta, float eps, float* out,
                           float* xhat, float* inv_std, int n, int d);
  void (*MaskedLayerNormForward)(const float* x, const float* residual,
                                 const float* gamma, const float* beta,
                                 float eps, float* out, float* xhat,
                                 float* inv_std, int bsz, int t, int d,
                                 const int* lengths);
};

// The candidate tables. Avx2Table() is null when the backend was not
// compiled in (PREQR_ENABLE_AVX2=OFF or no toolchain support) or the CPU
// lacks avx2/fma; Avx512Table() is null likewise, or when the CPU also
// lacks avx512f.
const KernelTable& ScalarTable();
const KernelTable* Avx2Table();
const KernelTable* Avx512Table();

// True when the AVX2 backend is compiled in AND the CPU reports avx2+fma.
bool Avx2Supported();
// True when the AVX-512 backend is compiled in AND the CPU reports
// avx512f+avx2+fma.
bool Avx512Supported();

// The active table. First use selects via
// PREQR_KERNEL_IMPL=scalar|avx2|avx512 (an unsupported request falls back
// with a stderr note: avx2 to scalar, avx512 to the best supported table),
// else CPUID: avx512, then avx2, then scalar.
const KernelTable& Active();
const char* ActiveImplName();

// Test/bench hook: re-point the active table by name ("scalar" | "avx2" |
// "avx512").
// Returns false (and leaves the table alone) for an unknown or unsupported
// name. Not safe to call while kernels are executing on other threads.
bool SetActiveImpl(const char* name);

}  // namespace preqr::nn::kernels

#endif  // PREQR_NN_KERNELS_DISPATCH_H_
