#include "nn/kernels_dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "nn/kernels.h"
#if defined(PREQR_HAVE_AVX2)
#include "nn/kernels_avx2.h"
#endif
#if defined(PREQR_HAVE_AVX512)
#include "nn/kernels_avx512.h"
#endif

namespace preqr::nn::kernels {
namespace {

const KernelTable kScalarTable = {
    "scalar",
    &Gemm,
    &AddBiasForward,
    &ReluForward,
    &GeluForward,
    &TanhForward,
    &SigmoidForward,
    &SoftmaxRows,
    &LayerNormForward,
    &MaskedLayerNormForward,
};

#if defined(PREQR_HAVE_AVX2)
const KernelTable kAvx2Table = {
    "avx2",
    &avx2::Gemm,
    &avx2::AddBiasForward,
    &avx2::ReluForward,
    &avx2::GeluForward,
    &avx2::TanhForward,
    &avx2::SigmoidForward,
    &avx2::SoftmaxRows,
    &avx2::LayerNormForward,
    &avx2::MaskedLayerNormForward,
};
#endif

#if defined(PREQR_HAVE_AVX512)
// Bitwise identical to kAvx2Table for every input: the GEMM, softmax and
// GELU entries are 16-lane, 4-row-blocked versions of the same per-element
// operation sequences; every other entry is the avx2 one.
const KernelTable kAvx512Table = {
    "avx512",
    &avx512::Gemm,
    &avx2::AddBiasForward,
    &avx2::ReluForward,
    &avx512::GeluForward,
    &avx2::TanhForward,
    &avx2::SigmoidForward,
    &avx512::SoftmaxRows,
    &avx2::LayerNormForward,
    &avx2::MaskedLayerNormForward,
};
#endif

bool CpuHasAvx2Fma() {
#if defined(PREQR_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

#if defined(PREQR_HAVE_AVX512)
bool CpuHasAvx512f() {
#if defined(__GNUC__) || defined(__clang__)
  return CpuHasAvx2Fma() && __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}
#endif

// The fastest table this build and CPU support: avx512, then avx2, then
// scalar.
const KernelTable* BestTable() {
  if (const KernelTable* t = Avx512Table()) return t;
  if (const KernelTable* t = Avx2Table()) return t;
  return &kScalarTable;
}

const KernelTable* SelectAtStartup() {
  const char* env = std::getenv("PREQR_KERNEL_IMPL");
  if (env != nullptr && *env != '\0') {
    if (std::strcmp(env, "scalar") == 0) return &kScalarTable;
    if (std::strcmp(env, "avx2") == 0) {
      if (const KernelTable* t = Avx2Table()) return t;
      std::fprintf(stderr,
                   "[kernels] PREQR_KERNEL_IMPL=avx2 requested but the AVX2 "
                   "backend is unavailable; falling back to scalar\n");
      return &kScalarTable;
    }
    if (std::strcmp(env, "avx512") == 0) {
      if (const KernelTable* t = Avx512Table()) return t;
      const KernelTable* t = BestTable();
      std::fprintf(stderr,
                   "[kernels] PREQR_KERNEL_IMPL=avx512 requested but the "
                   "AVX-512 backend is unavailable; falling back to %s\n",
                   t->name);
      return t;
    }
    std::fprintf(stderr,
                 "[kernels] unknown PREQR_KERNEL_IMPL='%s' (want "
                 "scalar|avx2|avx512); using the CPUID default\n",
                 env);
  }
  return BestTable();
}

std::atomic<const KernelTable*>& ActiveSlot() {
  static std::atomic<const KernelTable*> slot{SelectAtStartup()};
  return slot;
}

}  // namespace

const KernelTable& ScalarTable() { return kScalarTable; }

const KernelTable* Avx2Table() {
#if defined(PREQR_HAVE_AVX2)
  static const bool supported = CpuHasAvx2Fma();
  return supported ? &kAvx2Table : nullptr;
#else
  return nullptr;
#endif
}

bool Avx2Supported() { return Avx2Table() != nullptr; }

const KernelTable* Avx512Table() {
#if defined(PREQR_HAVE_AVX512)
  static const bool supported = CpuHasAvx512f();
  return supported ? &kAvx512Table : nullptr;
#else
  return nullptr;
#endif
}

bool Avx512Supported() { return Avx512Table() != nullptr; }

const KernelTable& Active() {
  return *ActiveSlot().load(std::memory_order_relaxed);
}

const char* ActiveImplName() { return Active().name; }

bool SetActiveImpl(const char* name) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    ActiveSlot().store(&kScalarTable, std::memory_order_relaxed);
    return true;
  }
  const KernelTable* t = nullptr;
  if (std::strcmp(name, "avx2") == 0) t = Avx2Table();
  if (std::strcmp(name, "avx512") == 0) t = Avx512Table();
  if (t == nullptr) return false;
  ActiveSlot().store(t, std::memory_order_relaxed);
  return true;
}

}  // namespace preqr::nn::kernels
