// Parity of the fused forward ops against the ops they replace, under every
// kernel table and at 1, 2 and 8 pool threads:
//   * Gemm with each epilogue over strided operands = an independent chain
//     reference (plain multiply-add for scalar, fmaf for the SIMD tables)
//     followed by that table's separate Scale / AddBias / Gelu pass;
//   * SoftmaxRows over strided rows = the dense softmax of each row;
//   * Affine (bias, bias+GELU) = AddBias(MatMul) (then Gelu);
//   * MaskedAddLayerNorm = MaskedLayerNorm(Add);
//   * Attention, self and shared-key = the per-head Slice / BatchedMatMulNT
//     (MatMul) / Scale / (Masked)Softmax / BatchedMatMulNN (MatMul) /
//     ConcatLastDim composition;
// all memcmp-equal on valid rows, with exactly-zero pad rows, and with the
// tape on the input and parameter gradients memcmp-equal too. Lengths
// cover {0, 1, 3, 4, 5, T}; pad rows carry NaN wherever the composed
// reference never reads them.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/kernels.h"
#include "nn/kernels_dispatch.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace preqr::nn {
namespace {

using kernels::GemmEpilogue;
using kernels::KernelTable;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

std::vector<float> RandVec(size_t n, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = scale * (rng.NextFloat() * 2.0f - 1.0f);
  return v;
}

// ~40% exact zeros, some of them -0.0 (the GEMM skips both).
std::vector<float> SparseVec(size_t n, uint64_t seed, float scale = 1.0f) {
  auto v = RandVec(n, seed, scale);
  for (size_t i = 0; i < v.size(); i += 3) v[i] = 0.0f;
  for (size_t i = 1; i < v.size(); i += 11) v[i] = -0.0f;
  return v;
}

bool SameBits(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && SameBits(a.data(), b.data(), a.size());
}

bool AllPositiveZero(const float* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::memcmp(p + i, "\0\0\0\0", sizeof(float)) != 0) return false;
  }
  return true;
}

// Every table this host can run, forced in turn (only the one named by
// PREQR_KERNEL_IMPL when that is set, so a per-impl CI loop checks one
// table per run); restores the entry table and the default pool size
// afterwards.
class FusedForwardParityTest : public ::testing::Test {
 protected:
  void SetUp() override { entry_ = kernels::ActiveImplName(); }
  void TearDown() override {
    kernels::SetActiveImpl(entry_);
    ThreadPool::SetGlobalThreads(0);
  }

  static void ForEachTableAndThreads(const std::function<void()>& body) {
    const char* forced = std::getenv("PREQR_KERNEL_IMPL");
    for (const char* impl : {"scalar", "avx2", "avx512"}) {
      if (forced != nullptr && *forced != '\0' &&
          std::strcmp(forced, impl) != 0) {
        continue;
      }
      if (!kernels::SetActiveImpl(impl)) continue;
      for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(std::string(impl) + " threads=" +
                     std::to_string(threads));
        ThreadPool::SetGlobalThreads(threads);
        body();
      }
    }
  }

 private:
  const char* entry_ = "scalar";
};

// --- Gemm ----------------------------------------------------------------

// out = chain(out, a, b) then the epilogue as the table's separate ops.
std::vector<float> GemmReference(const KernelTable& tab, const float* a,
                                 size_t lda, const float* b, size_t ldb,
                                 std::vector<float> out, size_t ldo, int m,
                                 int k, int n, const GemmEpilogue& ep) {
  const bool fma = std::strcmp(tab.name, "scalar") != 0;
  for (int i = 0; i < m; ++i) {
    float* o = out.data() + size_t(i) * ldo;
    for (int j = 0; j < n; ++j) {
      float acc = o[j];
      for (int kk = 0; kk < k; ++kk) {
        const float av = a[size_t(i) * lda + kk];
        if (av == 0.0f) continue;
        const float bv = b[size_t(kk) * ldb + j];
        if (fma) {
          acc = std::fmaf(av, bv, acc);
        } else {
          const float prod = av * bv;  // no contraction: two roundings
          acc = acc + prod;
        }
      }
      o[j] = acc;
    }
    switch (ep.kind) {
      case GemmEpilogue::kNone:
        break;
      case GemmEpilogue::kScale:
        kernels::ScaleForward(o, ep.scale, o, size_t(n));
        break;
      case GemmEpilogue::kBias:
        tab.AddBiasForward(o, ep.bias, o, 1, n);
        break;
      case GemmEpilogue::kBiasGelu:
        tab.AddBiasForward(o, ep.bias, o, 1, n);
        tab.GeluForward(o, o, size_t(n));
        break;
    }
  }
  return out;
}

TEST_F(FusedForwardParityTest, StridedGemmEveryEpilogueMatchesChainThenOp) {
  ForEachTableAndThreads([] {
    const KernelTable& tab = kernels::Active();
    for (const int m : {1, 3, 4, 5, 17}) {
      for (const int k : {1, 16, 37}) {
        for (const int n : {1, 7, 16, 17, 64, 92, 130}) {
          const size_t lda = size_t(k) + 3, ldb = size_t(n) + 5,
                       ldo = size_t(n) + 2;
          const uint64_t seed = uint64_t(m) * 10007 + uint64_t(k) * 101 + n;
          auto a = SparseVec(size_t(m) * lda, seed);
          auto b = RandVec(size_t(k) * ldb, seed + 1);
          // Signed zeros and non-finite values on both sides of the chain.
          a[0] = -0.0f;
          if (a.size() > 5) a[5] = kInf;
          b[b.size() / 2] = kNaN;
          b[b.size() / 3] = -kInf;
          const auto out0 = RandVec(size_t(m) * ldo, seed + 2);
          const auto bias = RandVec(size_t(n), seed + 3, 2.0f);
          const GemmEpilogue eps[] = {GemmEpilogue{},
                                      GemmEpilogue::Scale(0.25f),
                                      GemmEpilogue::Bias(bias.data()),
                                      GemmEpilogue::BiasGelu(bias.data())};
          for (const GemmEpilogue& ep : eps) {
            auto got = out0;
            tab.Gemm(a.data(), lda, b.data(), ldb, got.data(), ldo, m, k, n,
                     ep);
            const auto want = GemmReference(tab, a.data(), lda, b.data(), ldb,
                                            out0, ldo, m, k, n, ep);
            // Equal everywhere: the stride gaps must be left untouched.
            EXPECT_TRUE(SameBits(got, want))
                << "m=" << m << " k=" << k << " n=" << n
                << " epilogue=" << int(ep.kind);
          }
        }
      }
    }
  });
}

TEST_F(FusedForwardParityTest, StridedSoftmaxRowsMatchDenseAndSparePoison) {
  ForEachTableAndThreads([] {
    const KernelTable& tab = kernels::Active();
    for (const int rows : {1, 3, 4, 9}) {
      for (const int width : {1, 5, 16, 17, 34, 92}) {
        const size_t ld = size_t(width) + 7;
        auto x = RandVec(size_t(rows) * ld, 40 + uint64_t(width), 6.0f);
        for (int r = 0; r < rows; ++r) {
          for (size_t j = size_t(width); j < ld; ++j) x[r * ld + j] = kNaN;
        }
        x[0] = -0.0f;
        auto got = x;
        tab.SoftmaxRows(got.data(), ld, rows, width);
        for (int r = 0; r < rows; ++r) {
          Tensor row = Tensor::FromData(
              {1, width}, std::vector<float>(x.begin() + r * ld,
                                             x.begin() + r * ld + width));
          const Tensor want = SoftmaxLastDim(row);
          EXPECT_TRUE(SameBits(got.data() + r * ld, want.data(),
                               size_t(width)))
              << "rows=" << rows << " width=" << width << " r=" << r;
          for (size_t j = size_t(width); j < ld; ++j) {
            EXPECT_TRUE(std::isnan(got[r * ld + j])) << "poison overwritten";
          }
        }
      }
    }
  });
}

// --- op-level fused vs composed ---------------------------------------------

const int kT = 9;
const std::vector<int> kLengths = {0, 1, 3, 4, 5, kT};

// Rows of [B, T, w] that are padding under kLengths.
template <typename F>
void ForPadRows(int w, F f) {
  for (size_t b = 0; b < kLengths.size(); ++b) {
    for (int i = kLengths[b]; i < kT; ++i) f((b * kT + size_t(i)) * w);
  }
}

// A padded [B, T, w] tensor with NaN (or `pad`) in every pad row.
Tensor PaddedBatch(int w, uint64_t seed, float pad, bool requires_grad) {
  auto v = SparseVec(kLengths.size() * kT * size_t(w), seed);
  ForPadRows(w, [&](size_t off) {
    for (int c = 0; c < w; ++c) v[off + size_t(c)] = pad;
  });
  return Tensor::FromData({int(kLengths.size()), kT, w}, std::move(v),
                          requires_grad);
}

// Sum(out * weights) with the weights zero on pad rows, so the loss only
// sees valid rows.
Tensor ValidRowLoss(const Tensor& out, uint64_t seed) {
  const int w = out.dim(2);
  auto r = RandVec(out.vec().size(), seed);
  ForPadRows(w, [&](size_t off) {
    for (int c = 0; c < w; ++c) r[off + size_t(c)] = 0.0f;
  });
  return Sum(Mul(out, Tensor::FromData(out.shape(), std::move(r))));
}

// Valid rows equal bitwise; the fused output's pad rows are exactly +0.
void ExpectValidRowsEqualPadsZero(const Tensor& fused, const Tensor& ref) {
  ASSERT_EQ(fused.shape(), ref.shape());
  const int w = fused.dim(2);
  for (size_t b = 0; b < kLengths.size(); ++b) {
    for (int i = 0; i < kT; ++i) {
      const size_t off = (b * kT + size_t(i)) * w;
      if (i < kLengths[b]) {
        EXPECT_TRUE(SameBits(fused.data() + off, ref.data() + off, size_t(w)))
            << "valid row b=" << b << " i=" << i;
      } else {
        EXPECT_TRUE(AllPositiveZero(fused.data() + off, size_t(w)))
            << "pad row b=" << b << " i=" << i;
      }
    }
  }
}

// Fresh grad-requiring leaves holding the same values, for the composed
// reference's tape.
std::vector<Tensor> LeafCopies(const std::vector<Tensor>& xs) {
  std::vector<Tensor> out;
  for (const auto& t : xs) {
    out.push_back(Tensor::FromData(t.shape(), t.vec(), true));
  }
  return out;
}

void ExpectSameGrads(const std::vector<Tensor>& fused,
                     const std::vector<Tensor>& ref) {
  ASSERT_EQ(fused.size(), ref.size());
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_TRUE(SameBits(fused[i].grad_vec(), ref[i].grad_vec()))
        << "gradient of input " << i;
  }
}

TEST_F(FusedForwardParityTest, AffineMatchesMatMulAddBiasGelu) {
  ForEachTableAndThreads([] {
    const int k = 24, n = 40;
    for (const Activation act : {Activation::kNone, Activation::kGelu}) {
      SCOPED_TRACE(act == Activation::kGelu ? "bias+gelu" : "bias");
      auto compose = [act](const Tensor& x, const Tensor& w,
                           const Tensor& b) {
        const Tensor y = AddBias(MatMul(x, w), b);
        return act == Activation::kGelu ? Gelu(y) : y;
      };
      // Tape off: NaN pads are never read by the fused op.
      {
        NoGradGuard no_grad;
        const Tensor x = PaddedBatch(k, 1, kNaN, false);
        const Tensor w = Tensor::FromData({k, n}, SparseVec(size_t(k) * n, 2));
        const Tensor b = Tensor::FromData({n}, RandVec(n, 3));
        ExpectValidRowsEqualPadsZero(Affine(x, w, b, act, kLengths),
                                     compose(x, w, b));
        // Without lengths every row is computed: equal everywhere.
        const Tensor dense = Tensor::FromData({kT, k}, SparseVec(kT * k, 4));
        EXPECT_TRUE(SameBits(Affine(dense, w, b, act).vec(),
                             compose(dense, w, b).vec()));
      }
      // Tape on: pads hold finite junk, the loss reads valid rows only.
      std::vector<Tensor> fused_in = {
          PaddedBatch(k, 5, 0.75f, true),
          Tensor::FromData({k, n}, SparseVec(size_t(k) * n, 6), true),
          Tensor::FromData({n}, RandVec(n, 7), true)};
      const std::vector<Tensor> ref_in = LeafCopies(fused_in);
      const Tensor fused =
          Affine(fused_in[0], fused_in[1], fused_in[2], act, kLengths);
      const Tensor ref = compose(ref_in[0], ref_in[1], ref_in[2]);
      ExpectValidRowsEqualPadsZero(fused, ref);
      ValidRowLoss(fused, 8).Backward();
      ValidRowLoss(ref, 8).Backward();
      ExpectSameGrads(fused_in, ref_in);
    }
  });
}

TEST_F(FusedForwardParityTest, MaskedAddLayerNormMatchesAddThenNorm) {
  ForEachTableAndThreads([] {
    const int d = 20;
    std::vector<Tensor> fused_in = {
        PaddedBatch(d, 11, kNaN, true), PaddedBatch(d, 12, kNaN, true),
        Tensor::FromData({d}, RandVec(d, 13), true),
        Tensor::FromData({d}, RandVec(d, 14), true)};
    const std::vector<Tensor> ref_in = LeafCopies(fused_in);
    const Tensor fused = MaskedAddLayerNorm(fused_in[0], fused_in[1],
                                            fused_in[2], fused_in[3], kLengths);
    const Tensor ref = MaskedLayerNorm(Add(ref_in[0], ref_in[1]), ref_in[2],
                                       ref_in[3], kLengths);
    EXPECT_TRUE(SameBits(fused.vec(), ref.vec()));
    ExpectValidRowsEqualPadsZero(fused, ref);
    ValidRowLoss(fused, 15).Backward();
    ValidRowLoss(ref, 15).Backward();
    ExpectSameGrads(fused_in, ref_in);
    NoGradGuard no_grad;
    EXPECT_TRUE(SameBits(
        MaskedAddLayerNorm(fused_in[0], fused_in[1], fused_in[2], fused_in[3],
                           kLengths)
            .vec(),
        fused.vec()));
  });
}

const int kHeads = 4, kHeadDim = 4, kD = kHeads * kHeadDim;
const float kScale = 1.0f / std::sqrt(float(kHeadDim));

Tensor ComposedSelfAttention(const Tensor& q, const Tensor& k,
                             const Tensor& v) {
  std::vector<Tensor> heads;
  for (int h = 0; h < kHeads; ++h) {
    const Tensor qh = SliceLastDim(q, h * kHeadDim, kHeadDim);
    const Tensor kh = SliceLastDim(k, h * kHeadDim, kHeadDim);
    const Tensor vh = SliceLastDim(v, h * kHeadDim, kHeadDim);
    const Tensor w = MaskedSoftmaxLastDim(
        Scale(BatchedMatMulNT(qh, kh, kLengths), kScale), kLengths);
    heads.push_back(BatchedMatMulNN(w, vh, kLengths));
  }
  return ConcatLastDim(heads);
}

// kp: [N, d] keys before the transpose the memo stores.
Tensor ComposedSharedAttention(const Tensor& q, const Tensor& kp,
                               const Tensor& v) {
  std::vector<Tensor> heads;
  for (int h = 0; h < kHeads; ++h) {
    const Tensor qh = SliceLastDim(q, h * kHeadDim, kHeadDim);
    const Tensor kt = Transpose(SliceLastDim(kp, h * kHeadDim, kHeadDim));
    const Tensor vh = SliceLastDim(v, h * kHeadDim, kHeadDim);
    const Tensor w = SoftmaxLastDim(Scale(MatMul(qh, kt), kScale));
    heads.push_back(MatMul(w, vh));
  }
  return ConcatLastDim(heads);
}

TEST_F(FusedForwardParityTest, SelfAttentionMatchesPerHeadComposition) {
  ForEachTableAndThreads([] {
    {
      NoGradGuard no_grad;
      const Tensor q = PaddedBatch(kD, 21, kNaN, false);
      const Tensor k = PaddedBatch(kD, 22, kNaN, false);
      const Tensor v = PaddedBatch(kD, 23, kNaN, false);
      const Tensor fused = Attention(q, k, v, kHeads, kLengths);
      const Tensor ref = ComposedSelfAttention(q, k, v);
      ExpectValidRowsEqualPadsZero(fused, ref);
      EXPECT_TRUE(SameBits(fused.vec(), ref.vec()));
    }
    std::vector<Tensor> fused_in = {PaddedBatch(kD, 24, kNaN, true),
                                    PaddedBatch(kD, 25, kNaN, true),
                                    PaddedBatch(kD, 26, kNaN, true)};
    const std::vector<Tensor> ref_in = LeafCopies(fused_in);
    const Tensor fused =
        Attention(fused_in[0], fused_in[1], fused_in[2], kHeads, kLengths);
    const Tensor ref = ComposedSelfAttention(ref_in[0], ref_in[1], ref_in[2]);
    EXPECT_TRUE(SameBits(fused.vec(), ref.vec()));
    ValidRowLoss(fused, 27).Backward();
    ValidRowLoss(ref, 27).Backward();
    ExpectSameGrads(fused_in, ref_in);
  });
}

TEST_F(FusedForwardParityTest, SharedKeyAttentionMatchesPerHeadComposition) {
  ForEachTableAndThreads([] {
    for (const int nkv : {1, 7, 92}) {
      SCOPED_TRACE("N=" + std::to_string(nkv));
      {
        NoGradGuard no_grad;
        const Tensor q = PaddedBatch(kD, 31, kNaN, false);
        const Tensor kp =
            Tensor::FromData({nkv, kD}, SparseVec(size_t(nkv) * kD, 32));
        const Tensor v =
            Tensor::FromData({nkv, kD}, SparseVec(size_t(nkv) * kD, 33));
        ExpectValidRowsEqualPadsZero(
            Attention(q, Transpose(kp), v, kHeads, kLengths),
            ComposedSharedAttention(q, kp, v));
      }
      // Tape on: finite pad junk, as the composed path feeds it in.
      std::vector<Tensor> fused_in = {
          PaddedBatch(kD, 34, 0.5f, true),
          Tensor::FromData({nkv, kD}, SparseVec(size_t(nkv) * kD, 35), true),
          Tensor::FromData({nkv, kD}, SparseVec(size_t(nkv) * kD, 36), true)};
      const std::vector<Tensor> ref_in = LeafCopies(fused_in);
      const Tensor fused = Attention(fused_in[0], Transpose(fused_in[1]),
                                     fused_in[2], kHeads, kLengths);
      const Tensor ref =
          ComposedSharedAttention(ref_in[0], ref_in[1], ref_in[2]);
      ExpectValidRowsEqualPadsZero(fused, ref);
      ValidRowLoss(fused, 37).Backward();
      ValidRowLoss(ref, 37).Backward();
      ExpectSameGrads(fused_in, ref_in);
    }
  });
}

}  // namespace
}  // namespace preqr::nn
