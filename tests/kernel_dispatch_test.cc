// Runtime kernel-dispatch tests: impl selection, scalar-vs-AVX2 parity,
// AVX-512-vs-AVX2 bitwise parity, and the per-impl determinism contract
// (same impl => bitwise-stable across batch compositions).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/kernels.h"
#include "nn/kernels_dispatch.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace preqr::nn {
namespace {

using kernels::Avx2Supported;
using kernels::Avx2Table;
using kernels::Avx512Supported;
using kernels::Avx512Table;
using kernels::KernelTable;
using kernels::ScalarTable;

// Restores whatever impl was active on entry, so these tests cannot leak a
// forced impl into other tests in the binary.
class ImplRestorer {
 public:
  ImplRestorer() : name_(kernels::ActiveImplName()) {}
  ~ImplRestorer() { kernels::SetActiveImpl(name_); }

 private:
  const char* name_;
};

std::vector<float> RandVec(size_t n, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = scale * (rng.NextFloat() * 2.0f - 1.0f);
  return v;
}

// Max |a-b| / max(1, |b|) over two equal-length buffers.
float MaxRelDiff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    const float d =
        std::abs(a[i] - b[i]) / std::max(1.0f, std::abs(b[i]));
    worst = std::max(worst, d);
  }
  return worst;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The parent table's dense entries, composed from today's strided ones:
// MatMul is one Gemm with no epilogue, Softmax a copy plus the in-place
// SoftmaxRows. The batched attention kernels are covered through the
// nn::BatchedMatMulNT/NN and MaskedSoftmaxLastDim ops under a forced table.
void MatMulVia(const KernelTable& tab, const float* a, const float* b,
               float* out, int m, int k, int n) {
  tab.Gemm(a, size_t(k), b, size_t(n), out, size_t(n), m, k, n, {});
}

void SoftmaxVia(const KernelTable& tab, const float* x, float* out,
                size_t rows, int d) {
  std::memcpy(out, x, rows * size_t(d) * sizeof(float));
  tab.SoftmaxRows(out, size_t(d), int(rows), d);
}

// Declared first so no earlier test has re-pointed the table: when the
// launcher sets PREQR_KERNEL_IMPL (scripts/check.sh's SIMD stage does),
// startup selection must honor it.
TEST(KernelDispatchTest, EnvSelectionHonored) {
  const char* want = std::getenv("PREQR_KERNEL_IMPL");
  if (want == nullptr) GTEST_SKIP() << "PREQR_KERNEL_IMPL not set";
  const std::string best = Avx512Supported() ? "avx512"
                           : Avx2Supported()  ? "avx2"
                                              : "scalar";
  std::string expected(want);
  if (expected == "avx2" && !Avx2Supported()) {
    expected = "scalar";  // fallback note case
  } else if (expected == "avx512" && !Avx512Supported()) {
    expected = Avx2Supported() ? "avx2" : "scalar";  // fallback note case
  } else if (expected != "scalar" && expected != "avx2" &&
             expected != "avx512") {
    expected = best;  // unknown name: the CPUID default
  }
  EXPECT_EQ(std::string(kernels::ActiveImplName()), expected);
}

TEST(KernelDispatchTest, ScalarTableAlwaysPresent) {
  ASSERT_STREQ(ScalarTable().name, "scalar");
  ASSERT_NE(ScalarTable().Gemm, nullptr);
}

TEST(KernelDispatchTest, SetActiveImplRoundTrips) {
  ImplRestorer restore;
  ASSERT_TRUE(kernels::SetActiveImpl("scalar"));
  EXPECT_STREQ(kernels::ActiveImplName(), "scalar");
  if (Avx2Supported()) {
    ASSERT_TRUE(kernels::SetActiveImpl("avx2"));
    EXPECT_STREQ(kernels::ActiveImplName(), "avx2");
  } else {
    EXPECT_FALSE(kernels::SetActiveImpl("avx2"));
    EXPECT_STREQ(kernels::ActiveImplName(), "scalar");
  }
  ASSERT_TRUE(kernels::SetActiveImpl("scalar"));
  if (Avx512Supported()) {
    ASSERT_TRUE(kernels::SetActiveImpl("avx512"));
    EXPECT_STREQ(kernels::ActiveImplName(), "avx512");
  } else {
    EXPECT_FALSE(kernels::SetActiveImpl("avx512"));
    EXPECT_STREQ(kernels::ActiveImplName(), "scalar");
  }
}

TEST(KernelDispatchTest, UnknownImplRejectedAndTableUnchanged) {
  ImplRestorer restore;
  ASSERT_TRUE(kernels::SetActiveImpl("scalar"));
  EXPECT_FALSE(kernels::SetActiveImpl("neon"));
  EXPECT_FALSE(kernels::SetActiveImpl(""));
  EXPECT_STREQ(kernels::ActiveImplName(), "scalar");
}

TEST(KernelDispatchTest, Avx2TablePresenceMatchesSupport) {
  if (Avx2Supported()) {
    ASSERT_NE(Avx2Table(), nullptr);
    EXPECT_STREQ(Avx2Table()->name, "avx2");
  }
  if (Avx512Supported()) {
    ASSERT_NE(Avx512Table(), nullptr);
    EXPECT_STREQ(Avx512Table()->name, "avx512");
    EXPECT_TRUE(Avx2Supported()) << "the avx512 table reuses avx2 entries";
  }
}

// --- scalar vs avx2 parity (tolerance; impls legitimately differ in low
// bits through FMA contraction and the polynomial exp) --------------------

class ParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Avx2Supported()) GTEST_SKIP() << "no AVX2+FMA on this host";
  }
};

TEST_F(ParityTest, MatMul) {
  const int m = 7, k = 37, n = 53;  // odd sizes exercise every tail path
  const auto a = RandVec(size_t(m) * k, 1);
  const auto b = RandVec(size_t(k) * n, 2);
  std::vector<float> s(size_t(m) * n, 0.0f), v(size_t(m) * n, 0.0f);
  MatMulVia(ScalarTable(), a.data(), b.data(), s.data(), m, k, n);
  MatMulVia(*Avx2Table(), a.data(), b.data(), v.data(), m, k, n);
  EXPECT_LT(MaxRelDiff(v, s), 1e-4f);
}

// The AVX2 GEMM's documented contract (GemmRow in kernels_avx2.cc),
// checked bitwise against an independent reference: every output element
// is the fmaf chain over the nonzero a[i, kk] in ascending kk, whatever
// the row width and however the kernel blocks its columns (64-, 32- and
// 8-wide blocks, masked tail). Half the inputs are exact zeros, like the
// ReLU-sparse schema activations.
class Avx2GemmContractTest : public ParityTest {};

// Output widths around every vector and block boundary of both SIMD GEMMs.
const int kGemmWidths[] = {1,  2,  3,  4,  5,   6,   7,   8,   9,   15,
                           16, 17, 31, 32, 33,  53,  63,  64,  65,  92,
                           96, 127, 128, 129, 130};

std::vector<float> FmaChainReference(const std::vector<float>& a,
                                     const std::vector<float>& b, int m,
                                     int k, int n) {
  std::vector<float> out(size_t(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float o = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        const float av = a[size_t(i) * k + kk];
        if (av == 0.0f) continue;
        o = std::fmaf(av, b[size_t(kk) * n + j], o);
      }
      out[size_t(i) * n + j] = o;
    }
  }
  return out;
}

TEST_F(Avx2GemmContractTest, MatchesFmaChainBitwiseAtEveryWidth) {
  const int m = 5;
  for (const int k : {37, 64}) {
    for (const int n : kGemmWidths) {
      auto a = RandVec(size_t(m) * k, 101 + uint64_t(n));
      for (size_t i = 0; i < a.size(); i += 2) a[i] = 0.0f;  // ~50% zeros
      for (size_t i = 1; i < a.size(); i += 7) a[i] = 0.0f;
      const auto b = RandVec(size_t(k) * n, 211 + uint64_t(n));
      std::vector<float> v(size_t(m) * n, 0.0f);
      MatMulVia(*Avx2Table(), a.data(), b.data(), v.data(), m, k, n);
      EXPECT_TRUE(BitwiseEqual(v, FmaChainReference(a, b, m, k, n)))
          << "k=" << k << " n=" << n;
    }
  }
}

TEST_F(Avx2GemmContractTest, AllZeroRowIgnoresNanPoisonedB) {
  const int m = 3, k = 64;
  for (const int n : {7, 53, 64, 92, 130}) {
    auto a = RandVec(size_t(m) * k, 307);
    for (int kk = 0; kk < k; ++kk) a[size_t(1) * k + kk] = 0.0f;  // pad row
    const std::vector<float> b(size_t(k) * n,
                               std::numeric_limits<float>::quiet_NaN());
    std::vector<float> v(size_t(m) * n, 0.0f);
    MatMulVia(*Avx2Table(), a.data(), b.data(), v.data(), m, k, n);
    for (int j = 0; j < n; ++j) {
      const float pad = v[size_t(1) * n + j];
      EXPECT_EQ(std::memcmp(&pad, "\0\0\0\0", sizeof(float)), 0)
          << "pad row not +0 at n=" << n << " j=" << j;
      EXPECT_TRUE(std::isnan(v[j])) << "valid row missed b at j=" << j;
    }
  }
}

TEST_F(ParityTest, AddBiasIsBitwiseExact) {
  // One add per lane in both impls: identical rounding, identical bits.
  const size_t rows = 5;
  const int d = 19;
  const auto x = RandVec(rows * d, 3);
  const auto bias = RandVec(d, 4);
  std::vector<float> s(rows * d), v(rows * d);
  ScalarTable().AddBiasForward(x.data(), bias.data(), s.data(), rows, d);
  Avx2Table()->AddBiasForward(x.data(), bias.data(), v.data(), rows, d);
  EXPECT_TRUE(BitwiseEqual(v, s));
}

TEST_F(ParityTest, ReluIsBitwiseExact) {
  const auto x = RandVec(101, 5, 3.0f);
  std::vector<float> s(x.size()), v(x.size());
  ScalarTable().ReluForward(x.data(), s.data(), x.size());
  Avx2Table()->ReluForward(x.data(), v.data(), x.size());
  EXPECT_TRUE(BitwiseEqual(v, s));
}

TEST_F(ParityTest, Transcendentals) {
  // Spread over the interesting range plus saturation territory.
  std::vector<float> x;
  for (float t = -12.0f; t <= 12.0f; t += 0.37f) x.push_back(t);
  x.push_back(-88.0f);
  x.push_back(88.0f);
  x.push_back(0.0f);
  std::vector<float> s(x.size()), v(x.size());
  ScalarTable().GeluForward(x.data(), s.data(), x.size());
  Avx2Table()->GeluForward(x.data(), v.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(v[i], s[i], 2e-5f * std::max(1.0f, std::abs(s[i])))
        << "Gelu at x=" << x[i];
  ScalarTable().TanhForward(x.data(), s.data(), x.size());
  Avx2Table()->TanhForward(x.data(), v.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(v[i], s[i], 2e-5f) << "Tanh at x=" << x[i];
  ScalarTable().SigmoidForward(x.data(), s.data(), x.size());
  Avx2Table()->SigmoidForward(x.data(), v.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(v[i], s[i], 2e-5f) << "Sigmoid at x=" << x[i];
}

TEST_F(ParityTest, TanhSaturatesToExactlyOne) {
  const float xs[] = {20.0f, 50.0f, 88.0f, 1e6f, -20.0f, -1e6f};
  float out[6];
  Avx2Table()->TanhForward(xs, out, 6);
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(out[i], xs[i] > 0 ? 1.0f : -1.0f) << "at x=" << xs[i];
}

TEST_F(ParityTest, Softmax) {
  const size_t rows = 6;
  const int d = 29;
  const auto x = RandVec(rows * d, 6, 8.0f);
  std::vector<float> s(rows * d), v(rows * d);
  SoftmaxVia(ScalarTable(), x.data(), s.data(), rows, d);
  SoftmaxVia(*Avx2Table(), x.data(), v.data(), rows, d);
  EXPECT_LT(MaxRelDiff(v, s), 1e-4f);
  for (size_t r = 0; r < rows; ++r) {  // rows still normalize
    float sum = 0.0f;
    for (int j = 0; j < d; ++j) sum += v[r * d + j];
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST_F(ParityTest, LayerNorm) {
  const int n = 5, d = 43;
  const auto x = RandVec(size_t(n) * d, 7, 2.0f);
  const auto gamma = RandVec(d, 8);
  const auto beta = RandVec(d, 9);
  std::vector<float> s(size_t(n) * d), v(size_t(n) * d);
  std::vector<float> sxh(size_t(n) * d), vxh(size_t(n) * d);
  std::vector<float> sistd(n), vistd(n);
  ScalarTable().LayerNormForward(x.data(), gamma.data(), beta.data(), 1e-5f,
                                 s.data(), sxh.data(), sistd.data(), n, d);
  Avx2Table()->LayerNormForward(x.data(), gamma.data(), beta.data(), 1e-5f,
                                v.data(), vxh.data(), vistd.data(), n, d);
  EXPECT_LT(MaxRelDiff(v, s), 1e-4f);
  EXPECT_LT(MaxRelDiff(vxh, sxh), 1e-4f);
  EXPECT_LT(MaxRelDiff(vistd, sistd), 1e-4f);
}

// --- avx2 self-consistency: the determinism contract ----------------------

// BatchedMatMulNT valid rows must be bitwise equal to the solo
// Transpose+MatMul path *under the same impl*.
TEST_F(ParityTest, BatchedNTMatchesSoloBitwise) {
  ImplRestorer restore;
  const int bsz = 3, t = 11, k = 16;
  std::vector<int> lengths = {11, 4, 7};
  const auto a = RandVec(size_t(bsz) * t * k, 10);
  const auto bt = RandVec(size_t(bsz) * t * k, 11);
  for (const KernelTable* tab : {&ScalarTable(), Avx2Table()}) {
    ASSERT_TRUE(kernels::SetActiveImpl(tab->name));
    const std::vector<float> batched =
        BatchedMatMulNT(Tensor::FromData({bsz, t, k}, a),
                        Tensor::FromData({bsz, t, k}, bt), lengths)
            .vec();
    for (int b = 0; b < bsz; ++b) {
      const int len = lengths[b];
      // Solo path: out = a_b[0:len] * transpose(bt_b[0:len]).
      std::vector<float> ktr(size_t(k) * len);
      kernels::TransposeForward(bt.data() + size_t(b) * t * k, ktr.data(),
                                len, k);
      std::vector<float> solo(size_t(len) * len, 0.0f);
      MatMulVia(*tab, a.data() + size_t(b) * t * k, ktr.data(),
                         solo.data(), len, k, len);
      for (int i = 0; i < len; ++i) {
        EXPECT_EQ(0, std::memcmp(
                         batched.data() + (size_t(b) * t + i) * t,
                         solo.data() + size_t(i) * len,
                         size_t(len) * sizeof(float)))
            << tab->name << " example " << b << " row " << i;
      }
    }
  }
}

// Under one impl, a row's bits must not depend on what else is in the
// batch: encode the same example alone and inside a mixed batch.
TEST_F(ParityTest, BatchCompositionInvariance) {
  ImplRestorer restore;
  const int t = 9, k = 24;
  const auto probe = RandVec(size_t(t) * k, 12);
  for (const KernelTable* tab : {&ScalarTable(), Avx2Table()}) {
    ASSERT_TRUE(kernels::SetActiveImpl(tab->name));
    // Alone.
    std::vector<int> len1 = {6};
    const Tensor alone = Tensor::FromData({1, t, k}, probe);
    const std::vector<float> out1 = BatchedMatMulNT(alone, alone, len1).vec();
    // Same example as slot 1 of a 3-example batch with junk neighbors.
    const int bsz = 3;
    std::vector<float> a(size_t(bsz) * t * k);
    auto junk0 = RandVec(size_t(t) * k, 13, 5.0f);
    auto junk2 = RandVec(size_t(t) * k, 14, 5.0f);
    std::memcpy(a.data(), junk0.data(), junk0.size() * sizeof(float));
    std::memcpy(a.data() + size_t(t) * k, probe.data(),
                probe.size() * sizeof(float));
    std::memcpy(a.data() + 2 * size_t(t) * k, junk2.data(),
                junk2.size() * sizeof(float));
    std::vector<int> len3 = {9, 6, 3};
    const Tensor mixed = Tensor::FromData({bsz, t, k}, a);
    const std::vector<float> out3 = BatchedMatMulNT(mixed, mixed, len3).vec();
    for (int i = 0; i < 6; ++i)
      EXPECT_EQ(0, std::memcmp(out1.data() + size_t(i) * t,
                               out3.data() + (size_t(1) * t + i) * t,
                               6 * sizeof(float)))
          << tab->name << " row " << i;
  }
}

// Pad rows stay exactly zero even when the pad region carries garbage
// (NaN/inf), because the batched kernels never read or write past lengths.
TEST_F(ParityTest, PadRowsStayZeroWithPoisonedPadding) {
  ImplRestorer restore;
  const int bsz = 2, t = 8, k = 16, dv = 12;
  std::vector<int> lengths = {5, 3};
  auto a = RandVec(size_t(bsz) * t * k, 15);
  auto w = RandVec(size_t(bsz) * t * t, 16);
  auto v = RandVec(size_t(bsz) * t * dv, 17);
  // Poison every pad row.
  const float inf = std::numeric_limits<float>::infinity();
  for (int b = 0; b < bsz; ++b)
    for (int i = lengths[b]; i < t; ++i) {
      for (int c = 0; c < k; ++c) a[(size_t(b) * t + i) * k + c] = NAN;
      for (int c = 0; c < t; ++c) w[(size_t(b) * t + i) * t + c] = inf;
      for (int c = 0; c < dv; ++c) v[(size_t(b) * t + i) * dv + c] = NAN;
    }
  for (const KernelTable* tab : {&ScalarTable(), Avx2Table()}) {
    ASSERT_TRUE(kernels::SetActiveImpl(tab->name));
    const Tensor at = Tensor::FromData({bsz, t, k}, a);
    const Tensor sm =
        MaskedSoftmaxLastDim(BatchedMatMulNT(at, at, lengths), lengths);
    const std::vector<float> nn =
        BatchedMatMulNN(sm, Tensor::FromData({bsz, t, dv}, v), lengths).vec();
    for (int b = 0; b < bsz; ++b)
      for (int i = 0; i < t; ++i) {
        const bool pad = i >= lengths[b];
        for (int c = 0; c < dv; ++c) {
          const float val = nn[(size_t(b) * t + i) * dv + c];
          if (pad) {
            EXPECT_EQ(val, 0.0f) << tab->name << " pad leak at b=" << b
                                 << " i=" << i << " c=" << c;
          } else {
            EXPECT_TRUE(std::isfinite(val))
                << tab->name << " poisoned valid row b=" << b << " i=" << i;
          }
        }
      }
  }
}

TEST_F(ParityTest, MaskedKernelsMatchScalarWithinTolerance) {
  ImplRestorer restore;
  const int bsz = 2, t = 10, d = 21;
  std::vector<int> lengths = {10, 6};
  const auto x = RandVec(size_t(bsz) * t * t, 18, 4.0f);
  const auto xs = RandVec(size_t(bsz) * t * d, 19);
  const auto gamma = RandVec(d, 20);
  const auto beta = RandVec(d, 21);
  const Tensor xt = Tensor::FromData({bsz, t, t}, x);
  ASSERT_TRUE(kernels::SetActiveImpl("scalar"));
  const std::vector<float> ssm = MaskedSoftmaxLastDim(xt, lengths).vec();
  ASSERT_TRUE(kernels::SetActiveImpl("avx2"));
  const std::vector<float> vsm = MaskedSoftmaxLastDim(xt, lengths).vec();
  EXPECT_LT(MaxRelDiff(vsm, ssm), 1e-4f);
  std::vector<float> sln(size_t(bsz) * t * d, 0.0f),
      vln(size_t(bsz) * t * d, 0.0f);
  ScalarTable().MaskedLayerNormForward(xs.data(), nullptr, gamma.data(),
                                       beta.data(),
                                       1e-5f, sln.data(), nullptr, nullptr,
                                       bsz, t, d, lengths.data());
  Avx2Table()->MaskedLayerNormForward(xs.data(), nullptr, gamma.data(),
                                      beta.data(),
                                      1e-5f, vln.data(), nullptr, nullptr,
                                      bsz, t, d, lengths.data());
  EXPECT_LT(MaxRelDiff(vln, sln), 1e-4f);
}

// --- avx512 vs avx2: bitwise identical for every input --------------------

// The avx512 table's contract (kernels_avx512.cc): each replaced entry
// returns exactly the avx2 entry's bits. Every case runs at 1, 2 and 8 pool
// threads, so the 4-row blocks land on different chunk boundaries.
class Avx512ParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Avx512Supported()) GTEST_SKIP() << "no AVX-512F on this host";
  }
  void TearDown() override { ThreadPool::SetGlobalThreads(0); }

  template <typename F>
  static void AtEachThreadCount(F body) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ThreadPool::SetGlobalThreads(threads);
      body();
    }
  }
};

const int kParityRows[] = {1, 2, 3, 4, 5, 7, 34};

// ~50% exact zeros, a share of them -0.0 (skipped like +0.0).
std::vector<float> SparseVec(size_t n, uint64_t seed) {
  auto v = RandVec(n, seed);
  for (size_t i = 0; i < v.size(); i += 2) v[i] = 0.0f;
  for (size_t i = 1; i < v.size(); i += 7) v[i] = 0.0f;
  for (size_t i = 4; i < v.size(); i += 6) v[i] = -0.0f;
  return v;
}

TEST_F(Avx512ParityTest, ReusesAvx2EntriesItDoesNotReplace) {
  const KernelTable& w = *Avx512Table();
  const KernelTable& n = *Avx2Table();
  EXPECT_EQ(w.AddBiasForward, n.AddBiasForward);
  EXPECT_EQ(w.ReluForward, n.ReluForward);
  EXPECT_EQ(w.TanhForward, n.TanhForward);
  EXPECT_EQ(w.SigmoidForward, n.SigmoidForward);
  EXPECT_EQ(w.LayerNormForward, n.LayerNormForward);
  EXPECT_EQ(w.MaskedLayerNormForward, n.MaskedLayerNormForward);
}

// GEMM accumulates into `out`, so it starts from random values, not zeros.
TEST_F(Avx512ParityTest, MatMulMatchesAvx2Bitwise) {
  AtEachThreadCount([] {
    for (const int m : kParityRows) {
      for (const int k : {37, 64}) {
        for (const int n : kGemmWidths) {
          const uint64_t seed = uint64_t(m) * 1000 + uint64_t(k) * 3 + n;
          const auto a = SparseVec(size_t(m) * k, seed);
          const auto b = RandVec(size_t(k) * n, seed + 1);
          auto w = RandVec(size_t(m) * n, seed + 2);
          auto ref = w;
          MatMulVia(*Avx512Table(), a.data(), b.data(), w.data(), m, k, n);
          MatMulVia(*Avx2Table(), a.data(), b.data(), ref.data(), m, k, n);
          EXPECT_TRUE(BitwiseEqual(w, ref))
              << "m=" << m << " k=" << k << " n=" << n;
        }
      }
    }
  });
}

// The fused entries over strided operands: Gemm with every epilogue, and
// SoftmaxRows on rows with NaN past their width (never read or written).
TEST_F(Avx512ParityTest, StridedGemmEpiloguesAndSoftmaxRowsMatchAvx2Bitwise) {
  AtEachThreadCount([] {
    for (const int m : kParityRows) {
      for (const int k : {16, 37}) {
        for (const int n : kGemmWidths) {
          const size_t lda = size_t(k) + 3, ldb = size_t(n) + 5,
                       ldo = size_t(n) + 2;
          const uint64_t seed = uint64_t(m) * 7919 + uint64_t(k) * 31 + n;
          const auto a = SparseVec(size_t(m) * lda, seed);
          const auto b = RandVec(size_t(k) * ldb, seed + 1);
          const auto out0 = RandVec(size_t(m) * ldo, seed + 2);
          const auto bias = RandVec(size_t(n), seed + 3, 3.0f);
          using kernels::GemmEpilogue;
          for (const GemmEpilogue& ep :
               {GemmEpilogue{}, GemmEpilogue::Scale(0.25f),
                GemmEpilogue::Bias(bias.data()),
                GemmEpilogue::BiasGelu(bias.data())}) {
            auto w = out0, ref = out0;
            Avx512Table()->Gemm(a.data(), lda, b.data(), ldb, w.data(), ldo,
                                m, k, n, ep);
            Avx2Table()->Gemm(a.data(), lda, b.data(), ldb, ref.data(), ldo,
                              m, k, n, ep);
            EXPECT_TRUE(BitwiseEqual(w, ref))
                << "m=" << m << " k=" << k << " n=" << n
                << " epilogue=" << int(ep.kind);
          }
          const size_t ld = size_t(n) + 4;
          auto x = RandVec(size_t(m) * ld, seed + 4, 8.0f);
          for (int r = 0; r < m; ++r) {
            for (size_t j = size_t(n); j < ld; ++j) x[r * ld + j] = NAN;
          }
          auto w = x, ref = x;
          Avx512Table()->SoftmaxRows(w.data(), ld, m, n);
          Avx2Table()->SoftmaxRows(ref.data(), ld, m, n);
          EXPECT_TRUE(BitwiseEqual(w, ref)) << "softmax m=" << m << " n=" << n;
        }
      }
    }
  });
}

TEST_F(Avx512ParityTest, AllZeroRowsIgnoreNanPoisonedB) {
  const int k = 64;
  AtEachThreadCount([] {
    for (const int m : kParityRows) {
      for (const int n : {7, 16, 53, 64, 92, 130}) {
        auto a = RandVec(size_t(m) * k, 307 + uint64_t(m));
        for (int i = 1; i < m; i += 3) {  // pad rows, +0.0 and -0.0
          for (int kk = 0; kk < k; ++kk) {
            a[size_t(i) * k + kk] = kk % 3 == 0 ? -0.0f : 0.0f;
          }
        }
        const std::vector<float> b(size_t(k) * n,
                                   std::numeric_limits<float>::quiet_NaN());
        std::vector<float> w(size_t(m) * n, 0.0f), ref(size_t(m) * n, 0.0f);
        MatMulVia(*Avx512Table(), a.data(), b.data(), w.data(), m, k, n);
        MatMulVia(*Avx2Table(), a.data(), b.data(), ref.data(), m, k, n);
        EXPECT_TRUE(BitwiseEqual(w, ref)) << "m=" << m << " n=" << n;
        for (int i = 0; i < m; ++i) {
          const float first = w[size_t(i) * n];
          if (i % 3 == 1) {
            EXPECT_EQ(std::memcmp(&first, "\0\0\0\0", sizeof(float)), 0)
                << "pad row " << i << " touched at m=" << m << " n=" << n;
          } else {
            EXPECT_TRUE(std::isnan(first)) << "row " << i << " missed b";
          }
        }
      }
    }
  });
}

// Batched attention kernels over masked lengths {0, 1, 3, 4, 5, t}, with
// NaN in every pad position of the inputs.
TEST_F(Avx512ParityTest, BatchedKernelsMatchAvx2Bitwise) {
  ImplRestorer restore;
  AtEachThreadCount([] {
    for (const int t : {9, 34}) {
      const std::vector<int> lengths = {0, 1, 3, 4, 5, t};
      const int bsz = static_cast<int>(lengths.size());
      for (const int k : {16, 37}) {
        for (const int dv : {5, 16, 92}) {
          const uint64_t seed = uint64_t(t) * 100 + uint64_t(k) + dv;
          auto q = SparseVec(size_t(bsz) * t * k, seed);
          auto key = RandVec(size_t(bsz) * t * k, seed + 1);
          auto w = SparseVec(size_t(bsz) * t * t, seed + 2);
          auto v = RandVec(size_t(bsz) * t * dv, seed + 3);
          auto logits = RandVec(size_t(bsz) * t * t, seed + 4, 6.0f);
          for (int b = 0; b < bsz; ++b) {
            for (int i = lengths[b]; i < t; ++i) {
              for (int c = 0; c < k; ++c) {
                q[(size_t(b) * t + i) * k + c] = NAN;
                key[(size_t(b) * t + i) * k + c] = NAN;
              }
              for (int c = 0; c < dv; ++c) {
                v[(size_t(b) * t + i) * dv + c] = NAN;
              }
            }
            for (int i = 0; i < t; ++i) {
              for (int c = lengths[b]; c < t; ++c) {
                w[(size_t(b) * t + i) * t + c] = NAN;
                logits[(size_t(b) * t + i) * t + c] = NAN;
              }
            }
          }
          auto run = [&](const KernelTable& tab) {
            EXPECT_TRUE(kernels::SetActiveImpl(tab.name));
            std::vector<float> nt =
                BatchedMatMulNT(Tensor::FromData({bsz, t, k}, q),
                                Tensor::FromData({bsz, t, k}, key), lengths)
                    .vec();
            const std::vector<float> nn =
                BatchedMatMulNN(Tensor::FromData({bsz, t, t}, w),
                                Tensor::FromData({bsz, t, dv}, v), lengths)
                    .vec();
            const std::vector<float> sm =
                MaskedSoftmaxLastDim(Tensor::FromData({bsz, t, t}, logits),
                                     lengths)
                    .vec();
            nt.insert(nt.end(), nn.begin(), nn.end());
            nt.insert(nt.end(), sm.begin(), sm.end());
            return nt;
          };
          EXPECT_TRUE(BitwiseEqual(run(*Avx512Table()), run(*Avx2Table())))
              << "t=" << t << " k=" << k << " dv=" << dv;
        }
      }
    }
  });
}

TEST_F(Avx512ParityTest, SoftmaxMatchesAvx2BitwiseAtWidths1To130) {
  AtEachThreadCount([] {
    for (const int rows : {1, 4, 7}) {
      for (int d = 1; d <= 130; ++d) {
        auto x = RandVec(size_t(rows) * d, 500 + uint64_t(d), 8.0f);
        if (rows == 7) {  // a row of ties and one with a huge spread
          std::fill(x.begin(), x.begin() + d, 0.5f);
          x[size_t(d)] = 90.0f;
        }
        std::vector<float> w(x.size()), ref(x.size());
        SoftmaxVia(*Avx512Table(), x.data(), w.data(), rows, d);
        SoftmaxVia(*Avx2Table(), x.data(), ref.data(), rows, d);
        EXPECT_TRUE(BitwiseEqual(w, ref)) << "rows=" << rows << " d=" << d;
      }
    }
  });
}

TEST_F(Avx512ParityTest, GeluMatchesAvx2Bitwise) {
  for (size_t n = 1; n <= 130; ++n) {
    const auto x = RandVec(n, 700 + n, 5.0f);
    std::vector<float> w(n), ref(n);
    Avx512Table()->GeluForward(x.data(), w.data(), n);
    Avx2Table()->GeluForward(x.data(), ref.data(), n);
    EXPECT_TRUE(BitwiseEqual(w, ref)) << "n=" << n;
  }
  // Saturation, signed zeros, subnormals and a dense sweep of [-12, 12].
  std::vector<float> x = {0.0f, -0.0f, 1e-40f, -1e-40f, 100.0f, -100.0f,
                          1e30f, -1e30f, 88.0f, -88.0f};
  for (int i = -12000; i <= 12000; ++i) x.push_back(float(i) * 1e-3f);
  std::vector<float> w(x.size()), ref(x.size());
  Avx512Table()->GeluForward(x.data(), w.data(), x.size());
  Avx2Table()->GeluForward(x.data(), ref.data(), x.size());
  EXPECT_TRUE(BitwiseEqual(w, ref));
}

}  // namespace
}  // namespace preqr::nn
