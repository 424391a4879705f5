#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/thread_pool.h"

namespace preqr::nn::kernels {

// --- Elementwise forward -------------------------------------------------

void AddForward(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void SubForward(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void MulForward(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void ScaleForward(const float* a, float c, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * c;
}

void AddScalarForward(const float* a, float c, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + c;
}

void AddBiasForward(const float* x, const float* bias, float* out,
                    size_t rows, int d) {
  for (size_t r = 0; r < rows; ++r) {
    const float* in = x + r * static_cast<size_t>(d);
    float* row = out + r * static_cast<size_t>(d);
    for (int j = 0; j < d; ++j) row[j] = in[j] + bias[j];
  }
}

void ReluForward(const float* x, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

inline float GeluValue(float v) {
  const float u = kGeluC * (v + 0.044715f * v * v * v);
  return 0.5f * v * (1.0f + std::tanh(u));
}
}  // namespace

void GeluForward(const float* x, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = GeluValue(x[i]);
}

void TanhForward(const float* x, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = std::tanh(x[i]);
}

void SigmoidForward(const float* x, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

// --- Elementwise backward ------------------------------------------------

void Accumulate(const float* g, float* dst, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += g[i];
}

void AccumulateNeg(const float* g, float* dst, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] -= g[i];
}

void AccumulateMul(const float* g, const float* other, float* dst, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += g[i] * other[i];
}

void AccumulateScaled(const float* g, float c, float* dst, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += g[i] * c;
}

void AccumulateConst(float g, float* dst, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += g;
}

void AddBiasBackwardBias(const float* g, float* dbias, size_t rows, int d) {
  // dbias reduces over rows; partition over columns so each bias element
  // accumulates in row order (deterministic).
  ParallelFor(0, d, GrainForCost(static_cast<int64_t>(rows)),
              [&](int64_t j0, int64_t j1) {
                for (int64_t j = j0; j < j1; ++j) {
                  for (size_t r = 0; r < rows; ++r) {
                    dbias[static_cast<size_t>(j)] +=
                        g[r * static_cast<size_t>(d) + static_cast<size_t>(j)];
                  }
                }
              });
}

void ReluBackward(const float* x, const float* g, float* dx, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dx[i] += g[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
  }
}

void GeluBackward(const float* x, const float* g, float* dx, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float u = kGeluC * (v + 0.044715f * v * v * v);
    const float t = std::tanh(u);
    const float sech2 = 1.0f - t * t;
    float local = 0.5f * (1.0f + t);
    // Once tanh saturates to exactly ±1 (|v| ≳ 10) sech² is exactly 0 while
    // v²·du keeps growing and eventually overflows to inf; the saturated
    // term's true limit is 0, but evaluating 0·inf would poison dx with
    // NaN. Skipping the term when sech² == 0 is bitwise-identical for every
    // non-saturated input (the product is a plain 0.0f there).
    if (sech2 != 0.0f) {
      const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
      local += 0.5f * v * sech2 * du;
    }
    dx[i] += g[i] * local;
  }
}

void TanhBackward(const float* y, const float* g, float* dx, size_t n) {
  for (size_t i = 0; i < n; ++i) dx[i] += g[i] * (1.0f - y[i] * y[i]);
}

void SigmoidBackward(const float* y, const float* g, float* dx, size_t n) {
  for (size_t i = 0; i < n; ++i) dx[i] += g[i] * (y[i] * (1.0f - y[i]));
}

// --- Linear algebra ------------------------------------------------------

namespace {

// Output rows [r0, r1) of Gemm. A plain function with by-value operands, so
// the compiler keeps b, ldb and n in registers across the kk loop; read
// through a by-reference lambda capture, they are reloaded on every step.
void GemmRowRange(const float* a, size_t lda, const float* b, size_t ldb,
                  float* out, size_t ldo, int64_t r0, int64_t r1, int k,
                  int n, const GemmEpilogue epilogue) {
  for (int64_t i = r0; i < r1; ++i) {
    float* orow = out + static_cast<size_t>(i) * ldo;
    const float* arow = a + static_cast<size_t>(i) * lda;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<size_t>(kk) * ldb;
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
    const float* bias = epilogue.bias;
    switch (epilogue.kind) {
      case GemmEpilogue::kNone:
        break;
      case GemmEpilogue::kScale:
        for (int j = 0; j < n; ++j) orow[j] = orow[j] * epilogue.scale;
        break;
      case GemmEpilogue::kBias:
        for (int j = 0; j < n; ++j) orow[j] = orow[j] + bias[j];
        break;
      case GemmEpilogue::kBiasGelu:
        for (int j = 0; j < n; ++j) orow[j] = GeluValue(orow[j] + bias[j]);
        break;
    }
  }
}

}  // namespace

void Gemm(const float* a, size_t lda, const float* b, size_t ldb, float* out,
          size_t ldo, int m, int k, int n, const GemmEpilogue& epilogue) {
  // Rows of the output are independent, so the row range parallelizes with
  // bitwise-identical results for any thread count (each row runs the same
  // serial ikj loop: streaming access on b and out).
  ParallelFor(0, m, GrainForCost(static_cast<int64_t>(k) * n),
              [&](int64_t r0, int64_t r1) {
                GemmRowRange(a, lda, b, ldb, out, ldo, r0, r1, k, n,
                             epilogue);
              });
}

void MatMulBackwardA(const float* g, const float* b, float* da, int m, int k,
                     int n) {
  // dA = G * B^T: rows of dA are independent.
  ParallelFor(0, m, GrainForCost(static_cast<int64_t>(k) * n),
              [&](int64_t r0, int64_t r1) {
                for (int64_t i = r0; i < r1; ++i) {
                  float* darow = da + static_cast<size_t>(i) * k;
                  const float* grow = g + static_cast<size_t>(i) * n;
                  for (int kk = 0; kk < k; ++kk) {
                    const float* brow = b + static_cast<size_t>(kk) * n;
                    float acc = 0.0f;
                    for (int j = 0; j < n; ++j) acc += grow[j] * brow[j];
                    darow[kk] += acc;
                  }
                }
              });
}

void MatMulBackwardB(const float* a, const float* g, float* db, int m, int k,
                     int n) {
  // dB = A^T * G: rows of dB (indexed by kk) are independent; each keeps
  // the serial i-order accumulation.
  ParallelFor(0, k, GrainForCost(static_cast<int64_t>(m) * n),
              [&](int64_t k0, int64_t k1) {
                for (int64_t kk = k0; kk < k1; ++kk) {
                  float* dbrow = db + static_cast<size_t>(kk) * n;
                  for (int i = 0; i < m; ++i) {
                    const float av = a[static_cast<size_t>(i) * k +
                                       static_cast<size_t>(kk)];
                    if (av == 0.0f) continue;
                    const float* grow = g + static_cast<size_t>(i) * n;
                    for (int j = 0; j < n; ++j) dbrow[j] += av * grow[j];
                  }
                }
              });
}

void TransposeForward(const float* a, float* out, int m, int n) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      out[static_cast<size_t>(j) * m + i] = a[static_cast<size_t>(i) * n + j];
    }
  }
}

void TransposeBackward(const float* g, float* da, int m, int n) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      da[static_cast<size_t>(i) * n + j] += g[static_cast<size_t>(j) * m + i];
    }
  }
}

// --- Softmax / layer norm ------------------------------------------------

void SoftmaxRows(float* x, size_t ld, int rows, int width) {
  // Softmax rows (attention rows) are independent: parallel over rows.
  ParallelFor(0, rows, GrainForCost(width), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      float* o = x + static_cast<size_t>(r) * ld;
      float mx = o[0];
      for (int j = 1; j < width; ++j) mx = std::max(mx, o[j]);
      float sum = 0.0f;
      for (int j = 0; j < width; ++j) {
        o[j] = std::exp(o[j] - mx);
        sum += o[j];
      }
      const float inv = 1.0f / sum;
      for (int j = 0; j < width; ++j) o[j] *= inv;
    }
  });
}

void SoftmaxBackward(const float* y, const float* g, float* dx, size_t rows,
                     int d) {
  ParallelFor(0, static_cast<int64_t>(rows), GrainForCost(d),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const float* yr = y + static_cast<size_t>(r) * d;
                  const float* gr = g + static_cast<size_t>(r) * d;
                  float dot = 0.0f;
                  for (int j = 0; j < d; ++j) dot += yr[j] * gr[j];
                  float* dxr = dx + static_cast<size_t>(r) * d;
                  for (int j = 0; j < d; ++j) dxr[j] += yr[j] * (gr[j] - dot);
                }
              });
}

void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float eps, float* out, float* xhat, float* inv_std,
                      int n, int d) {
  // Row statistics are independent: parallel over rows.
  ParallelFor(0, n, GrainForCost(d), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* row = x + static_cast<size_t>(i) * d;
      float mean = 0.0f;
      for (int j = 0; j < d; ++j) mean += row[j];
      mean /= static_cast<float>(d);
      float var = 0.0f;
      for (int j = 0; j < d; ++j) {
        const float c = row[j] - mean;
        var += c * c;
      }
      var /= static_cast<float>(d);
      const float istd = 1.0f / std::sqrt(var + eps);
      if (inv_std != nullptr) inv_std[static_cast<size_t>(i)] = istd;
      float* xh =
          xhat != nullptr ? xhat + static_cast<size_t>(i) * d : nullptr;
      float* o = out + static_cast<size_t>(i) * d;
      for (int j = 0; j < d; ++j) {
        const float xv = (row[j] - mean) * istd;
        if (xh != nullptr) xh[j] = xv;
        o[j] = xv * gamma[j] + beta[j];
      }
    }
  });
}

void LayerNormBackwardParams(const float* g, const float* xhat, float* dgamma,
                             float* dbeta, int n, int d) {
  // dgamma/dbeta reduce over rows. Partitioning over *columns* keeps every
  // destination element accumulating in row order, so results stay
  // bitwise-identical to the serial pass for any thread count.
  ParallelFor(0, d, GrainForCost(n), [&](int64_t j0, int64_t j1) {
    for (int64_t j = j0; j < j1; ++j) {
      for (int i = 0; i < n; ++i) {
        const float* gr = g + static_cast<size_t>(i) * d;
        const float* xh = xhat + static_cast<size_t>(i) * d;
        dgamma[static_cast<size_t>(j)] += gr[j] * xh[j];
        dbeta[static_cast<size_t>(j)] += gr[j];
      }
    }
  });
}

void LayerNormBackwardInput(const float* g, const float* xhat,
                            const float* inv_std, const float* gamma,
                            float* dx, int n, int d) {
  // dx rows are independent given the per-row sums.
  ParallelFor(0, n, GrainForCost(d), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* gr = g + static_cast<size_t>(i) * d;
      const float* xh = xhat + static_cast<size_t>(i) * d;
      const float istd = inv_std[static_cast<size_t>(i)];
      // dxhat = g * gamma; dx via standard layernorm backward.
      float sum_dxh = 0.0f, sum_dxh_xh = 0.0f;
      for (int j = 0; j < d; ++j) {
        const float dxh = gr[j] * gamma[j];
        sum_dxh += dxh;
        sum_dxh_xh += dxh * xh[j];
      }
      float* dxr = dx + static_cast<size_t>(i) * d;
      const float invd = 1.0f / static_cast<float>(d);
      for (int j = 0; j < d; ++j) {
        const float dxh = gr[j] * gamma[j];
        dxr[j] += istd * (dxh - invd * sum_dxh - xh[j] * invd * sum_dxh_xh);
      }
    }
  });
}

// --- Reductions ----------------------------------------------------------

float SumForward(const float* x, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += x[i];
  return s;
}

void MeanRowsForward(const float* x, float* out, int n, int d) {
  for (int i = 0; i < n; ++i) {
    const float* row = x + static_cast<size_t>(i) * d;
    for (int j = 0; j < d; ++j) out[static_cast<size_t>(j)] += row[j];
  }
  const float invn = 1.0f / static_cast<float>(n);
  for (int j = 0; j < d; ++j) out[static_cast<size_t>(j)] *= invn;
}

void MeanRowsBackward(const float* g, float invn, float* dx, int n, int d) {
  for (int i = 0; i < n; ++i) {
    float* dxr = dx + static_cast<size_t>(i) * d;
    for (int j = 0; j < d; ++j) dxr[j] += g[static_cast<size_t>(j)] * invn;
  }
}

void MaxRowsForward(const float* x, float* out, int* argmax, int n, int d) {
  for (int j = 0; j < d; ++j) {
    float best = x[j];
    int best_i = 0;
    for (int i = 1; i < n; ++i) {
      const float v = x[static_cast<size_t>(i) * d + j];
      if (v > best) {
        best = v;
        best_i = i;
      }
    }
    out[static_cast<size_t>(j)] = best;
    if (argmax != nullptr) argmax[static_cast<size_t>(j)] = best_i;
  }
}

void MaxRowsBackward(const float* g, const int* argmax, float* dx, int d) {
  for (int j = 0; j < d; ++j) {
    dx[static_cast<size_t>(argmax[static_cast<size_t>(j)]) * d + j] +=
        g[static_cast<size_t>(j)];
  }
}

void MeanRowsSubsetForward(const float* x, const std::vector<int>& rows,
                           float inv, float* out, int d) {
  for (int r : rows) {
    const float* row = x + static_cast<size_t>(r) * d;
    for (int j = 0; j < d; ++j) out[static_cast<size_t>(j)] += row[j];
  }
  for (int j = 0; j < d; ++j) out[static_cast<size_t>(j)] *= inv;
}

void MeanRowsSubsetBackward(const float* g, const std::vector<int>& rows,
                            float inv, float* dx, int d) {
  for (int r : rows) {
    float* dxr = dx + static_cast<size_t>(r) * d;
    for (int j = 0; j < d; ++j) dxr[j] += g[static_cast<size_t>(j)] * inv;
  }
}

// --- Copies --------------------------------------------------------------

void Copy(const float* src, float* dst, size_t n) {
  std::copy(src, src + n, dst);
}

void CopyRows(const float* src, size_t src_stride, float* dst,
              size_t dst_stride, size_t rows, size_t width) {
  for (size_t r = 0; r < rows; ++r) {
    std::copy(src + r * src_stride, src + r * src_stride + width,
              dst + r * dst_stride);
  }
}

void AccumulateRows(const float* g, size_t g_stride, float* dst,
                    size_t dst_stride, size_t rows, size_t width) {
  for (size_t r = 0; r < rows; ++r) {
    const float* grow = g + r * g_stride;
    float* drow = dst + r * dst_stride;
    for (size_t j = 0; j < width; ++j) drow[j] += grow[j];
  }
}

// --- Lookup / graph ------------------------------------------------------

void GatherForward(const float* weight, int vocab, int d,
                   const std::vector<int>& ids, float* out) {
  const int n = static_cast<int>(ids.size());
  for (int i = 0; i < n; ++i) {
    PREQR_CHECK_GE(ids[static_cast<size_t>(i)], 0);
    PREQR_CHECK_LT(ids[static_cast<size_t>(i)], vocab);
    std::copy(weight + static_cast<size_t>(ids[static_cast<size_t>(i)]) * d,
              weight + static_cast<size_t>(ids[static_cast<size_t>(i)] + 1) * d,
              out + static_cast<size_t>(i) * d);
  }
}

void GatherBackward(const float* g, const std::vector<int>& ids, int d,
                    float* dweight) {
  // Embedding scatter: several positions may hit the same vocabulary row,
  // so the scatter is grouped by destination row. Each group accumulates
  // its positions in ascending position order — exactly the serial order —
  // so any split of groups across threads is bitwise-identical to the
  // single-thread pass.
  std::vector<int> by_dest(ids.size());
  std::iota(by_dest.begin(), by_dest.end(), 0);
  std::stable_sort(by_dest.begin(), by_dest.end(), [&ids](int a, int b) {
    return ids[static_cast<size_t>(a)] < ids[static_cast<size_t>(b)];
  });
  std::vector<size_t> group_start;
  for (size_t i = 0; i < by_dest.size(); ++i) {
    if (i == 0 || ids[static_cast<size_t>(by_dest[i])] !=
                      ids[static_cast<size_t>(by_dest[i - 1])]) {
      group_start.push_back(i);
    }
  }
  group_start.push_back(by_dest.size());
  const int64_t ngroups = static_cast<int64_t>(group_start.size()) - 1;
  ParallelFor(0, ngroups, GrainForCost(d), [&](int64_t g0, int64_t g1) {
    for (int64_t gidx = g0; gidx < g1; ++gidx) {
      for (size_t i = group_start[static_cast<size_t>(gidx)];
           i < group_start[static_cast<size_t>(gidx) + 1]; ++i) {
        const size_t pos = static_cast<size_t>(by_dest[i]);
        const float* grow = g + pos * static_cast<size_t>(d);
        float* dst = dweight + static_cast<size_t>(ids[pos]) * d;
        for (int j = 0; j < d; ++j) dst[j] += grow[j];
      }
    }
  });
}

void SparseAggregateForward(const float* h, const std::vector<Edge>& edges,
                            const std::vector<float>& norm, float* out,
                            int d) {
  for (size_t e = 0; e < edges.size(); ++e) {
    const float w = norm[e];
    const float* src = h + static_cast<size_t>(edges[e].src) * d;
    float* dst = out + static_cast<size_t>(edges[e].dst) * d;
    for (int j = 0; j < d; ++j) dst[j] += w * src[j];
  }
}

void SparseAggregateBackward(const float* g, const std::vector<Edge>& edges,
                             const std::vector<float>& norm, float* dh,
                             int d) {
  for (size_t e = 0; e < edges.size(); ++e) {
    const float w = norm[e];
    const float* grow = g + static_cast<size_t>(edges[e].dst) * d;
    float* dst = dh + static_cast<size_t>(edges[e].src) * d;
    for (int j = 0; j < d; ++j) dst[j] += w * grow[j];
  }
}

// --- Losses --------------------------------------------------------------

float CrossEntropyForward(const float* logits,
                          const std::vector<int>& targets, int ignore_index,
                          int n, int c, float* probs, int* valid_out) {
  // Per-row softmax + log-loss in parallel; the (order-sensitive) double
  // accumulation then runs serially in row order so the total is
  // bitwise-identical for every thread count.
  std::vector<double> row_loss(static_cast<size_t>(n), 0.0);
  ParallelFor(0, n, GrainForCost(c), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* row = logits + static_cast<size_t>(i) * c;
      float* pr = probs + static_cast<size_t>(i) * c;
      float mx = row[0];
      for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
      float sum = 0.0f;
      for (int j = 0; j < c; ++j) {
        pr[j] = std::exp(row[j] - mx);
        sum += pr[j];
      }
      const float inv = 1.0f / sum;
      for (int j = 0; j < c; ++j) pr[j] *= inv;
      const int t = targets[static_cast<size_t>(i)];
      if (t == ignore_index) continue;
      PREQR_CHECK_GE(t, 0);
      PREQR_CHECK_LT(t, c);
      row_loss[static_cast<size_t>(i)] = -std::log(std::max(pr[t], 1e-12f));
    }
  });
  int valid = 0;
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    if (targets[static_cast<size_t>(i)] == ignore_index) continue;
    ++valid;
    loss += row_loss[static_cast<size_t>(i)];
  }
  *valid_out = valid;
  return valid > 0 ? static_cast<float>(loss / valid) : 0.0f;
}

void CrossEntropyBackward(float g, const float* probs,
                          const std::vector<int>& targets, int ignore_index,
                          int n, int c, float* dlogits) {
  ParallelFor(0, n, GrainForCost(c), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const int t = targets[static_cast<size_t>(i)];
      if (t == ignore_index) continue;
      const float* pr = probs + static_cast<size_t>(i) * c;
      float* dl = dlogits + static_cast<size_t>(i) * c;
      for (int j = 0; j < c; ++j) {
        dl[j] += g * (pr[j] - (j == t ? 1.0f : 0.0f));
      }
    }
  });
}

float MseForward(const float* pred, const std::vector<float>& target) {
  const size_t n = target.size();
  double loss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double diff = pred[i] - target[i];
    loss += diff * diff;
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

void MseBackward(float g, const float* pred, const std::vector<float>& target,
                 float* dpred) {
  for (size_t i = 0; i < target.size(); ++i) {
    dpred[i] += g * (pred[i] - target[i]);
  }
}

// --- Dropout -------------------------------------------------------------

void DropoutForward(const float* x, float p, float scale, Rng& rng,
                    float* out, float* mask, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float m = rng.NextFloat() < p ? 0.0f : scale;
    if (mask != nullptr) mask[i] = m;
    out[i] = x[i] * m;
  }
}

void DropoutBackward(const float* g, const float* mask, float* dx, size_t n) {
  for (size_t i = 0; i < n; ++i) dx[i] += g[i] * mask[i];
}

// --- Batched / masked kernels --------------------------------------------
// All batched kernels parallelize over flattened (example, row) pairs: each
// output row belongs to exactly one example and is produced by a serial
// loop that never reads another example's rows, so any ParallelFor split is
// bitwise-identical to the serial pass and to the single-query kernels.

void BatchedMatMulNTBackwardA(const float* g, const float* bt, float* da,
                              int bsz, int t, int k, const int* lengths) {
  const int64_t rows = static_cast<int64_t>(bsz) * t;
  ParallelFor(0, rows, GrainForCost(static_cast<int64_t>(k) * t),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const int b = static_cast<int>(r / t);
                  const int i = static_cast<int>(r % t);
                  const int len = lengths[b];
                  if (i >= len) continue;
                  const float* grow = g + static_cast<size_t>(r) * t;
                  const float* btb = bt + static_cast<size_t>(b) * t * k;
                  float* darow = da + static_cast<size_t>(r) * k;
                  for (int kk = 0; kk < k; ++kk) {
                    float acc = 0.0f;
                    for (int j = 0; j < len; ++j) {
                      acc += grow[j] * btb[static_cast<size_t>(j) * k + kk];
                    }
                    darow[kk] += acc;
                  }
                }
              });
}

void BatchedMatMulNTBackwardB(const float* g, const float* a, float* dbt,
                              int bsz, int t, int k, const int* lengths) {
  // dbt[b,j,:] += sum_i g[b,i,j] * a[b,i,:]; rows (b, j) are independent
  // and each accumulates its i-sum in ascending order.
  const int64_t rows = static_cast<int64_t>(bsz) * t;
  ParallelFor(0, rows, GrainForCost(static_cast<int64_t>(k) * t),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const int b = static_cast<int>(r / t);
                  const int j = static_cast<int>(r % t);
                  const int len = lengths[b];
                  if (j >= len) continue;
                  const float* gb = g + static_cast<size_t>(b) * t * t;
                  const float* ab = a + static_cast<size_t>(b) * t * k;
                  float* drow = dbt + static_cast<size_t>(r) * k;
                  for (int i = 0; i < len; ++i) {
                    const float gv = gb[static_cast<size_t>(i) * t + j];
                    if (gv == 0.0f) continue;
                    const float* arow = ab + static_cast<size_t>(i) * k;
                    for (int kk = 0; kk < k; ++kk) drow[kk] += gv * arow[kk];
                  }
                }
              });
}

void BatchedMatMulNNBackwardW(const float* g, const float* v, float* dw,
                              int bsz, int t, int dv, const int* lengths) {
  const int64_t rows = static_cast<int64_t>(bsz) * t;
  ParallelFor(0, rows, GrainForCost(static_cast<int64_t>(t) * dv),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const int b = static_cast<int>(r / t);
                  const int i = static_cast<int>(r % t);
                  const int len = lengths[b];
                  if (i >= len) continue;
                  const float* grow = g + static_cast<size_t>(r) * dv;
                  const float* vb = v + static_cast<size_t>(b) * t * dv;
                  float* dwrow = dw + static_cast<size_t>(r) * t;
                  for (int j = 0; j < len; ++j) {
                    const float* vrow = vb + static_cast<size_t>(j) * dv;
                    float acc = 0.0f;
                    for (int c = 0; c < dv; ++c) acc += grow[c] * vrow[c];
                    dwrow[j] += acc;
                  }
                }
              });
}

void BatchedMatMulNNBackwardV(const float* w, const float* g, float* dv,
                              int bsz, int t, int dv_dim,
                              const int* lengths) {
  // dv[b,j,:] += sum_i w[b,i,j] * g[b,i,:]; rows (b, j) independent.
  const int64_t rows = static_cast<int64_t>(bsz) * t;
  ParallelFor(0, rows, GrainForCost(static_cast<int64_t>(t) * dv_dim),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const int b = static_cast<int>(r / t);
                  const int j = static_cast<int>(r % t);
                  const int len = lengths[b];
                  if (j >= len) continue;
                  const float* wb = w + static_cast<size_t>(b) * t * t;
                  const float* gb =
                      g + static_cast<size_t>(b) * t * dv_dim;
                  float* drow = dv + static_cast<size_t>(r) * dv_dim;
                  for (int i = 0; i < len; ++i) {
                    const float wv = wb[static_cast<size_t>(i) * t + j];
                    if (wv == 0.0f) continue;
                    const float* grow = gb + static_cast<size_t>(i) * dv_dim;
                    for (int c = 0; c < dv_dim; ++c) drow[c] += wv * grow[c];
                  }
                }
              });
}

void MaskedSoftmaxBackward(const float* y, const float* g, float* dx,
                           int bsz, int t, const int* lengths) {
  const int64_t rows = static_cast<int64_t>(bsz) * t;
  ParallelFor(0, rows, GrainForCost(t), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int b = static_cast<int>(r / t);
      const int i = static_cast<int>(r % t);
      const int len = lengths[b];
      if (i >= len) continue;
      const float* yr = y + static_cast<size_t>(r) * t;
      const float* gr = g + static_cast<size_t>(r) * t;
      float dot = 0.0f;
      for (int j = 0; j < len; ++j) dot += yr[j] * gr[j];
      float* dxr = dx + static_cast<size_t>(r) * t;
      for (int j = 0; j < len; ++j) dxr[j] += yr[j] * (gr[j] - dot);
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
        // The residual sum lands in out, which the row body below then
        // reads and overwrites element by element.
        float* sum = out + static_cast<size_t>(r) * d;
        AddForward(row, residual + static_cast<size_t>(r) * d, sum,
                   static_cast<size_t>(d));
        row = sum;
      }
      // LayerNormForward row body, verbatim.
      float mean = 0.0f;
      for (int j = 0; j < d; ++j) mean += row[j];
      mean /= static_cast<float>(d);
      float var = 0.0f;
      for (int j = 0; j < d; ++j) {
        const float c = row[j] - mean;
        var += c * c;
      }
      var /= static_cast<float>(d);
      const float istd = 1.0f / std::sqrt(var + eps);
      if (inv_std != nullptr) inv_std[static_cast<size_t>(r)] = istd;
      float* xh = xhat != nullptr ? xhat + static_cast<size_t>(r) * d : nullptr;
      float* o = out + static_cast<size_t>(r) * d;
      for (int j = 0; j < d; ++j) {
        const float xv = (row[j] - mean) * istd;
        if (xh != nullptr) xh[j] = xv;
        o[j] = xv * gamma[j] + beta[j];
      }
    }
  });
}

void MaskedLayerNormBackwardParams(const float* g, const float* xhat,
                                   float* dgamma, float* dbeta, int bsz,
                                   int t, int d, const int* lengths) {
  // Partition over columns; each column sums valid rows in (example, row)
  // ascending order, so the reduction is deterministic at any thread count.
  ParallelFor(0, d, GrainForCost(static_cast<int64_t>(bsz) * t),
              [&](int64_t j0, int64_t j1) {
                for (int64_t j = j0; j < j1; ++j) {
                  for (int b = 0; b < bsz; ++b) {
                    const int len = lengths[b];
                    for (int i = 0; i < len; ++i) {
                      const size_t r =
                          static_cast<size_t>(b) * t + static_cast<size_t>(i);
                      const float* gr = g + r * d;
                      const float* xh = xhat + r * d;
                      dgamma[static_cast<size_t>(j)] += gr[j] * xh[j];
                      dbeta[static_cast<size_t>(j)] += gr[j];
                    }
                  }
                }
              });
}

void MaskedLayerNormBackwardInput(const float* g, const float* xhat,
                                  const float* inv_std, const float* gamma,
                                  float* dx, int bsz, int t, int d,
                                  const int* lengths) {
  const int64_t rows = static_cast<int64_t>(bsz) * t;
  ParallelFor(0, rows, GrainForCost(d), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int b = static_cast<int>(r / t);
      const int i = static_cast<int>(r % t);
      if (i >= lengths[b]) continue;
      const float* gr = g + static_cast<size_t>(r) * d;
      const float* xh = xhat + static_cast<size_t>(r) * d;
      const float istd = inv_std[static_cast<size_t>(r)];
      float sum_dxh = 0.0f, sum_dxh_xh = 0.0f;
      for (int j = 0; j < d; ++j) {
        const float dxh = gr[j] * gamma[j];
        sum_dxh += dxh;
        sum_dxh_xh += dxh * xh[j];
      }
      float* dxr = dx + static_cast<size_t>(r) * d;
      const float invd = 1.0f / static_cast<float>(d);
      for (int j = 0; j < d; ++j) {
        const float dxh = gr[j] * gamma[j];
        dxr[j] += istd * (dxh - invd * sum_dxh - xh[j] * invd * sum_dxh_xh);
      }
    }
  });
}

float MaskedCrossEntropyForward(const float* logits,
                                const std::vector<int>& targets,
                                int ignore_index, int bsz, int t, int c,
                                const int* lengths, float* probs,
                                std::vector<int>* valid_out,
                                std::vector<float>* example_loss) {
  // Per-row softmax + log-loss in parallel (valid rows only); the
  // order-sensitive double accumulation then runs serially per example so
  // each example's mean is bitwise what CrossEntropyForward returns for
  // its rows alone.
  const int64_t rows = static_cast<int64_t>(bsz) * t;
  std::vector<double> row_loss(static_cast<size_t>(rows), 0.0);
  ParallelFor(0, rows, GrainForCost(c), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int b = static_cast<int>(r / t);
      const int i = static_cast<int>(r % t);
      if (i >= lengths[b]) continue;
      const float* row = logits + static_cast<size_t>(r) * c;
      float* pr = probs + static_cast<size_t>(r) * c;
      float mx = row[0];
      for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
      float sum = 0.0f;
      for (int j = 0; j < c; ++j) {
        pr[j] = std::exp(row[j] - mx);
        sum += pr[j];
      }
      const float inv = 1.0f / sum;
      for (int j = 0; j < c; ++j) pr[j] *= inv;
      const int tgt = targets[static_cast<size_t>(r)];
      if (tgt == ignore_index) continue;
      PREQR_CHECK_GE(tgt, 0);
      PREQR_CHECK_LT(tgt, c);
      row_loss[static_cast<size_t>(r)] = -std::log(std::max(pr[tgt], 1e-12f));
    }
  });
  valid_out->assign(static_cast<size_t>(bsz), 0);
  if (example_loss != nullptr) {
    example_loss->assign(static_cast<size_t>(bsz), 0.0f);
  }
  // Float chain sum over examples mirrors the retired per-example
  // Add(...)/Scale(1/bsz) tape, so reported losses stay comparable.
  float total = 0.0f;
  for (int b = 0; b < bsz; ++b) {
    int valid = 0;
    double loss = 0.0;
    const int len = lengths[b];
    for (int i = 0; i < len; ++i) {
      const size_t r = static_cast<size_t>(b) * t + static_cast<size_t>(i);
      if (targets[r] == ignore_index) continue;
      ++valid;
      loss += row_loss[r];
    }
    (*valid_out)[static_cast<size_t>(b)] = valid;
    const float mean =
        valid > 0 ? static_cast<float>(loss / valid) : 0.0f;
    if (example_loss != nullptr) {
      (*example_loss)[static_cast<size_t>(b)] = mean;
    }
    total += mean;
  }
  return total * (1.0f / static_cast<float>(bsz));
}

void MaskedCrossEntropyBackward(float g, const float* probs,
                                const std::vector<int>& targets,
                                int ignore_index, int bsz, int t, int c,
                                const int* lengths,
                                const std::vector<int>& valid,
                                float* dlogits) {
  const float gb = g * (1.0f / static_cast<float>(bsz));
  const int64_t rows = static_cast<int64_t>(bsz) * t;
  ParallelFor(0, rows, GrainForCost(c), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int b = static_cast<int>(r / t);
      const int i = static_cast<int>(r % t);
      if (i >= lengths[b]) continue;
      const int tgt = targets[static_cast<size_t>(r)];
      if (tgt == ignore_index) continue;
      const int v = valid[static_cast<size_t>(b)];
      if (v == 0) continue;
      const float gr = gb / static_cast<float>(v);
      const float* pr = probs + static_cast<size_t>(r) * c;
      float* dl = dlogits + static_cast<size_t>(r) * c;
      for (int j = 0; j < c; ++j) {
        dl[j] += gr * (pr[j] - (j == tgt ? 1.0f : 0.0f));
      }
    }
  });
}

void MaskedDropoutForward(const float* x, float p, float scale,
                          const uint64_t* seeds, float* out, float* mask,
                          int bsz, int t, int d, const int* lengths) {
  // One RNG stream per example, consumed serially inside the example —
  // exactly the draw sequence the single-example DropoutForward makes —
  // so scheduling and batch composition cannot change any mask bit.
  ParallelFor(0, bsz, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const int len = lengths[b];
      const size_t n = static_cast<size_t>(len) * static_cast<size_t>(d);
      const size_t off =
          static_cast<size_t>(b) * static_cast<size_t>(t) * d;
      Rng rng(seeds[b]);
      DropoutForward(x + off, p, scale, rng, out + off,
                     mask != nullptr ? mask + off : nullptr, n);
    }
  });
}

}  // namespace preqr::nn::kernels
