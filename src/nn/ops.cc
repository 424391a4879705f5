#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/thread_pool.h"
#include "nn/kernels.h"
#include "nn/kernels_dispatch.h"

// Tape-wiring layer: every op here (1) validates shapes, (2) calls its
// compute kernel from nn/kernels.h, and (3) — only when grad mode is on
// and some input requires grad — wires parents + a grad_fn closure that
// calls the matching backward kernels. Under NoGradGuard step (3) is
// skipped entirely: no closure, no parent references, and the output's
// storage comes from the thread-local BufferPool (see tensor.cc).
//
// The hot forward kernels go through kernels::Active() (runtime-dispatched
// scalar/AVX2/AVX-512, see kernels_dispatch.h). Every backward kernel is
// called directly — the grad path stays scalar and bitwise-unchanged. The
// fused ops (Affine, Attention, MaskedAddLayerNorm) run one forward with
// the tape on or off; with it on they keep what backward needs and replay
// the composed ops' backward kernels in the composed tape's order.

namespace preqr::nn {

namespace {

// True if this op must record itself on the tape: grad mode is on and at
// least one input requires grad. The variadic form avoids materializing a
// parents vector on the (tape-off) fast path.
template <typename... Ts>
bool NeedsTape(const Ts&... parents) {
  return GradMode::enabled() && (... || parents.requires_grad());
}

bool NeedsTape(const std::vector<Tensor>& parents) {
  if (!GradMode::enabled()) return false;
  for (const auto& p : parents) {
    if (p.requires_grad()) return true;
  }
  return false;
}

// True if gradients should flow into `t`: it is a parameter/leaf that
// requires grad, or an intermediate whose own grad_fn needs them.
bool Wants(const std::shared_ptr<TensorImpl>& t) {
  return t->requires_grad || !t->parents.empty();
}

void AccumulateGrad(const std::shared_ptr<TensorImpl>& t, const float* g,
                    size_t n) {
  if (!Wants(t)) return;
  t->EnsureGrad();
  kernels::Accumulate(g, t->grad.data(), n);
}

// Records the op on the tape: marks the output as grad-carrying and
// attaches its parents and backward closure. Callers must have checked
// NeedsTape first.
void Wire(Tensor& out, std::vector<std::shared_ptr<TensorImpl>> parents,
          std::function<void(TensorImpl*)> grad_fn) {
  out.impl()->requires_grad = true;
  out.impl()->parents = std::move(parents);
  out.impl()->grad_fn = std::move(grad_fn);
}

// Shared shape bookkeeping for the [B, T, ...] ops: validates the batch
// layout and that lengths fit inside the padded extent.
void CheckBatchLengths(const Tensor& x, const std::vector<int>& lengths) {
  PREQR_CHECK_EQ(x.ndim(), 3);
  PREQR_CHECK_EQ(static_cast<int>(lengths.size()), x.dim(0));
  for (int len : lengths) {
    PREQR_CHECK_GE(len, 0);
    PREQR_CHECK_LE(len, x.dim(1));
  }
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  PREQR_CHECK(a.shape() == b.shape());
  Tensor out = Tensor::Zeros(a.shape());
  kernels::AddForward(a.data(), b.data(), out.data(), out.vec().size());
  if (!NeedsTape(a, b)) return out;
  auto ai = a.impl(), bi = b.impl();
  Wire(out, {ai, bi}, [ai, bi](TensorImpl* self) {
    AccumulateGrad(ai, self->grad.data(), self->grad.size());
    AccumulateGrad(bi, self->grad.data(), self->grad.size());
  });
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  PREQR_CHECK(a.shape() == b.shape());
  Tensor out = Tensor::Zeros(a.shape());
  kernels::SubForward(a.data(), b.data(), out.data(), out.vec().size());
  if (!NeedsTape(a, b)) return out;
  auto ai = a.impl(), bi = b.impl();
  Wire(out, {ai, bi}, [ai, bi](TensorImpl* self) {
    AccumulateGrad(ai, self->grad.data(), self->grad.size());
    if (!Wants(bi)) return;
    bi->EnsureGrad();
    kernels::AccumulateNeg(self->grad.data(), bi->grad.data(),
                           self->grad.size());
  });
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  PREQR_CHECK(a.shape() == b.shape());
  Tensor out = Tensor::Zeros(a.shape());
  kernels::MulForward(a.data(), b.data(), out.data(), out.vec().size());
  if (!NeedsTape(a, b)) return out;
  auto ai = a.impl(), bi = b.impl();
  Wire(out, {ai, bi}, [ai, bi](TensorImpl* self) {
    const size_t n = self->grad.size();
    if (Wants(ai)) {
      ai->EnsureGrad();
      kernels::AccumulateMul(self->grad.data(), bi->data.data(),
                             ai->grad.data(), n);
    }
    if (Wants(bi)) {
      bi->EnsureGrad();
      kernels::AccumulateMul(self->grad.data(), ai->data.data(),
                             bi->grad.data(), n);
    }
  });
  return out;
}

Tensor Scale(const Tensor& a, float c) {
  Tensor out = Tensor::Zeros(a.shape());
  kernels::ScaleForward(a.data(), c, out.data(), out.vec().size());
  if (!NeedsTape(a)) return out;
  auto ai = a.impl();
  Wire(out, {ai}, [ai, c](TensorImpl* self) {
    if (!Wants(ai)) return;
    ai->EnsureGrad();
    kernels::AccumulateScaled(self->grad.data(), c, ai->grad.data(),
                              self->grad.size());
  });
  return out;
}

Tensor AddScalar(const Tensor& a, float c) {
  Tensor out = Tensor::Zeros(a.shape());
  kernels::AddScalarForward(a.data(), c, out.data(), out.vec().size());
  if (!NeedsTape(a)) return out;
  auto ai = a.impl();
  Wire(out, {ai}, [ai](TensorImpl* self) {
    AccumulateGrad(ai, self->grad.data(), self->grad.size());
  });
  return out;
}

Tensor AddBias(const Tensor& x, const Tensor& bias) {
  PREQR_CHECK_EQ(bias.ndim(), 1);
  const int d = bias.dim(0);
  PREQR_CHECK_EQ(x.dim(x.ndim() - 1), d);
  const size_t rows = x.vec().size() / static_cast<size_t>(d);
  Tensor out = Tensor::Zeros(x.shape());
  kernels::Active().AddBiasForward(x.data(), bias.data(), out.data(), rows, d);
  if (!NeedsTape(x, bias)) return out;
  auto xi = x.impl(), bi = bias.impl();
  Wire(out, {xi, bi}, [xi, bi, d](TensorImpl* self) {
    AccumulateGrad(xi, self->grad.data(), self->grad.size());
    if (!Wants(bi)) return;
    bi->EnsureGrad();
    const size_t rows2 = self->grad.size() / static_cast<size_t>(d);
    kernels::AddBiasBackwardBias(self->grad.data(), bi->grad.data(), rows2, d);
  });
  return out;
}

Tensor Relu(const Tensor& x) {
  Tensor out = Tensor::Zeros(x.shape());
  kernels::Active().ReluForward(x.data(), out.data(), out.vec().size());
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::ReluBackward(xi->data.data(), self->grad.data(), xi->grad.data(),
                          self->grad.size());
  });
  return out;
}

Tensor Gelu(const Tensor& x) {
  Tensor out = Tensor::Zeros(x.shape());
  kernels::Active().GeluForward(x.data(), out.data(), out.vec().size());
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::GeluBackward(xi->data.data(), self->grad.data(), xi->grad.data(),
                          self->grad.size());
  });
  return out;
}

Tensor Tanh(const Tensor& x) {
  Tensor out = Tensor::Zeros(x.shape());
  kernels::Active().TanhForward(x.data(), out.data(), out.vec().size());
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::TanhBackward(self->data.data(), self->grad.data(),
                          xi->grad.data(), self->grad.size());
  });
  return out;
}

Tensor Sigmoid(const Tensor& x) {
  Tensor out = Tensor::Zeros(x.shape());
  kernels::Active().SigmoidForward(x.data(), out.data(), out.vec().size());
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::SigmoidBackward(self->data.data(), self->grad.data(),
                             xi->grad.data(), self->grad.size());
  });
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return Affine(a, b, Tensor());
}

Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& bias,
              Activation act, const std::vector<int>& lengths) {
  PREQR_CHECK_GE(x.ndim(), 2);
  PREQR_CHECK_EQ(w.ndim(), 2);
  const int k = x.dim(x.ndim() - 1), n = w.dim(1);
  PREQR_CHECK_EQ(w.dim(0), k);
  const bool has_bias = bias.defined();
  if (has_bias) {
    PREQR_CHECK_EQ(bias.ndim(), 1);
    PREQR_CHECK_EQ(bias.dim(0), n);
  }
  const bool gelu = act == Activation::kGelu;
  PREQR_CHECK(has_bias || !gelu);
  if (!lengths.empty()) CheckBatchLengths(x, lengths);
  const int m = static_cast<int>(x.vec().size() / static_cast<size_t>(k));
  Shape shape = x.shape();
  shape[static_cast<size_t>(x.ndim() - 1)] = n;
  Tensor out = Tensor::Zeros(std::move(shape));
  // Calls fn(first_row, rows) for every block of rows to compute: all m
  // rows, or each example's valid rows.
  auto for_valid_rows = [&](auto&& fn) {
    if (lengths.empty()) {
      fn(0, m);
      return;
    }
    const int t = x.dim(1);
    for (size_t b = 0; b < lengths.size(); ++b) {
      if (lengths[b] > 0) fn(static_cast<int>(b) * t, lengths[b]);
    }
  };
  const kernels::KernelTable& tab = kernels::Active();
  const bool tape = has_bias ? NeedsTape(x, w, bias) : NeedsTape(x, w);
  // Under the tape a GELU layer keeps its pre-activation for GeluBackward:
  // the Gemm stops at the bias and the GELU runs as a second pass.
  std::shared_ptr<std::vector<float>> pre;
  if (tape && gelu) {
    pre = std::make_shared<std::vector<float>>(static_cast<size_t>(m) * n);
  }
  kernels::GemmEpilogue ep;
  if (has_bias) {
    ep = gelu && !tape ? kernels::GemmEpilogue::BiasGelu(bias.data())
                       : kernels::GemmEpilogue::Bias(bias.data());
  }
  float* dst = pre != nullptr ? pre->data() : out.data();
  for_valid_rows([&](int r0, int rows) {
    const size_t off = static_cast<size_t>(r0) * n;
    tab.Gemm(x.data() + static_cast<size_t>(r0) * k, static_cast<size_t>(k),
             w.data(), static_cast<size_t>(n), dst + off,
             static_cast<size_t>(n), rows, k, n, ep);
    if (pre != nullptr) {
      tab.GeluForward(dst + off, out.data() + off,
                      static_cast<size_t>(rows) * n);
    }
  });
  if (!tape) return out;
  auto xi = x.impl(), wi = w.impl();
  std::shared_ptr<TensorImpl> bi = has_bias ? bias.impl() : nullptr;
  std::vector<std::shared_ptr<TensorImpl>> parents = {xi, wi};
  if (bi != nullptr) parents.push_back(bi);
  // The composed tape ran Gelu, AddBias, then MatMul's backward.
  Wire(out, std::move(parents), [xi, wi, bi, pre, m, k, n](TensorImpl* self) {
    const size_t size = static_cast<size_t>(m) * n;
    const float* g = self->grad.data();
    std::vector<float> dpre;
    if (pre != nullptr) {
      dpre.assign(size, 0.0f);
      kernels::GeluBackward(pre->data(), g, dpre.data(), size);
      g = dpre.data();
    }
    if (bi != nullptr && Wants(bi)) {
      bi->EnsureGrad();
      kernels::AddBiasBackwardBias(g, bi->grad.data(), static_cast<size_t>(m),
                                   n);
    }
    if (Wants(xi)) {
      xi->EnsureGrad();
      kernels::MatMulBackwardA(g, wi->data.data(), xi->grad.data(), m, k, n);
    }
    if (Wants(wi)) {
      wi->EnsureGrad();
      kernels::MatMulBackwardB(xi->data.data(), g, wi->grad.data(), m, k, n);
    }
  });
  return out;
}

Tensor Transpose(const Tensor& a) {
  PREQR_CHECK_EQ(a.ndim(), 2);
  const int m = a.dim(0), n = a.dim(1);
  Tensor out = Tensor::Zeros({n, m});
  kernels::TransposeForward(a.data(), out.data(), m, n);
  if (!NeedsTape(a)) return out;
  auto ai = a.impl();
  Wire(out, {ai}, [ai, m, n](TensorImpl* self) {
    if (!Wants(ai)) return;
    ai->EnsureGrad();
    kernels::TransposeBackward(self->grad.data(), ai->grad.data(), m, n);
  });
  return out;
}

Tensor SoftmaxLastDim(const Tensor& x) {
  const int d = x.dim(x.ndim() - 1);
  const size_t rows = x.vec().size() / static_cast<size_t>(d);
  Tensor out = Tensor::Zeros(x.shape());
  kernels::Copy(x.data(), out.data(), x.vec().size());
  kernels::Active().SoftmaxRows(out.data(), static_cast<size_t>(d),
                                static_cast<int>(rows), d);
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, d](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    const size_t rows2 = self->grad.size() / static_cast<size_t>(d);
    kernels::SoftmaxBackward(self->data.data(), self->grad.data(),
                             xi->grad.data(), rows2, d);
  });
  return out;
}

Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps) {
  PREQR_CHECK_GE(x.ndim(), 2);
  const int d = x.dim(x.ndim() - 1);
  const int n = static_cast<int>(x.vec().size() / static_cast<size_t>(d));
  PREQR_CHECK_EQ(gamma.dim(0), d);
  PREQR_CHECK_EQ(beta.dim(0), d);
  Tensor out = Tensor::Zeros(x.shape());
  const bool tape = NeedsTape(x, gamma, beta);
  // xhat / inv_std are only saved when a backward pass will need them.
  std::shared_ptr<std::vector<float>> xhat_s, istd_s;
  if (tape) {
    xhat_s = std::make_shared<std::vector<float>>(
        static_cast<size_t>(n) * static_cast<size_t>(d));
    istd_s = std::make_shared<std::vector<float>>(static_cast<size_t>(n));
  }
  kernels::Active().LayerNormForward(x.data(), gamma.data(), beta.data(), eps,
                                     out.data(), tape ? xhat_s->data() : nullptr,
                                     tape ? istd_s->data() : nullptr, n, d);
  if (!tape) return out;
  auto xi = x.impl(), gi = gamma.impl(), bi = beta.impl();
  Wire(out, {xi, gi, bi}, [xi, gi, bi, xhat_s, istd_s, n, d](TensorImpl* self) {
    xi->EnsureGrad();
    gi->EnsureGrad();
    bi->EnsureGrad();
    kernels::LayerNormBackwardParams(self->grad.data(), xhat_s->data(),
                                     gi->grad.data(), bi->grad.data(), n, d);
    if (!Wants(xi)) return;
    kernels::LayerNormBackwardInput(self->grad.data(), xhat_s->data(),
                                    istd_s->data(), gi->data.data(),
                                    xi->grad.data(), n, d);
  });
  return out;
}

Tensor Sum(const Tensor& x) {
  Tensor out = Tensor::Zeros({1});
  out.vec()[0] = kernels::SumForward(x.data(), x.vec().size());
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::AccumulateConst(self->grad[0], xi->grad.data(), xi->grad.size());
  });
  return out;
}

Tensor Mean(const Tensor& x) {
  const float invn = 1.0f / static_cast<float>(x.size());
  Tensor out = Tensor::Zeros({1});
  out.vec()[0] = kernels::SumForward(x.data(), x.vec().size()) * invn;
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, invn](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::AccumulateConst(self->grad[0] * invn, xi->grad.data(),
                             xi->grad.size());
  });
  return out;
}

Tensor MeanRows(const Tensor& x) {
  PREQR_CHECK_EQ(x.ndim(), 2);
  const int n = x.dim(0), d = x.dim(1);
  Tensor out = Tensor::Zeros({d});
  kernels::MeanRowsForward(x.data(), out.data(), n, d);
  if (!NeedsTape(x)) return out;
  const float invn = 1.0f / static_cast<float>(n);
  auto xi = x.impl();
  Wire(out, {xi}, [xi, n, d, invn](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::MeanRowsBackward(self->grad.data(), invn, xi->grad.data(), n, d);
  });
  return out;
}

Tensor MaxRows(const Tensor& x) {
  PREQR_CHECK_EQ(x.ndim(), 2);
  const int n = x.dim(0), d = x.dim(1);
  PREQR_CHECK_GT(n, 0);
  Tensor out = Tensor::Zeros({d});
  const bool tape = NeedsTape(x);
  std::shared_ptr<std::vector<int>> argmax;
  if (tape) {
    argmax = std::make_shared<std::vector<int>>(static_cast<size_t>(d), 0);
  }
  kernels::MaxRowsForward(x.data(), out.data(),
                          tape ? argmax->data() : nullptr, n, d);
  if (!tape) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, argmax, d](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::MaxRowsBackward(self->grad.data(), argmax->data(),
                             xi->grad.data(), d);
  });
  return out;
}

Tensor MeanRowsSubset(const Tensor& x, const std::vector<int>& rows) {
  PREQR_CHECK_EQ(x.ndim(), 2);
  const int d = x.dim(1);
  if (rows.empty()) return Tensor::Zeros({d});
  const float inv = 1.0f / static_cast<float>(rows.size());
  Tensor out = Tensor::Zeros({d});
  kernels::MeanRowsSubsetForward(x.data(), rows, inv, out.data(), d);
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, rows, d, inv](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::MeanRowsSubsetBackward(self->grad.data(), rows, inv,
                                    xi->grad.data(), d);
  });
  return out;
}

Tensor Reshape(const Tensor& x, Shape new_shape) {
  Index n = 1;
  for (int d : new_shape) n *= d;
  PREQR_CHECK_EQ(n, x.size());
  Tensor out = Tensor::Zeros(std::move(new_shape));
  kernels::Copy(x.data(), out.data(), x.vec().size());
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi](TensorImpl* self) {
    AccumulateGrad(xi, self->grad.data(), self->grad.size());
  });
  return out;
}

Tensor ConcatLastDim(const std::vector<Tensor>& xs) {
  PREQR_CHECK(!xs.empty());
  const int nd = xs[0].ndim();
  size_t rows = 1;
  for (int i = 0; i + 1 < nd; ++i) rows *= static_cast<size_t>(xs[0].dim(i));
  int total_d = 0;
  for (const auto& t : xs) {
    PREQR_CHECK_EQ(t.ndim(), nd);
    size_t r = 1;
    for (int i = 0; i + 1 < nd; ++i) r *= static_cast<size_t>(t.dim(i));
    PREQR_CHECK_EQ(r, rows);
    total_d += t.dim(nd - 1);
  }
  Shape shape = xs[0].shape();
  shape[static_cast<size_t>(nd - 1)] = total_d;
  Tensor out = Tensor::Zeros(std::move(shape));
  std::vector<int> widths;
  widths.reserve(xs.size());
  int off = 0;
  for (const auto& t : xs) {
    const int d = t.dim(nd - 1);
    widths.push_back(d);
    kernels::CopyRows(t.data(), static_cast<size_t>(d), out.data() + off,
                      static_cast<size_t>(total_d), rows,
                      static_cast<size_t>(d));
    off += d;
  }
  if (!NeedsTape(xs)) return out;
  std::vector<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(xs.size());
  for (const auto& t : xs) impls.push_back(t.impl());
  Wire(out, impls, [impls, widths, rows, total_d](TensorImpl* self) {
    int off2 = 0;
    for (size_t t = 0; t < impls.size(); ++t) {
      const int d = widths[t];
      auto& ti = impls[t];
      if (!Wants(ti)) {
        off2 += d;
        continue;
      }
      ti->EnsureGrad();
      kernels::AccumulateRows(self->grad.data() + off2,
                              static_cast<size_t>(total_d), ti->grad.data(),
                              static_cast<size_t>(d), rows,
                              static_cast<size_t>(d));
      off2 += d;
    }
  });
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& xs) {
  PREQR_CHECK(!xs.empty());
  size_t inner = xs[0].vec().size() / static_cast<size_t>(xs[0].dim(0));
  int total_rows = 0;
  for (const auto& t : xs) {
    PREQR_CHECK_EQ(t.vec().size() / static_cast<size_t>(t.dim(0)), inner);
    total_rows += t.dim(0);
  }
  Shape shape = xs[0].shape();
  shape[0] = total_rows;
  Tensor out = Tensor::Zeros(std::move(shape));
  size_t off = 0;
  for (const auto& t : xs) {
    kernels::Copy(t.data(), out.data() + off, t.vec().size());
    off += t.vec().size();
  }
  if (!NeedsTape(xs)) return out;
  std::vector<std::shared_ptr<TensorImpl>> impls;
  std::vector<size_t> sizes;
  for (const auto& t : xs) {
    impls.push_back(t.impl());
    sizes.push_back(t.vec().size());
  }
  Wire(out, impls, [impls, sizes](TensorImpl* self) {
    size_t off2 = 0;
    for (size_t t = 0; t < impls.size(); ++t) {
      AccumulateGrad(impls[t], self->grad.data() + off2, sizes[t]);
      off2 += sizes[t];
    }
  });
  return out;
}

Tensor SliceLastDim(const Tensor& x, int start, int len) {
  const int nd = x.ndim();
  const int d = x.dim(nd - 1);
  PREQR_CHECK_GE(start, 0);
  PREQR_CHECK_LE(start + len, d);
  const size_t rows = x.vec().size() / static_cast<size_t>(d);
  Shape shape = x.shape();
  shape[static_cast<size_t>(nd - 1)] = len;
  Tensor out = Tensor::Zeros(std::move(shape));
  kernels::CopyRows(x.data() + start, static_cast<size_t>(d), out.data(),
                    static_cast<size_t>(len), rows, static_cast<size_t>(len));
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, start, len, d, rows](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::AccumulateRows(self->grad.data(), static_cast<size_t>(len),
                            xi->grad.data() + start, static_cast<size_t>(d),
                            rows, static_cast<size_t>(len));
  });
  return out;
}

Tensor SliceRows(const Tensor& x, int start, int len) {
  const int n = x.dim(0);
  PREQR_CHECK_GE(start, 0);
  PREQR_CHECK_LE(start + len, n);
  const size_t inner = x.vec().size() / static_cast<size_t>(n);
  Shape shape = x.shape();
  shape[0] = len;
  Tensor out = Tensor::Zeros(std::move(shape));
  kernels::Copy(x.data() + static_cast<size_t>(start) * inner, out.data(),
                static_cast<size_t>(len) * inner);
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, start, inner](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::Accumulate(self->grad.data(),
                        xi->grad.data() + static_cast<size_t>(start) * inner,
                        self->grad.size());
  });
  return out;
}

Tensor Gather(const Tensor& weight, const std::vector<int>& ids) {
  PREQR_CHECK_EQ(weight.ndim(), 2);
  const int v = weight.dim(0), d = weight.dim(1);
  const int n = static_cast<int>(ids.size());
  Tensor out = Tensor::Zeros({n, d});
  kernels::GatherForward(weight.data(), v, d, ids, out.data());
  if (!NeedsTape(weight)) return out;
  auto wi = weight.impl();
  Wire(out, {wi}, [wi, ids, d](TensorImpl* self) {
    if (!Wants(wi)) return;
    wi->EnsureGrad();
    kernels::GatherBackward(self->grad.data(), ids, d, wi->grad.data());
  });
  return out;
}

Tensor SparseAggregate(const Tensor& h, const std::vector<Edge>& edges,
                       const std::vector<float>& norm) {
  PREQR_CHECK_EQ(h.ndim(), 2);
  PREQR_CHECK_EQ(edges.size(), norm.size());
  const int n = h.dim(0), d = h.dim(1);
  Tensor out = Tensor::Zeros({n, d});
  kernels::SparseAggregateForward(h.data(), edges, norm, out.data(), d);
  if (!NeedsTape(h)) return out;
  auto hi = h.impl();
  Wire(out, {hi}, [hi, edges, norm, d](TensorImpl* self) {
    if (!Wants(hi)) return;
    hi->EnsureGrad();
    kernels::SparseAggregateBackward(self->grad.data(), edges, norm,
                                     hi->grad.data(), d);
  });
  return out;
}

Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                    int ignore_index) {
  PREQR_CHECK_EQ(logits.ndim(), 2);
  const int n = logits.dim(0), c = logits.dim(1);
  PREQR_CHECK_EQ(static_cast<int>(targets.size()), n);
  // The kernel needs the probs buffer as scratch either way; it is only
  // *retained* (captured by the closure) when backward will run.
  auto probs = std::make_shared<std::vector<float>>(
      static_cast<size_t>(n) * static_cast<size_t>(c));
  int valid = 0;
  Tensor out = Tensor::Zeros({1});
  out.vec()[0] = kernels::CrossEntropyForward(
      logits.data(), targets, ignore_index, n, c, probs->data(), &valid);
  if (!NeedsTape(logits)) return out;
  auto li = logits.impl();
  Wire(out, {li},
       [li, probs, targets, ignore_index, n, c, valid](TensorImpl* self) {
         if (valid == 0 || !Wants(li)) return;
         li->EnsureGrad();
         const float g = self->grad[0] / static_cast<float>(valid);
         kernels::CrossEntropyBackward(g, probs->data(), targets,
                                       ignore_index, n, c, li->grad.data());
       });
  return out;
}

Tensor MseLoss(const Tensor& pred, const std::vector<float>& target) {
  PREQR_CHECK_EQ(pred.vec().size(), target.size());
  const size_t n = target.size();
  Tensor out = Tensor::Zeros({1});
  out.vec()[0] = kernels::MseForward(pred.data(), target);
  if (!NeedsTape(pred)) return out;
  auto pi = pred.impl();
  Wire(out, {pi}, [pi, target, n](TensorImpl* self) {
    if (!Wants(pi)) return;
    pi->EnsureGrad();
    const float g = self->grad[0] * 2.0f / static_cast<float>(n);
    kernels::MseBackward(g, pi->data.data(), target, pi->grad.data());
  });
  return out;
}

Tensor Dropout(const Tensor& x, float p, Rng& rng, bool train) {
  if (!train || p <= 0.0f) return x;
  const float scale = 1.0f / (1.0f - p);
  const bool tape = NeedsTape(x);
  // The rng is consumed identically with or without the tape; only the
  // mask's retention differs.
  std::shared_ptr<std::vector<float>> mask;
  if (tape) mask = std::make_shared<std::vector<float>>(x.vec().size());
  Tensor out = Tensor::Zeros(x.shape());
  kernels::DropoutForward(x.data(), p, scale, rng, out.data(),
                          tape ? mask->data() : nullptr, out.vec().size());
  if (!tape) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, mask](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::DropoutBackward(self->grad.data(), mask->data(), xi->grad.data(),
                             self->grad.size());
  });
  return out;
}

// --- Batched / masked ops -------------------------------------------------

Tensor BatchedMatMulNT(const Tensor& a, const Tensor& b,
                       const std::vector<int>& lengths) {
  CheckBatchLengths(a, lengths);
  PREQR_CHECK(a.shape() == b.shape());
  const int bsz = a.dim(0), t = a.dim(1), k = a.dim(2);
  Tensor out = Tensor::Zeros({bsz, t, t});
  // Per example: out_b = a_b x bᵀ_b over the valid rows, one Gemm against
  // a transposed copy of b_b's valid rows.
  std::vector<float> bt;
  for (int e = 0; e < bsz; ++e) {
    const int len = lengths[static_cast<size_t>(e)];
    if (len == 0) continue;
    const size_t off = static_cast<size_t>(e) * t * k;
    bt.resize(static_cast<size_t>(k) * len);
    kernels::TransposeForward(b.data() + off, bt.data(), len, k);
    kernels::Active().Gemm(a.data() + off, static_cast<size_t>(k), bt.data(),
                           static_cast<size_t>(len),
                           out.data() + static_cast<size_t>(e) * t * t,
                           static_cast<size_t>(t), len, k, len, {});
  }
  if (!NeedsTape(a, b)) return out;
  auto ai = a.impl(), bi = b.impl();
  Wire(out, {ai, bi}, [ai, bi, bsz, t, k, lengths](TensorImpl* self) {
    const float* g = self->grad.data();
    if (Wants(ai)) {
      ai->EnsureGrad();
      kernels::BatchedMatMulNTBackwardA(g, bi->data.data(), ai->grad.data(),
                                        bsz, t, k, lengths.data());
    }
    if (Wants(bi)) {
      bi->EnsureGrad();
      kernels::BatchedMatMulNTBackwardB(g, ai->data.data(), bi->grad.data(),
                                        bsz, t, k, lengths.data());
    }
  });
  return out;
}

Tensor BatchedMatMulNN(const Tensor& w, const Tensor& v,
                       const std::vector<int>& lengths) {
  CheckBatchLengths(v, lengths);
  PREQR_CHECK_EQ(w.ndim(), 3);
  PREQR_CHECK_EQ(w.dim(0), v.dim(0));
  PREQR_CHECK_EQ(w.dim(1), v.dim(1));
  PREQR_CHECK_EQ(w.dim(2), v.dim(1));
  const int bsz = v.dim(0), t = v.dim(1), dv = v.dim(2);
  Tensor out = Tensor::Zeros({bsz, t, dv});
  for (int e = 0; e < bsz; ++e) {
    const int len = lengths[static_cast<size_t>(e)];
    if (len == 0) continue;
    const size_t off = static_cast<size_t>(e) * t;
    kernels::Active().Gemm(w.data() + off * t, static_cast<size_t>(t),
                           v.data() + off * dv, static_cast<size_t>(dv),
                           out.data() + off * dv, static_cast<size_t>(dv),
                           len, len, dv, {});
  }
  if (!NeedsTape(w, v)) return out;
  auto wi = w.impl(), vi = v.impl();
  Wire(out, {wi, vi}, [wi, vi, bsz, t, dv, lengths](TensorImpl* self) {
    const float* g = self->grad.data();
    if (Wants(wi)) {
      wi->EnsureGrad();
      kernels::BatchedMatMulNNBackwardW(g, vi->data.data(), wi->grad.data(),
                                        bsz, t, dv, lengths.data());
    }
    if (Wants(vi)) {
      vi->EnsureGrad();
      kernels::BatchedMatMulNNBackwardV(wi->data.data(), g, vi->grad.data(),
                                        bsz, t, dv, lengths.data());
    }
  });
  return out;
}

Tensor MaskedSoftmaxLastDim(const Tensor& x, const std::vector<int>& lengths) {
  CheckBatchLengths(x, lengths);
  PREQR_CHECK_EQ(x.dim(1), x.dim(2));
  const int bsz = x.dim(0), t = x.dim(1);
  Tensor out = Tensor::Zeros(x.shape());
  for (int e = 0; e < bsz; ++e) {
    const int len = lengths[static_cast<size_t>(e)];
    if (len == 0) continue;
    float* ob = out.data() + static_cast<size_t>(e) * t * t;
    kernels::CopyRows(x.data() + static_cast<size_t>(e) * t * t,
                      static_cast<size_t>(t), ob, static_cast<size_t>(t),
                      static_cast<size_t>(len), static_cast<size_t>(len));
    kernels::Active().SoftmaxRows(ob, static_cast<size_t>(t), len, len);
  }
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, bsz, t, lengths](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::MaskedSoftmaxBackward(self->data.data(), self->grad.data(),
                                   xi->grad.data(), bsz, t, lengths.data());
  });
  return out;
}

namespace {

// MaskedLayerNorm of x, or of x + *residual when one is given.
Tensor MaskedLayerNormImpl(const Tensor& x, const Tensor* residual,
                           const Tensor& gamma, const Tensor& beta,
                           const std::vector<int>& lengths, float eps) {
  CheckBatchLengths(x, lengths);
  if (residual != nullptr) PREQR_CHECK(residual->shape() == x.shape());
  const int bsz = x.dim(0), t = x.dim(1), d = x.dim(2);
  PREQR_CHECK_EQ(gamma.dim(0), d);
  PREQR_CHECK_EQ(beta.dim(0), d);
  Tensor out = Tensor::Zeros(x.shape());
  const bool tape = residual != nullptr ? NeedsTape(x, *residual, gamma, beta)
                                        : NeedsTape(x, gamma, beta);
  std::shared_ptr<std::vector<float>> xhat_s, istd_s;
  if (tape) {
    xhat_s = std::make_shared<std::vector<float>>(x.vec().size());
    istd_s = std::make_shared<std::vector<float>>(
        static_cast<size_t>(bsz) * static_cast<size_t>(t));
  }
  kernels::Active().MaskedLayerNormForward(
      x.data(), residual != nullptr ? residual->data() : nullptr,
      gamma.data(), beta.data(), eps, out.data(),
      tape ? xhat_s->data() : nullptr, tape ? istd_s->data() : nullptr, bsz,
      t, d, lengths.data());
  if (!tape) return out;
  auto xi = x.impl(), gi = gamma.impl(), bi = beta.impl();
  std::shared_ptr<TensorImpl> ri =
      residual != nullptr ? residual->impl() : nullptr;
  std::vector<std::shared_ptr<TensorImpl>> parents = {xi};
  if (ri != nullptr) parents.push_back(ri);
  parents.push_back(gi);
  parents.push_back(bi);
  Wire(out, std::move(parents),
       [xi, ri, gi, bi, xhat_s, istd_s, bsz, t, d, lengths](TensorImpl* self) {
         gi->EnsureGrad();
         bi->EnsureGrad();
         kernels::MaskedLayerNormBackwardParams(
             self->grad.data(), xhat_s->data(), gi->grad.data(),
             bi->grad.data(), bsz, t, d, lengths.data());
         if (ri == nullptr) {
           if (!Wants(xi)) return;
           xi->EnsureGrad();
           kernels::MaskedLayerNormBackwardInput(
               self->grad.data(), xhat_s->data(), istd_s->data(),
               gi->data.data(), xi->grad.data(), bsz, t, d, lengths.data());
           return;
         }
         // The composed tape's Add node: the sum's gradient, then the
         // Add backward into x and the residual, in that order.
         if (!Wants(xi) && !Wants(ri)) return;
         std::vector<float> dsum(self->grad.size(), 0.0f);
         kernels::MaskedLayerNormBackwardInput(
             self->grad.data(), xhat_s->data(), istd_s->data(),
             gi->data.data(), dsum.data(), bsz, t, d, lengths.data());
         AccumulateGrad(xi, dsum.data(), dsum.size());
         AccumulateGrad(ri, dsum.data(), dsum.size());
       });
  return out;
}

}  // namespace

Tensor MaskedLayerNorm(const Tensor& x, const Tensor& gamma,
                       const Tensor& beta, const std::vector<int>& lengths,
                       float eps) {
  return MaskedLayerNormImpl(x, nullptr, gamma, beta, lengths, eps);
}

Tensor MaskedAddLayerNorm(const Tensor& x, const Tensor& y,
                          const Tensor& gamma, const Tensor& beta,
                          const std::vector<int>& lengths, float eps) {
  return MaskedLayerNormImpl(x, &y, gamma, beta, lengths, eps);
}

namespace {

// Query rows per Gemm/SoftmaxRows call in Attention: a multiple of the
// avx512 GEMM's 4-row block, small enough that a block's scores stay in L1.
constexpr int kAttentionRowBlock = 16;

}  // namespace

Tensor Attention(const Tensor& q, const Tensor& keys, const Tensor& values,
                 int num_heads, const std::vector<int>& lengths) {
  PREQR_CHECK(q.ndim() == 2 || q.ndim() == 3);
  const bool batched = q.ndim() == 3;
  const int bsz = batched ? q.dim(0) : 1;
  const int t = batched ? q.dim(1) : q.dim(0);
  const int d = q.dim(q.ndim() - 1);
  PREQR_CHECK_GT(num_heads, 0);
  const int hd = d / num_heads;
  PREQR_CHECK_EQ(hd * num_heads, d);
  std::vector<int> lens = lengths;
  if (lens.empty()) lens.assign(static_cast<size_t>(bsz), t);
  PREQR_CHECK_EQ(static_cast<int>(lens.size()), bsz);
  for (int len : lens) {
    PREQR_CHECK_GE(len, 0);
    PREQR_CHECK_LE(len, t);
  }
  // Shared keys (cross attention): kᵀ [d, N] and values [N, d]; otherwise
  // per-example keys and values shaped like q.
  const bool shared = keys.ndim() == 2;
  const int nkv = shared ? keys.dim(1) : t;
  if (shared) {
    PREQR_CHECK_EQ(keys.dim(0), d);
    PREQR_CHECK_GT(nkv, 0);
    PREQR_CHECK_EQ(values.ndim(), 2);
    PREQR_CHECK_EQ(values.dim(0), nkv);
    PREQR_CHECK_EQ(values.dim(1), d);
  } else {
    PREQR_CHECK(batched);
    PREQR_CHECK(keys.shape() == q.shape());
    PREQR_CHECK(values.shape() == q.shape());
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  Tensor out = Tensor::Zeros(q.shape());
  const bool tape = NeedsTape(q, keys, values);
  // Per-head softmax weights [heads, B, T, nkv] for the backward; without
  // the tape the scores live in per-thread scratch instead.
  std::shared_ptr<std::vector<float>> probs;
  if (tape) {
    probs = std::make_shared<std::vector<float>>(
        static_cast<size_t>(num_heads) * bsz * t * nkv);
  }
  const kernels::KernelTable& tab = kernels::Active();
  const kernels::GemmEpilogue scale_ep = kernels::GemmEpilogue::Scale(scale);
  const size_t ld = static_cast<size_t>(d);
  auto units = [&](int64_t u0, int64_t u1) {
    thread_local std::vector<float> kt_scratch, score_scratch;
    for (int64_t u = u0; u < u1; ++u) {
      const int b = static_cast<int>(u / num_heads);
      const int h = static_cast<int>(u % num_heads);
      const int len = lens[static_cast<size_t>(b)];
      if (len == 0) continue;
      const size_t row0 = static_cast<size_t>(b) * t;
      const size_t col = static_cast<size_t>(h) * hd;
      const int width = shared ? nkv : len;
      // kᵀ for this (example, head): rows of the shared kᵀ, or one
      // transposed copy of the example's valid keys.
      const float* kth;
      size_t ldk;
      const float* vh;
      if (shared) {
        kth = keys.data() + col * nkv;
        ldk = static_cast<size_t>(nkv);
        vh = values.data() + col;
      } else {
        kt_scratch.resize(static_cast<size_t>(hd) * len);
        const float* kb = keys.data() + row0 * ld + col;
        for (int j = 0; j < len; ++j) {
          for (int c = 0; c < hd; ++c) {
            kt_scratch[static_cast<size_t>(c) * len + j] =
                kb[static_cast<size_t>(j) * ld + c];
          }
        }
        kth = kt_scratch.data();
        ldk = static_cast<size_t>(len);
        vh = values.data() + row0 * ld + col;
      }
      for (int i0 = 0; i0 < len; i0 += kAttentionRowBlock) {
        const int rows = std::min(kAttentionRowBlock, len - i0);
        float* scores;
        size_t lds;
        if (probs != nullptr) {
          lds = static_cast<size_t>(nkv);
          scores = probs->data() +
                   ((static_cast<size_t>(h) * bsz + b) * t + i0) * lds;
        } else {
          // Rows padded to 16 floats (64 bytes): a width-35 stride would
          // start most rows mid cache line. A row's bits do not depend on
          // its stride, and the pad columns are never read.
          lds = (static_cast<size_t>(width) + 15) & ~size_t{15};
          score_scratch.assign(static_cast<size_t>(rows) * lds, 0.0f);
          scores = score_scratch.data();
        }
        const size_t qoff = (row0 + i0) * ld + col;
        tab.Gemm(q.data() + qoff, ld, kth, ldk, scores, lds, rows, hd, width,
                 scale_ep);
        tab.SoftmaxRows(scores, lds, rows, width);
        tab.Gemm(scores, lds, vh, ld, out.data() + qoff, ld, rows, width, hd,
                 {});
      }
    }
  };
  ParallelFor(0, static_cast<int64_t>(bsz) * num_heads, 1, units);
  if (!tape) return out;
  auto qi = q.impl(), ki = keys.impl(), vi = values.impl();
  // Replays the composed ops' backward per head, last head first as the
  // composed tape ran it: ConcatLastDim, then BatchedMatMulNN (shared:
  // MatMul), MaskedSoftmaxLastDim (SoftmaxLastDim), Scale, and
  // BatchedMatMulNT (MatMul against kᵀ), each slice's gradient landing in
  // head h's columns (shared kᵀ: rows) of the parents.
  Wire(out, {qi, ki, vi},
       [qi, ki, vi, probs, lens, bsz, t, d, hd, nkv, num_heads, shared,
        scale](TensorImpl* self) {
         const size_t rows = static_cast<size_t>(bsz) * t;
         const size_t ldd = static_cast<size_t>(d);
         const size_t hdz = static_cast<size_t>(hd);
         const bool want_q = Wants(qi), want_k = Wants(ki), want_v = Wants(vi);
         const bool want_scores = want_q || want_k;
         const size_t nscore = rows * nkv;
         const size_t nkvh = static_cast<size_t>(nkv) * hdz;
         const size_t nqh = rows * hdz;
         for (int h = num_heads - 1; h >= 0; --h) {
           const size_t col = static_cast<size_t>(h) * hd;
           const float* w = probs->data() + static_cast<size_t>(h) * nscore;
           std::vector<float> go(nqh, 0.0f);
           kernels::AccumulateRows(self->grad.data() + col, ldd, go.data(),
                                   hdz, rows, hdz);
           // This head's values (shared: [N, hd]; self: [B, T, hd]).
           std::vector<float> vh(shared ? nkvh : nqh);
           kernels::CopyRows(vi->data.data() + col, ldd, vh.data(), hdz,
                             shared ? static_cast<size_t>(nkv) : rows, hdz);
           std::vector<float> dw;
           if (want_scores) {
             dw.assign(nscore, 0.0f);
             if (shared) {
               kernels::MatMulBackwardA(go.data(), vh.data(), dw.data(),
                                        static_cast<int>(rows), nkv, hd);
             } else {
               kernels::BatchedMatMulNNBackwardW(go.data(), vh.data(),
                                                 dw.data(), bsz, t, hd,
                                                 lens.data());
             }
           }
           if (want_v) {
             std::vector<float> dvh(vh.size(), 0.0f);
             if (shared) {
               kernels::MatMulBackwardB(w, go.data(), dvh.data(),
                                        static_cast<int>(rows), nkv, hd);
             } else {
               kernels::BatchedMatMulNNBackwardV(w, go.data(), dvh.data(),
                                                 bsz, t, hd, lens.data());
             }
             vi->EnsureGrad();
             kernels::AccumulateRows(dvh.data(), hdz, vi->grad.data() + col,
                                     ldd, shared ? nkv : rows, hdz);
           }
           if (!want_scores) continue;
           std::vector<float> ds(nscore, 0.0f);
           if (shared) {
             kernels::SoftmaxBackward(w, dw.data(), ds.data(), rows, nkv);
           } else {
             kernels::MaskedSoftmaxBackward(w, dw.data(), ds.data(), bsz, t,
                                            lens.data());
           }
           std::vector<float> dscores(nscore, 0.0f);
           kernels::AccumulateScaled(ds.data(), scale, dscores.data(), nscore);
           std::vector<float> qh(nqh);
           kernels::CopyRows(qi->data.data() + col, ldd, qh.data(), hdz, rows,
                             hdz);
           if (want_q) {
             std::vector<float> dqh(nqh, 0.0f);
             if (shared) {
               kernels::MatMulBackwardA(dscores.data(),
                                        ki->data.data() + col * nkv,
                                        dqh.data(), static_cast<int>(rows),
                                        hd, nkv);
             } else {
               std::vector<float> kh(nqh);
               kernels::CopyRows(ki->data.data() + col, ldd, kh.data(), hdz,
                                 rows, hdz);
               kernels::BatchedMatMulNTBackwardA(dscores.data(), kh.data(),
                                                 dqh.data(), bsz, t, hd,
                                                 lens.data());
             }
             qi->EnsureGrad();
             kernels::AccumulateRows(dqh.data(), hdz, qi->grad.data() + col,
                                     ldd, rows, hdz);
           }
           if (want_k) {
             ki->EnsureGrad();
             if (shared) {
               std::vector<float> dkt(nkvh, 0.0f);
               kernels::MatMulBackwardB(qh.data(), dscores.data(), dkt.data(),
                                        static_cast<int>(rows), hd, nkv);
               kernels::Accumulate(dkt.data(), ki->grad.data() + col * nkv,
                                   nkvh);
             } else {
               std::vector<float> dkh(nqh, 0.0f);
               kernels::BatchedMatMulNTBackwardB(dscores.data(), qh.data(),
                                                 dkh.data(), bsz, t, hd,
                                                 lens.data());
               kernels::AccumulateRows(dkh.data(), hdz,
                                       ki->grad.data() + col, ldd, rows, hdz);
             }
           }
         }
       });
  return out;
}

Tensor MaskedCrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                          const std::vector<int>& lengths, int ignore_index,
                          std::vector<float>* example_loss) {
  CheckBatchLengths(logits, lengths);
  const int bsz = logits.dim(0), t = logits.dim(1), c = logits.dim(2);
  PREQR_CHECK_EQ(targets.size(), static_cast<size_t>(bsz) * t);
  auto probs = std::make_shared<std::vector<float>>(logits.vec().size());
  auto valid = std::make_shared<std::vector<int>>();
  Tensor out = Tensor::Zeros({1});
  out.vec()[0] = kernels::MaskedCrossEntropyForward(
      logits.data(), targets, ignore_index, bsz, t, c, lengths.data(),
      probs->data(), valid.get(), example_loss);
  if (!NeedsTape(logits)) return out;
  auto li = logits.impl();
  Wire(out, {li},
       [li, probs, valid, targets, lengths, ignore_index, bsz, t,
        c](TensorImpl* self) {
         if (!Wants(li)) return;
         li->EnsureGrad();
         kernels::MaskedCrossEntropyBackward(
             self->grad[0], probs->data(), targets, ignore_index, bsz, t, c,
             lengths.data(), *valid, li->grad.data());
       });
  return out;
}

Tensor MaskedDropout(const Tensor& x, float p,
                     const std::vector<uint64_t>& seeds,
                     const std::vector<int>& lengths, bool train) {
  if (!train || p <= 0.0f) return x;
  CheckBatchLengths(x, lengths);
  const int bsz = x.dim(0), t = x.dim(1), d = x.dim(2);
  PREQR_CHECK_EQ(seeds.size(), static_cast<size_t>(bsz));
  const float scale = 1.0f / (1.0f - p);
  const bool tape = NeedsTape(x);
  std::shared_ptr<std::vector<float>> mask;
  if (tape) mask = std::make_shared<std::vector<float>>(x.vec().size());
  Tensor out = Tensor::Zeros(x.shape());
  kernels::MaskedDropoutForward(x.data(), p, scale, seeds.data(), out.data(),
                                tape ? mask->data() : nullptr, bsz, t, d,
                                lengths.data());
  if (!tape) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, mask](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    // Pad mask entries are zero, so the generic dropout backward already
    // keeps pad gradients at exactly zero.
    kernels::DropoutBackward(self->grad.data(), mask->data(), xi->grad.data(),
                             self->grad.size());
  });
  return out;
}

Tensor SliceExample(const Tensor& x, int b, int len) {
  PREQR_CHECK_EQ(x.ndim(), 3);
  PREQR_CHECK_GE(b, 0);
  PREQR_CHECK_LT(b, x.dim(0));
  PREQR_CHECK_GE(len, 0);
  PREQR_CHECK_LE(len, x.dim(1));
  const int t = x.dim(1), d = x.dim(2);
  const size_t off = static_cast<size_t>(b) * t * d;
  Tensor out = Tensor::Zeros({len, d});
  kernels::Copy(x.data() + off, out.data(),
                static_cast<size_t>(len) * static_cast<size_t>(d));
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, off](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::Accumulate(self->grad.data(), xi->grad.data() + off,
                        self->grad.size());
  });
  return out;
}

Tensor PadExamples(const std::vector<Tensor>& xs, int t_max) {
  PREQR_CHECK(!xs.empty());
  const int bsz = static_cast<int>(xs.size());
  const int d = xs[0].dim(1);
  int t = t_max;
  for (const auto& x : xs) {
    PREQR_CHECK_EQ(x.ndim(), 2);
    PREQR_CHECK_EQ(x.dim(1), d);
    t = std::max(t, x.dim(0));
  }
  Tensor out = Tensor::Zeros({bsz, t, d});
  for (int b = 0; b < bsz; ++b) {
    kernels::Copy(xs[static_cast<size_t>(b)].data(),
                  out.data() + static_cast<size_t>(b) * t * d,
                  xs[static_cast<size_t>(b)].vec().size());
  }
  if (!NeedsTape(xs)) return out;
  std::vector<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(xs.size());
  for (const auto& x : xs) impls.push_back(x.impl());
  Wire(out, impls, [impls, t, d](TensorImpl* self) {
    for (size_t b = 0; b < impls.size(); ++b) {
      AccumulateGrad(impls[b], self->grad.data() + b * static_cast<size_t>(t) * d,
                     impls[b]->data.size());
    }
  });
  return out;
}

}  // namespace preqr::nn
