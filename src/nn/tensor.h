#ifndef PREQR_NN_TENSOR_H_
#define PREQR_NN_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace preqr::nn {

using Index = int64_t;
using Shape = std::vector<int>;

// Thread-local switch for the autograd tape. While disabled, ops compute
// values only: no parents, no grad_fn, and tensor storage may come from
// the BufferPool. Each thread has its own flag (default: enabled), so a
// guard installed on one thread does not affect ParallelFor workers —
// inference lambdas that run on the pool must install their own guard.
class GradMode {
 public:
  static bool enabled();
  static void set_enabled(bool enabled);
};

// RAII scope that disables the tape on the current thread and restores
// the previous mode on exit (nests correctly).
class NoGradGuard {
 public:
  NoGradGuard() : prev_(GradMode::enabled()) { GradMode::set_enabled(false); }
  ~NoGradGuard() { GradMode::set_enabled(prev_); }
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

// Shared storage + autograd metadata for a Tensor. The tape is implicit:
// each op produces a new TensorImpl whose `grad_fn` knows how to push its
// gradient into `parents`. Children hold strong references to parents only,
// so the graph is acyclic and freed when the last downstream Tensor dies.
struct TensorImpl {
  TensorImpl();
  ~TensorImpl();  // returns pooled backing stores to the BufferPool
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // allocated lazily, same length as data
  bool requires_grad = false;
  // True if `data` was drawn from the thread-local BufferPool (no-grad
  // allocations only) and should be recycled on destruction.
  bool pooled = false;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  // Propagates this node's grad into the parents' grads.
  std::function<void(TensorImpl*)> grad_fn;

  Index size() const {
    Index n = 1;
    for (int d : shape) n *= d;
    return n;
  }
  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

// Total TensorImpls constructed so far, process-wide (relaxed counter).
// Lets tests and benches measure how many tape nodes an operation
// allocates — e.g. the no-grad encode path vs. the tape-on path.
uint64_t TensorImplsCreated();

// Value-semantic handle to a shared tensor. Float32, row-major.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  // --- Factories ------------------------------------------------------
  static Tensor Zeros(Shape shape, bool requires_grad = false);
  static Tensor Full(Shape shape, float value, bool requires_grad = false);
  static Tensor FromData(Shape shape, std::vector<float> data,
                         bool requires_grad = false);
  static Tensor Scalar(float value, bool requires_grad = false);
  // Gaussian init with the given stddev.
  static Tensor Randn(Shape shape, Rng& rng, float stddev,
                      bool requires_grad = false);
  // Uniform in [-bound, bound].
  static Tensor Uniform(Shape shape, Rng& rng, float bound,
                        bool requires_grad = false);

  // --- Introspection ---------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const {
    PREQR_CHECK(defined());
    return impl_->shape;
  }
  int ndim() const {
    PREQR_CHECK(defined());
    return static_cast<int>(impl_->shape.size());
  }
  int dim(int i) const {
    PREQR_CHECK(defined());
    return impl_->shape[static_cast<size_t>(i)];
  }
  Index size() const {
    PREQR_CHECK(defined());
    return impl_->size();
  }

  float* data() {
    PREQR_CHECK(defined());
    return impl_->data.data();
  }
  const float* data() const {
    PREQR_CHECK(defined());
    return impl_->data.data();
  }
  std::vector<float>& vec() {
    PREQR_CHECK(defined());
    return impl_->data;
  }
  const std::vector<float>& vec() const {
    PREQR_CHECK(defined());
    return impl_->data;
  }
  float item() const {
    PREQR_CHECK_EQ(size(), 1);
    return impl_->data[0];
  }
  float at(Index i) const {
    PREQR_CHECK(defined());
    return impl_->data[static_cast<size_t>(i)];
  }
  float& at(Index i) {
    PREQR_CHECK(defined());
    return impl_->data[static_cast<size_t>(i)];
  }

  bool requires_grad() const {
    PREQR_CHECK(defined());
    return impl_->requires_grad;
  }
  Tensor& set_requires_grad(bool v) {
    PREQR_CHECK(defined());
    impl_->requires_grad = v;
    return *this;
  }
  float* grad_data() {
    PREQR_CHECK(defined());
    impl_->EnsureGrad();
    return impl_->grad.data();
  }
  const std::vector<float>& grad_vec() const {
    PREQR_CHECK(defined());
    return impl_->grad;
  }
  void ZeroGrad() {
    PREQR_CHECK(defined());
    if (!impl_->grad.empty()) {
      std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
    }
  }

  // An independent copy of the values with no autograd history: fresh
  // storage (pool-backed when grad mode is off), no parents, no grad_fn,
  // requires_grad=false. Mutating the copy never affects this tensor —
  // callers rely on that for cache isolation.
  Tensor Detach() const;

  // Runs reverse-mode autodiff from this (scalar) tensor.
  void Backward();

  std::shared_ptr<TensorImpl>& impl() { return impl_; }
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

}  // namespace preqr::nn

#endif  // PREQR_NN_TENSOR_H_
