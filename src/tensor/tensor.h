// A small dense float tensor with tape-based reverse-mode autograd.
//
// Design notes:
//  - Tensor is a value-semantic handle (shared_ptr) to a TensorImpl node.
//    Copies share storage and graph identity, like torch.Tensor.
//  - Storage is split from the view: a refcounted Storage owns the flat
//    float buffer (plus a lazily-allocated gradient buffer of the same
//    size), while each TensorImpl carries shape/strides/offset into it.
//    Shape ops (Reshape/Slice/TransposeLast2) return zero-copy views that
//    share the Storage; IsContiguous() tells whether the view is a dense
//    row-major block and Contiguous() materialises a dense copy when not.
//  - Gradients live in the Storage, parallel to the data buffer. A view's
//    gradient region therefore *is* the base tensor's gradient region:
//    accumulating into a view scatter-accumulates into the base buffer by
//    construction, which keeps autograd correct across chained and
//    overlapping views without per-view bookkeeping.
//  - Every op (see ops.h) creates a fresh node holding its inputs as parents
//    and a backward closure; Backward() on a scalar runs a topological sweep.
//  - Parent edges only point child -> parent, so the graph is acyclic and
//    reference counting reclaims it once the last handle drops.
//  - Storage is row-major float32. Shapes are small vectors of int64_t.
//  - Graph recording can be suspended with NoGradGuard for inference.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace stisan {

using Shape = std::vector<int64_t>;

/// Returns the number of elements implied by a shape (product of dims).
int64_t NumElements(const Shape& shape);

/// Formats a shape as "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

/// Row-major (C-order) strides for a dense tensor of the given shape.
std::vector<int64_t> ContiguousStrides(const Shape& shape);

namespace internal {

struct TensorImpl;
using TensorImplPtr = std::shared_ptr<TensorImpl>;

/// Refcounted flat buffer shared by every view of a tensor. The gradient
/// buffer parallels the data buffer element-for-element and is allocated
/// lazily during backward.
struct Storage {
  std::vector<float> data;
  std::vector<float> grad;

  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
  bool has_grad() const { return grad.size() == data.size(); }
};

using StoragePtr = std::shared_ptr<Storage>;

/// Graph node: a strided view into a Storage + autograd metadata.
struct TensorImpl {
  Shape shape;
  std::vector<int64_t> strides;  // in elements, row-major for dense nodes
  int64_t offset = 0;            // start element inside the storage
  StoragePtr storage;
  bool requires_grad = false;

  // Autograd tape: inputs this node was computed from, and a closure that
  // propagates this node's grad into the parents' grads. Pure views leave
  // backward_fn empty: their grad region aliases the parent's, so gradient
  // flow through them is the identity.
  std::vector<TensorImplPtr> parents;
  std::function<void(TensorImpl&)> backward_fn;

  int64_t numel() const { return NumElements(shape); }

  /// True when the view is a dense row-major block (size-1 dims ignored).
  bool IsContiguous() const;

  void EnsureGrad() { storage->EnsureGrad(); }

  // Raw pointers into the storage at this view's offset. Only meaningful as
  // dense [numel] ranges when IsContiguous(); strided access must go
  // through shape/strides.
  float* Data() { return storage->data.data() + offset; }
  const float* Data() const { return storage->data.data() + offset; }
  float* Grad() { return storage->grad.data() + offset; }
  const float* Grad() const { return storage->grad.data() + offset; }
};

/// Returns true while autograd graph recording is enabled (default).
bool GradEnabled();

}  // namespace internal

/// RAII guard that disables autograd recording in its scope (inference mode).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Dense float tensor handle with optional gradient tracking.
class Tensor {
 public:
  /// Constructs an empty (null) tensor. Most APIs require a non-null tensor.
  Tensor() = default;

  // ---- Factories ------------------------------------------------------

  /// Zero-filled tensor.
  static Tensor Zeros(Shape shape, bool requires_grad = false);

  /// One-filled tensor.
  static Tensor Ones(Shape shape, bool requires_grad = false);

  /// Constant-filled tensor.
  static Tensor Full(Shape shape, float value, bool requires_grad = false);

  /// Tensor wrapping a copy of `values`. Size must match the shape.
  static Tensor FromVector(Shape shape, std::vector<float> values,
                           bool requires_grad = false);

  /// i.i.d. normal(0, stddev) entries.
  static Tensor Randn(Shape shape, Rng& rng, float stddev = 1.0f,
                      bool requires_grad = false);

  /// i.i.d. uniform[lo, hi) entries.
  static Tensor Rand(Shape shape, Rng& rng, float lo, float hi,
                     bool requires_grad = false);

  /// Xavier/Glorot-uniform initialised matrix [fan_in, fan_out].
  static Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Rng& rng,
                              bool requires_grad = true);

  /// Identity matrix [n, n].
  static Tensor Identity(int64_t n, bool requires_grad = false);

  // ---- Introspection ---------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  int64_t dim() const { return static_cast<int64_t>(shape().size()); }
  int64_t size(int64_t d) const;
  int64_t numel() const;
  bool requires_grad() const;

  /// Strides (in elements) of this view into its storage.
  const std::vector<int64_t>& strides() const;

  /// True when this view is a dense row-major block of its storage.
  bool IsContiguous() const;

  /// Returns a tensor with the same values that is guaranteed contiguous:
  /// `*this` when already contiguous (no copy, same node), otherwise a
  /// materialised dense copy whose backward pass scatter-accumulates into
  /// this view's storage. Defined in ops.cc (it builds an autograd node).
  Tensor Contiguous() const;

  /// Direct storage access (row-major). Requires IsContiguous(); call
  /// Contiguous() first for strided views.
  float* data();
  const float* data() const;

  /// Identity of the underlying storage buffer (for aliasing checks/tests).
  const float* storage_data() const;

  /// Element access for low-dimensional tensors (bounds-checked, stride
  /// aware — works on views).
  float at(std::initializer_list<int64_t> idx) const;
  void set(std::initializer_list<int64_t> idx, float v);

  /// Copies this view's elements (in logical row-major order) to a
  /// std::vector. Works on non-contiguous views.
  std::vector<float> ToVector() const;

  /// Gradient storage; requires a completed Backward() pass (or EnsureGrad)
  /// and a contiguous view.
  const float* grad_data() const;
  float* mutable_grad_data();
  bool has_grad() const;

  /// Zero-fills the gradient buffer (allocating it if needed). Note: views
  /// share their base tensor's gradient buffer, so zeroing a view zeroes
  /// the whole underlying storage gradient.
  void ZeroGrad();

  // ---- Autograd --------------------------------------------------------

  /// Runs reverse-mode autodiff from this scalar node (numel() == 1).
  /// Accumulates into .grad of every reachable node with requires_grad.
  void Backward();

  /// Returns a graph-detached copy sharing no autograd history or storage.
  /// Storage is copied (the result is safe to mutate, even for views).
  Tensor Detach() const;

  /// Marks this tensor as a trainable leaf (requires_grad = true).
  Tensor& SetRequiresGrad(bool value);

  /// Formats shape and (for small tensors) values.
  std::string ToString() const;

  // Internal accessor for ops.
  internal::TensorImplPtr impl() const { return impl_; }
  explicit Tensor(internal::TensorImplPtr impl) : impl_(std::move(impl)) {}

 private:
  internal::TensorImplPtr impl_;
};

}  // namespace stisan
