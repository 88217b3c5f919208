#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_set>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace stisan {

namespace {

// Tape buffers come straight from malloc, and a training window or eval
// batch frees its whole tape at once. Under glibc's default thresholds the
// freed top of the heap goes back to the kernel and the next window faults
// it in again, and the larger buffers are mmap'd and unmapped each time.
// Fixing the mmap threshold at its usual ceiling and trimming only past
// twice that keeps freed tape memory in the heap for the next window.
[[maybe_unused]] const bool kHeapKeepsTape = [] {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  return true;
}();

}  // namespace

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    STISAN_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

std::vector<int64_t> ContiguousStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size());
  int64_t stride = 1;
  for (size_t i = shape.size(); i-- > 0;) {
    strides[i] = stride;
    stride *= shape[i];
  }
  return strides;
}

namespace internal {

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

bool GradEnabled() { return g_grad_enabled; }

bool TensorImpl::IsContiguous() const {
  int64_t expect = 1;
  for (size_t i = shape.size(); i-- > 0;) {
    if (shape[i] == 1) continue;  // stride of a size-1 dim is irrelevant
    if (strides[i] != expect) return false;
    expect *= shape[i];
  }
  return true;
}

}  // namespace internal

NoGradGuard::NoGradGuard() : previous_(internal::GradEnabled()) {
  internal::g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { internal::g_grad_enabled = previous_; }

namespace {

using internal::TensorImpl;

internal::TensorImplPtr MakeImpl(Shape shape, bool requires_grad) {
  auto impl = std::make_shared<internal::TensorImpl>();
  const int64_t n = NumElements(shape);
  impl->strides = ContiguousStrides(shape);
  impl->shape = std::move(shape);
  impl->storage = std::make_shared<internal::Storage>();
  impl->storage->data.assign(static_cast<size_t>(n), 0.0f);
  impl->requires_grad = requires_grad && internal::GradEnabled();
  return impl;
}

// Storage-relative flat index for a (bounds-checked) multi-index.
int64_t StridedIndex(const TensorImpl& t, std::initializer_list<int64_t> idx) {
  STISAN_CHECK_EQ(static_cast<int64_t>(idx.size()),
                  static_cast<int64_t>(t.shape.size()));
  int64_t flat = t.offset;
  size_t d = 0;
  for (int64_t i : idx) {
    STISAN_CHECK_GE(i, 0);
    STISAN_CHECK_LT(i, t.shape[d]);
    flat += i * t.strides[d];
    ++d;
  }
  return flat;
}

// Copies the view's elements in logical row-major order into `out`.
void GatherToDense(const TensorImpl& t, float* out) {
  const int64_t n = t.numel();
  if (n == 0) return;
  if (t.IsContiguous()) {
    std::memcpy(out, t.Data(), sizeof(float) * static_cast<size_t>(n));
    return;
  }
  const size_t rank = t.shape.size();
  const float* base = t.storage->data.data();
  std::vector<int64_t> idx(rank, 0);
  int64_t ofs = t.offset;
  for (int64_t flat = 0; flat < n; ++flat) {
    out[flat] = base[ofs];
    for (size_t d = rank; d-- > 0;) {
      idx[d]++;
      ofs += t.strides[d];
      if (idx[d] < t.shape[d]) break;
      ofs -= t.strides[d] * t.shape[d];
      idx[d] = 0;
    }
  }
}

}  // namespace

Tensor Tensor::Zeros(Shape shape, bool requires_grad) {
  return Tensor(MakeImpl(std::move(shape), requires_grad));
}

Tensor Tensor::Ones(Shape shape, bool requires_grad) {
  return Full(std::move(shape), 1.0f, requires_grad);
}

Tensor Tensor::Full(Shape shape, float value, bool requires_grad) {
  auto impl = MakeImpl(std::move(shape), requires_grad);
  for (auto& v : impl->storage->data) v = value;
  return Tensor(std::move(impl));
}

Tensor Tensor::FromVector(Shape shape, std::vector<float> values,
                          bool requires_grad) {
  STISAN_CHECK_EQ(NumElements(shape), static_cast<int64_t>(values.size()));
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->strides = ContiguousStrides(shape);
  impl->shape = std::move(shape);
  impl->storage = std::make_shared<internal::Storage>();
  impl->storage->data = std::move(values);
  impl->requires_grad = requires_grad && internal::GradEnabled();
  return Tensor(std::move(impl));
}

Tensor Tensor::Randn(Shape shape, Rng& rng, float stddev, bool requires_grad) {
  auto impl = MakeImpl(std::move(shape), requires_grad);
  for (auto& v : impl->storage->data)
    v = static_cast<float>(rng.Normal(0.0, stddev));
  return Tensor(std::move(impl));
}

Tensor Tensor::Rand(Shape shape, Rng& rng, float lo, float hi,
                    bool requires_grad) {
  auto impl = MakeImpl(std::move(shape), requires_grad);
  for (auto& v : impl->storage->data) v = rng.UniformFloat(lo, hi);
  return Tensor(std::move(impl));
}

Tensor Tensor::XavierUniform(int64_t fan_in, int64_t fan_out, Rng& rng,
                             bool requires_grad) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Rand({fan_in, fan_out}, rng, -bound, bound, requires_grad);
}

Tensor Tensor::Identity(int64_t n, bool requires_grad) {
  Tensor t = Zeros({n, n}, requires_grad);
  for (int64_t i = 0; i < n; ++i) t.data()[i * n + i] = 1.0f;
  return t;
}

const Shape& Tensor::shape() const {
  STISAN_CHECK(impl_ != nullptr);
  return impl_->shape;
}

int64_t Tensor::size(int64_t d) const {
  const Shape& s = shape();
  if (d < 0) d += static_cast<int64_t>(s.size());
  STISAN_CHECK_GE(d, 0);
  STISAN_CHECK_LT(d, static_cast<int64_t>(s.size()));
  return s[static_cast<size_t>(d)];
}

int64_t Tensor::numel() const {
  STISAN_CHECK(impl_ != nullptr);
  return impl_->numel();
}

bool Tensor::requires_grad() const {
  STISAN_CHECK(impl_ != nullptr);
  return impl_->requires_grad;
}

const std::vector<int64_t>& Tensor::strides() const {
  STISAN_CHECK(impl_ != nullptr);
  return impl_->strides;
}

bool Tensor::IsContiguous() const {
  STISAN_CHECK(impl_ != nullptr);
  return impl_->IsContiguous();
}

float* Tensor::data() {
  STISAN_CHECK(impl_ != nullptr);
  STISAN_CHECK_MSG(impl_->IsContiguous(),
                   "data() requires a contiguous tensor; call Contiguous()");
  return impl_->Data();
}

const float* Tensor::data() const {
  STISAN_CHECK(impl_ != nullptr);
  STISAN_CHECK_MSG(impl_->IsContiguous(),
                   "data() requires a contiguous tensor; call Contiguous()");
  return impl_->Data();
}

const float* Tensor::storage_data() const {
  STISAN_CHECK(impl_ != nullptr);
  return impl_->storage->data.data();
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  STISAN_CHECK(impl_ != nullptr);
  return impl_->storage->data[static_cast<size_t>(StridedIndex(*impl_, idx))];
}

void Tensor::set(std::initializer_list<int64_t> idx, float v) {
  STISAN_CHECK(impl_ != nullptr);
  impl_->storage->data[static_cast<size_t>(StridedIndex(*impl_, idx))] = v;
}

std::vector<float> Tensor::ToVector() const {
  STISAN_CHECK(impl_ != nullptr);
  std::vector<float> out(static_cast<size_t>(numel()));
  GatherToDense(*impl_, out.data());
  return out;
}

const float* Tensor::grad_data() const {
  STISAN_CHECK(impl_ != nullptr);
  STISAN_CHECK_MSG(has_grad(), "gradient not materialised; run Backward()");
  STISAN_CHECK_MSG(impl_->IsContiguous(),
                   "grad_data() requires a contiguous tensor");
  return impl_->Grad();
}

float* Tensor::mutable_grad_data() {
  STISAN_CHECK(impl_ != nullptr);
  STISAN_CHECK_MSG(impl_->IsContiguous(),
                   "mutable_grad_data() requires a contiguous tensor");
  impl_->EnsureGrad();
  return impl_->Grad();
}

bool Tensor::has_grad() const {
  STISAN_CHECK(impl_ != nullptr);
  return impl_->storage->has_grad();
}

void Tensor::ZeroGrad() {
  STISAN_CHECK(impl_ != nullptr);
  impl_->storage->grad.assign(impl_->storage->data.size(), 0.0f);
}

void Tensor::Backward() {
  STISAN_CHECK(impl_ != nullptr);
  STISAN_CHECK_MSG(numel() == 1, "Backward() requires a scalar loss");

  // Iterative post-order topological sort (child after parents), then walk
  // in reverse so each node's grad is complete before it propagates.
  std::vector<internal::TensorImpl*> order;
  std::unordered_set<internal::TensorImpl*> visited;
  struct Frame {
    internal::TensorImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({impl_.get(), 0});
  visited.insert(impl_.get());
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      internal::TensorImpl* parent = f.node->parents[f.next_parent++].get();
      if (parent != nullptr && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }

  impl_->EnsureGrad();
  impl_->storage->grad[static_cast<size_t>(impl_->offset)] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::TensorImpl* node = *it;
    if (node->backward_fn && node->storage->has_grad()) {
      node->backward_fn(*node);
    }
  }
}

Tensor Tensor::Detach() const {
  STISAN_CHECK(impl_ != nullptr);
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->strides = ContiguousStrides(impl_->shape);
  impl->shape = impl_->shape;
  impl->storage = std::make_shared<internal::Storage>();
  impl->storage->data.resize(static_cast<size_t>(impl_->numel()));
  GatherToDense(*impl_, impl->storage->data.data());
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

Tensor& Tensor::SetRequiresGrad(bool value) {
  STISAN_CHECK(impl_ != nullptr);
  impl_->requires_grad = value;
  return *this;
}

std::string Tensor::ToString() const {
  if (!defined()) return "Tensor(null)";
  std::ostringstream os;
  os << "Tensor" << ShapeToString(shape());
  if (numel() <= 16) {
    const std::vector<float> values = ToVector();
    os << " {";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i) os << ", ";
      os << values[i];
    }
    os << "}";
  }
  return os.str();
}

}  // namespace stisan
