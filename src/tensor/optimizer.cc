#include "tensor/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "tensor/kernels.h"
#include "util/check.h"

namespace stisan {

namespace {

// One step's coefficients, passed by value so the update loop holds them in
// registers: no store through its pointers can be taken to change them.
struct StepCoeffs {
  float lr, beta1, beta2, eps, weight_decay, bc1, bc2;
};

// The Adam update over n elements of one parameter. Its four buffers are
// distinct allocations (the data, the gradient and the two moments), and
// optimizer.cc builds with -fno-math-errno, so std::sqrt never sets errno
// and GCC vectorises the loop to sqrtps/divps. Those round exactly like the
// scalar sqrtss/divss, and the x86-64 baseline has no FMA to contract
// into, so every element's bits are those of a plain scalar loop.
void AdamUpdate(float* __restrict w, const float* __restrict g,
                float* __restrict m, float* __restrict v, int64_t n,
                StepCoeffs c) {
  for (int64_t i = 0; i < n; ++i) {
    const float grad = g[i] + c.weight_decay * w[i];
    m[i] = c.beta1 * m[i] + (1.0f - c.beta1) * grad;
    v[i] = c.beta2 * v[i] + (1.0f - c.beta2) * grad * grad;
    const float mhat = m[i] / c.bc1;
    const float vhat = v[i] / c.bc2;
    w[i] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

// Splits the concatenation of every parameter's elements (parameter k owns
// [offsets[k], offsets[k + 1])) with one kernels::ParallelRanges call and
// runs fn(k, lo, hi) on each chunk for the part [lo, hi) of every parameter
// the chunk covers.
template <typename Fn>
void ForEachSlice(const std::vector<int64_t>& offsets, const Fn& fn) {
  kernels::ParallelRanges(offsets.back(), 1, [&](int64_t b, int64_t e) {
    size_t k = static_cast<size_t>(
        std::upper_bound(offsets.begin(), offsets.end(), b) -
        offsets.begin() - 1);
    for (; offsets[k] < e; ++k) {
      const int64_t lo = std::max(b, offsets[k]) - offsets[k];
      const int64_t hi = std::min(e, offsets[k + 1]) - offsets[k];
      if (lo < hi) fn(k, lo, hi);
    }
  });
}

}  // namespace

Adam::Adam(std::vector<Tensor> params, Options options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  offsets_.reserve(params_.size() + 1);
  offsets_.push_back(0);
  std::vector<std::pair<uintptr_t, uintptr_t>> spans;
  for (auto& p : params_) {
    const int64_t n = p.numel();
    m_.emplace_back(static_cast<size_t>(n), 0.0f);
    v_.emplace_back(static_cast<size_t>(n), 0.0f);
    offsets_.push_back(offsets_.back() + n);
    const auto begin = reinterpret_cast<uintptr_t>(p.data());
    if (n > 0) spans.emplace_back(begin, begin + sizeof(float) * n);
  }
  // Step splits the parameters across threads. Two that share elements (a
  // tensor listed twice, or views of one buffer) would then be updated by
  // two threads at once, where a serial loop applies one after the other.
  std::sort(spans.begin(), spans.end());
  for (size_t i = 1; i < spans.size(); ++i) {
    STISAN_CHECK_MSG(spans[i - 1].second <= spans[i].first,
                     "Adam parameters overlap in memory");
  }
}

void Adam::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

float Adam::ClipGradNorm(float max_norm) {
  double total = 0.0;
  for (auto& p : params_) {
    if (!p.has_grad()) continue;
    const float* g = p.grad_data();
    const int64_t n = p.numel();
    for (int64_t i = 0; i < n; ++i) total += double(g[i]) * g[i];
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    std::vector<float*> grads(params_.size(), nullptr);
    for (size_t k = 0; k < params_.size(); ++k) {
      if (params_[k].has_grad()) grads[k] = params_[k].mutable_grad_data();
    }
    ForEachSlice(offsets_, [&](size_t k, int64_t lo, int64_t hi) {
      float* g = grads[k];
      if (g == nullptr) return;
      for (int64_t i = lo; i < hi; ++i) g[i] *= scale;
    });
  }
  return norm;
}

void Adam::RestoreState(int64_t step_count, std::vector<std::vector<float>> m,
                        std::vector<std::vector<float>> v) {
  STISAN_CHECK_GE(step_count, 0);
  STISAN_CHECK_EQ(m.size(), params_.size());
  STISAN_CHECK_EQ(v.size(), params_.size());
  for (size_t k = 0; k < params_.size(); ++k) {
    STISAN_CHECK_EQ(static_cast<int64_t>(m[k].size()), params_[k].numel());
    STISAN_CHECK_EQ(static_cast<int64_t>(v[k].size()), params_[k].numel());
  }
  t_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
}

void Adam::Step() {
  ++t_;
  const StepCoeffs c{
      options_.lr,
      options_.beta1,
      options_.beta2,
      options_.eps,
      options_.weight_decay,
      1.0f - std::pow(options_.beta1, static_cast<float>(t_)),
      1.0f - std::pow(options_.beta2, static_cast<float>(t_)),
  };
  // A parameter without a gradient buffer is skipped. Pointers are read
  // here, on the calling thread, and the chunks only use them.
  struct Slot {
    float* w;
    const float* g;
  };
  std::vector<Slot> slots(params_.size(), Slot{nullptr, nullptr});
  for (size_t k = 0; k < params_.size(); ++k) {
    Tensor& p = params_[k];
    if (p.has_grad()) slots[k] = {p.data(), p.grad_data()};
  }
  ForEachSlice(offsets_, [&](size_t k, int64_t lo, int64_t hi) {
    const Slot& s = slots[k];
    if (s.g == nullptr) return;
    AdamUpdate(s.w + lo, s.g + lo, m_[k].data() + lo, v_[k].data() + lo,
               hi - lo, c);
  });
}

}  // namespace stisan
