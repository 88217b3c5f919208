#include "tensor/optimizer.h"

#include <cmath>

#include "util/check.h"

namespace stisan {

Adam::Adam(std::vector<Tensor> params, Options options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto& p : params_) {
    m_.emplace_back(static_cast<size_t>(p.numel()), 0.0f);
    v_.emplace_back(static_cast<size_t>(p.numel()), 0.0f);
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
    for (auto& p : params_) {
      if (!p.has_grad()) continue;
      float* g = p.mutable_grad_data();
      const int64_t n = p.numel();
      for (int64_t i = 0; i < n; ++i) g[i] *= scale;
    }
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
  const float bc1 = 1.0f - std::pow(options_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(options_.beta2, static_cast<float>(t_));
  for (size_t k = 0; k < params_.size(); ++k) {
    Tensor& p = params_[k];
    if (!p.has_grad()) continue;
    float* w = p.data();
    const float* g = p.grad_data();
    auto& m = m_[k];
    auto& v = v_[k];
    const int64_t n = p.numel();
    for (int64_t i = 0; i < n; ++i) {
      const float grad = g[i] + options_.weight_decay * w[i];
      m[i] = options_.beta1 * m[i] + (1.0f - options_.beta1) * grad;
      v[i] = options_.beta2 * v[i] + (1.0f - options_.beta2) * grad * grad;
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      w[i] -= options_.lr * mhat / (std::sqrt(vhat) + options_.eps);
    }
  }
}

}  // namespace stisan
