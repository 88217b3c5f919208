#include "nn/layers.h"

#include <cmath>

namespace stisan::nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias,
               bool zero_init)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter(
      zero_init ? Tensor::Zeros({in_features, out_features})
                : Tensor::XavierUniform(in_features, out_features, rng));
  if (bias) {
    bias_ = RegisterParameter(Tensor::Zeros({out_features}));
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  STISAN_CHECK_EQ(x.shape().back(), in_features_);
  Tensor out = ops::MatMul(x, weight_);
  if (bias_.defined()) out = out + bias_;
  return out;
}

Tensor Linear::ForwardRelu(const Tensor& x) const {
  STISAN_CHECK_EQ(x.shape().back(), in_features_);
  Tensor out = ops::MatMul(x, weight_);
  if (bias_.defined()) return ops::FusedBiasRelu(out, bias_);
  return ops::Relu(out);
}

Embedding::Embedding(int64_t vocab_size, int64_t dim, Rng& rng,
                     int64_t padding_idx)
    : padding_idx_(padding_idx) {
  // Normal(0, 1/sqrt(d)) initialisation keeps dot products O(1).
  weight_ = RegisterParameter(
      Tensor::Randn({vocab_size, dim}, rng, 1.0f / std::sqrt(float(dim))));
  if (padding_idx_ >= 0) {
    // Zero the padding row so eval-time lookups of padding are exact zeros.
    float* w = weight_.data();
    for (int64_t j = 0; j < dim; ++j) w[padding_idx_ * dim + j] = 0.0f;
  }
}

Tensor Embedding::Forward(const std::vector<int64_t>& ids) const {
  return ops::EmbeddingLookup(weight_, ids, padding_idx_);
}

LayerNorm::LayerNorm(int64_t dim, float eps) : eps_(eps) {
  gamma_ = RegisterParameter(Tensor::Ones({dim}));
  beta_ = RegisterParameter(Tensor::Zeros({dim}));
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  return ops::LayerNorm(x, gamma_, beta_, eps_);
}

Tensor LayerNorm::ForwardResidual(const Tensor& base,
                                  const Tensor& residual) const {
  return ops::FusedResidualLayerNorm(base, residual, gamma_, beta_, eps_);
}

PointwiseFeedForward::PointwiseFeedForward(int64_t dim, int64_t hidden_dim,
                                           float dropout, Rng& rng,
                                           bool zero_init_output)
    : fc1_(dim, hidden_dim, rng),
      fc2_(hidden_dim, dim, rng, /*bias=*/true, zero_init_output),
      dropout_(dropout) {
  STISAN_CHECK_GT(hidden_dim, dim);  // paper: d_h > d
  RegisterModule(&fc1_);
  RegisterModule(&fc2_);
  RegisterModule(&dropout_);
}

Tensor PointwiseFeedForward::Forward(const Tensor& x, Rng& rng) const {
  Tensor h = fc1_.ForwardRelu(x);
  h = dropout_.Forward(h, rng);
  return fc2_.Forward(h);
}

Tensor SinusoidalEncoding(const std::vector<double>& positions, int64_t dim) {
  STISAN_CHECK_GT(dim, 0);
  STISAN_CHECK_EQ(dim % 2, 0);
  const int64_t n = static_cast<int64_t>(positions.size());
  Tensor out = Tensor::Zeros({n, dim});
  float* od = out.data();
  // div_term[i] = exp(-log(10000) * 2i / d), matching Algorithm 1.
  for (int64_t k = 0; k < n; ++k) {
    const double pos = positions[static_cast<size_t>(k)];
    for (int64_t i = 0; i < dim / 2; ++i) {
      const double div =
          std::exp(-std::log(10000.0) * double(2 * i) / double(dim));
      od[k * dim + 2 * i] = static_cast<float>(std::sin(pos * div));
      od[k * dim + 2 * i + 1] = static_cast<float>(std::cos(pos * div));
    }
  }
  return out;
}

Tensor VanillaPositionalEncoding(int64_t n, int64_t dim) {
  std::vector<double> pos(static_cast<size_t>(n));
  for (int64_t k = 0; k < n; ++k) pos[static_cast<size_t>(k)] = double(k + 1);
  return SinusoidalEncoding(pos, dim);
}

LearnedPositionalEmbedding::LearnedPositionalEmbedding(int64_t max_len,
                                                       int64_t dim, Rng& rng) {
  weight_ = RegisterParameter(
      Tensor::Randn({max_len, dim}, rng, 1.0f / std::sqrt(float(dim))));
}

Tensor LearnedPositionalEmbedding::Forward(int64_t n) const {
  STISAN_CHECK_LE(n, weight_.size(0));
  // Zero-copy view of the parameter's first n rows; gradients accumulate
  // straight into the parameter's buffer (views share grad storage).
  return ops::Slice(weight_, 0, 0, n);
}

}  // namespace stisan::nn
