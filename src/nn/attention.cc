#include "nn/attention.h"

#include <algorithm>
#include <cmath>

namespace stisan::nn {

Tensor BuildCausalMask(int64_t n) {
  Tensor mask = Tensor::Zeros({n, n});
  float* m = mask.data();
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = i + 1; j < n; ++j) m[i * n + j] = -1e9f;
  return mask;
}

CausalSelfAttention::CausalSelfAttention(int64_t dim, float dropout, Rng& rng,
                                         bool causal,
                                         bool identity_init_values)
    : dim_(dim),
      causal_(causal),
      wq_(dim, dim, rng, /*bias=*/false),
      wk_(dim, dim, rng, /*bias=*/false),
      wv_(dim, dim, rng, /*bias=*/false),
      dropout_(dropout) {
  if (identity_init_values) {
    Tensor w = wv_.Parameters()[0];
    const Tensor id = Tensor::Identity(dim);
    std::copy(id.data(), id.data() + id.numel(), w.data());
  }
  RegisterModule(&wq_);
  RegisterModule(&wk_);
  RegisterModule(&wv_);
  RegisterModule(&dropout_);
}

Tensor CausalSelfAttention::Forward(const Tensor& x, const Tensor& bias,
                                    Rng& rng) const {
  // Accepts [n, d] or a padded batch [b, n, d]; per-sequence rows go
  // through the exact same row-wise kernels, so a batched forward scores
  // each sequence identically to its single-sequence forward.
  STISAN_CHECK_GE(x.dim(), 2);
  const int64_t n = x.size(x.dim() - 2);
  STISAN_CHECK_EQ(x.shape().back(), dim_);
  if (bias.defined()) {
    STISAN_CHECK(bias.shape() == (Shape{n, n}) ||
                 (bias.dim() == x.dim() && bias.size(-2) == n &&
                  bias.size(-1) == n));
  }
  Tensor q = wq_.Forward(x);
  Tensor k = wk_.Forward(x);
  Tensor v = wv_.Forward(x);
  // Single node: causality via loop bounds, bias added inside the fused
  // logit pass, dropout drawn from the same RNG stream as ops::Dropout.
  ops::FusedAttentionOptions options;
  options.causal = causal_;
  options.scale = 1.0f / std::sqrt(float(dim_));
  options.dropout_p = dropout_.p();
  options.rng = &rng;
  options.training = dropout_.training();
  return ops::FusedAttention(q, k, v, bias, options);
}

Tensor CausalSelfAttention::AttentionMap(const Tensor& x,
                                         const Tensor& bias) const {
  // Stays on the composed ops: the fused kernel deliberately never
  // materialises the probability matrix as a tensor.
  const int64_t n = x.size(0);
  Tensor q = wq_.Forward(x);
  Tensor k = wk_.Forward(x);
  Tensor logits = ops::MulScalar(ops::MatMul(q, ops::TransposeLast2(k)),
                                 1.0f / std::sqrt(float(dim_)));
  if (causal_) logits = logits + BuildCausalMask(n);
  if (bias.defined()) logits = logits + bias;
  return ops::Softmax(logits);
}

}  // namespace stisan::nn
