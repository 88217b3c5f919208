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
                                         bool identity_init_values,
                                         int64_t num_heads)
    : dim_(dim),
      num_heads_(num_heads),
      causal_(causal),
      wq_(dim, dim, rng, /*bias=*/false),
      wk_(dim, dim, rng, /*bias=*/false),
      wv_(dim, dim, rng, /*bias=*/false),
      dropout_(dropout) {
  STISAN_CHECK_GE(num_heads, 1);
  STISAN_CHECK_EQ(dim % num_heads, 0);
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

Tensor CausalSelfAttention::HeadAttention(const Tensor& q, const Tensor& k,
                                          const Tensor& v, const Tensor& bias,
                                          int64_t n, Rng& rng) const {
  if (bias.defined()) {
    STISAN_CHECK(bias.shape() == (Shape{n, n}) ||
                 (bias.dim() == q.dim() && bias.size(-2) == n &&
                  bias.size(-1) == n));
  }
  // Single node: causality via loop bounds, bias added inside the fused
  // logit pass, dropout drawn from the same RNG stream as ops::Dropout. The
  // softmax scale uses the head width (last dim) for any rank.
  ops::FusedAttentionOptions options;
  options.causal = causal_;
  options.scale = 1.0f / std::sqrt(float(q.shape().back()));
  options.dropout_p = dropout_.p();
  options.rng = &rng;
  options.training = dropout_.training();
  return ops::FusedAttention(q, k, v, bias, options);
}

Tensor CausalSelfAttention::Forward(const Tensor& x, const Tensor& bias,
                                    Rng& rng) const {
  // Accepts [n, d] or a padded batch [b, n, d]; per-sequence rows go
  // through the exact same row-wise kernels, so a batched forward scores
  // each sequence identically to its single-sequence forward.
  STISAN_CHECK_GE(x.dim(), 2);
  const int64_t n = x.size(x.dim() - 2);
  STISAN_CHECK_EQ(x.shape().back(), dim_);
  Tensor q = wq_.Forward(x);
  Tensor k = wk_.Forward(x);
  Tensor v = wv_.Forward(x);
  if (num_heads_ == 1) {
    return HeadAttention(q, k, v, bias, n, rng);
  }
  // Multi-head: slice the last dim into head-sized columns (zero-copy
  // strided views over q/k/v), attend per head, concatenate. The additive
  // bias is shared across heads.
  const int64_t dk = dim_ / num_heads_;
  const int64_t last = x.dim() - 1;
  Tensor out;
  for (int64_t h = 0; h < num_heads_; ++h) {
    Tensor head = HeadAttention(
        ops::Slice(q, last, h * dk, (h + 1) * dk),
        ops::Slice(k, last, h * dk, (h + 1) * dk),
        ops::Slice(v, last, h * dk, (h + 1) * dk), bias, n, rng);
    out = out.defined() ? ops::Concat(out, head, last) : head;
  }
  return out;
}

Tensor CausalSelfAttention::AttentionMap(const Tensor& x,
                                         const Tensor& bias) const {
  // Probe uses the first head's map (identical to the full map when
  // single-head). Stays on the composed ops: the fused kernel deliberately
  // never materialises the probability matrix as a tensor.
  const int64_t n = x.size(0);
  const int64_t dk = dim_ / num_heads_;
  Tensor q = ops::Slice(wq_.Forward(x), 1, 0, dk);
  Tensor k = ops::Slice(wk_.Forward(x), 1, 0, dk);
  Tensor logits = ops::MulScalar(ops::MatMul(q, ops::TransposeLast2(k)),
                                 1.0f / std::sqrt(float(dk)));
  if (causal_) logits = logits + BuildCausalMask(n);
  if (bias.defined()) logits = logits + bias;
  return ops::Softmax(logits);
}

}  // namespace stisan::nn
