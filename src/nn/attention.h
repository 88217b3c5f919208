// Attention primitive: causal self-attention with an optional additive
// relation bias — the hook IAAB uses.

#pragma once

#include "nn/layers.h"
#include "nn/module.h"

namespace stisan::nn {

/// Builds an [n, n] additive causal mask: 0 on/below the diagonal, -1e9
/// strictly above (prevents information leakage, paper §III-D). Only the
/// AttentionMap probe needs it; the fused kernel applies causality by loop
/// bounds.
Tensor BuildCausalMask(int64_t n);

/// Single-head scaled dot-product self-attention with a causal mask
/// (paper eq. 5-6 with R = 0):
///   A = Softmax(Q K^T / sqrt(d) + mask [+ bias]) V
///
/// The optional `bias` is an [n, n] additive term applied inside the
/// softmax; passing the softmax-scaled spatial-temporal relation matrix here
/// turns this layer into the paper's Interval Aware Attention Layer. Biases
/// that require grad (e.g. TiSASRec's learned bucket bias) receive
/// gradients.
///
/// Lowering: the whole softmax(qkᵀ·scale + mask + bias)v chain runs as one
/// ops::FusedAttention node. tests/fused_attention_test.cpp keeps the
/// composed per-op chain as its bit-exactness oracle.
class CausalSelfAttention : public Module {
 public:
  /// `causal` = false disables the built-in causal mask (bidirectional
  /// attention, e.g. Bert4Rec); any masking must then come via `bias`.
  /// `identity_init_values` initialises W_V to the identity so the
  /// attention output starts as a plain attention-weighted average of the
  /// (normed) inputs — content-meaningful from the first step, which lets
  /// additive biases like IAAB's relation matrix act immediately.
  CausalSelfAttention(int64_t dim, float dropout, Rng& rng,
                      bool causal = true, bool identity_init_values = false);

  /// x: [n, d] or a padded batch [b, n, d]. bias: [n, n], [b, n, n], or
  /// undefined. Returns the same rank as x. Batched rows run through the
  /// same row-wise kernels as the 2-D path, so per-sequence outputs match
  /// the single-sequence forward exactly.
  Tensor Forward(const Tensor& x, const Tensor& bias, Rng& rng) const;

  /// Returns the post-softmax attention map [n, n] (no dropout) for
  /// interpretability probes (paper Fig. 5 / Fig. 7).
  Tensor AttentionMap(const Tensor& x, const Tensor& bias) const;

  int64_t dim() const { return dim_; }
  bool causal() const { return causal_; }

 private:
  int64_t dim_;
  bool causal_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Dropout dropout_;
};

}  // namespace stisan::nn
