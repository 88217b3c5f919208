// Interval Aware Attention Block (IAAB) — paper §III-E, eq. 5-9, Alg. 2.
//
// One block alternates an interval-aware attention layer and a two-layer
// point-wise feed-forward network, each wrapped in a pre-norm residual
// (eq. 8): x = x + Layer(LayerNorm(x)).
//
// The attention layer is a causal single-head self-attention whose logits
// receive the softmax-scaled spatial-temporal relation matrix as a
// parameter-free additive bias (eq. 6). Ablation modes reproduce the
// paper's Table IV variants:
//  - kVanilla:      bias dropped (variant III, "Remove IAAB")
//  - kRelationOnly: attention map replaced by Softmax(R) (variant IV,
//                   "Remove SA")

#pragma once

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace stisan::core {

enum class AttentionMode {
  kIntervalAware,  // Softmax(QK^T/sqrt(d) + softmax(R)) V  — full IAAB
  kVanilla,        // Softmax(QK^T/sqrt(d)) V               — ablation III
  kRelationOnly,   // Softmax(R) V                          — ablation IV
};

struct IaabOptions {
  int64_t dim = 64;
  int64_t ffn_hidden = 256;  // d_h > d (paper eq. 7)
  float dropout = 0.2f;
  AttentionMode mode = AttentionMode::kIntervalAware;
  /// false = bidirectional attention (Bert4Rec); masking then comes only
  /// from the caller-provided mask.
  bool causal = true;
};

/// A single Interval Aware Attention Block.
///
/// CPU-scale initialisation: W_V starts as the identity (the attention
/// branch mixes actual embeddings — and thus the geography kernel — from
/// the first step, letting the relation bias act immediately) and the FFN
/// residual branch is gated by a learnable ReZero scalar initialised to 0.
class IntervalAwareAttentionBlock : public nn::Module {
 public:
  IntervalAwareAttentionBlock(const IaabOptions& options, Rng& rng);

  /// x: [n, d]. relation_bias: softmax-scaled R [n, n] (may be undefined in
  /// kVanilla mode). mask: additive causal/padding mask [n, n].
  /// Returns [n, d].
  Tensor Forward(const Tensor& x, const Tensor& relation_bias,
                 const Tensor& mask, Rng& rng) const;

  /// Forward() split at the final residual: writes the attention-sublayer
  /// output h into *base and returns the (gated, dropped) FFN branch r, so
  /// the caller can fuse `h + r` into a downstream layer norm
  /// (LayerNorm::ForwardResidual). Forward(x) == *base + result.
  Tensor ForwardSplit(const Tensor& x, const Tensor& relation_bias,
                      const Tensor& mask, Rng& rng, Tensor* base) const;

  /// Post-softmax attention map of this block's attention layer
  /// (interpretability probe; no dropout).
  Tensor AttentionMap(const Tensor& x, const Tensor& relation_bias,
                      const Tensor& mask) const;

 private:
  IaabOptions options_;
  nn::LayerNorm ln_attention_;
  nn::CausalSelfAttention attention_;
  nn::Linear values_;  // used by kRelationOnly (Softmax(R) V needs V only)
  nn::LayerNorm ln_ffn_;
  nn::PointwiseFeedForward ffn_;
  nn::Dropout residual_dropout_;
  Tensor gate_ffn_;  // [1] ReZero gate on the FFN branch
};

/// A stack of N blocks with a final layer norm.
class IaabEncoder : public nn::Module {
 public:
  IaabEncoder(const IaabOptions& options, int64_t num_blocks, Rng& rng);

  Tensor Forward(const Tensor& x, const Tensor& relation_bias,
                 const Tensor& mask, Rng& rng) const;

  /// Attention maps of every block collected during a forward pass
  /// (interpretability probe; call in eval mode).
  std::vector<Tensor> AttentionMaps(const Tensor& x,
                                    const Tensor& relation_bias,
                                    const Tensor& mask, Rng& rng) const;

  int64_t num_blocks() const { return static_cast<int64_t>(blocks_.size()); }

 private:
  std::vector<std::unique_ptr<IntervalAwareAttentionBlock>> blocks_;
  nn::LayerNorm final_norm_;
};

}  // namespace stisan::core
