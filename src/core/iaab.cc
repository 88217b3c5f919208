#include "core/iaab.h"

namespace stisan::core {

IntervalAwareAttentionBlock::IntervalAwareAttentionBlock(
    const IaabOptions& options, Rng& rng)
    : options_(options),
      ln_attention_(options.dim),
      attention_(options.dim, options.dropout, rng, options.causal,
                 /*identity_init_values=*/true),
      values_(options.dim, options.dim, rng, /*bias=*/false),
      ln_ffn_(options.dim),
      ffn_(options.dim, options.ffn_hidden, options.dropout, rng),
      residual_dropout_(options.dropout) {
  RegisterModule(&ln_attention_);
  RegisterModule(&attention_);
  RegisterModule(&values_);
  RegisterModule(&ln_ffn_);
  RegisterModule(&ffn_);
  RegisterModule(&residual_dropout_);
  gate_ffn_ = RegisterParameter(Tensor::Zeros({1}));
}

Tensor IntervalAwareAttentionBlock::Forward(const Tensor& x,
                                            const Tensor& relation_bias,
                                            const Tensor& mask,
                                            Rng& rng) const {
  Tensor base;
  Tensor r = ForwardSplit(x, relation_bias, mask, rng, &base);
  return base + r;
}

Tensor IntervalAwareAttentionBlock::ForwardSplit(const Tensor& x,
                                                 const Tensor& relation_bias,
                                                 const Tensor& mask, Rng& rng,
                                                 Tensor* base) const {
  // ---- Attention sub-layer: x = x + Attn(LN(x)) (eq. 8) ----
  Tensor normed = ln_attention_.Forward(x);
  Tensor attended;
  switch (options_.mode) {
    case AttentionMode::kIntervalAware: {
      STISAN_CHECK_MSG(relation_bias.defined(),
                       "kIntervalAware requires a relation bias");
      // The mask rides along with the bias: Softmax(QK^T/sqrt(d)+R+mask)V.
      attended = attention_.Forward(normed, relation_bias + mask, rng);
      break;
    }
    case AttentionMode::kVanilla: {
      attended = attention_.Forward(normed, mask, rng);
      break;
    }
    case AttentionMode::kRelationOnly: {
      // Ablation IV (eq. 16): A = Softmax(R) V. The softmax-scaled relation
      // already has masked entries at exactly 0, so it is used directly as
      // the attention map.
      STISAN_CHECK_MSG(relation_bias.defined(),
                       "kRelationOnly requires a relation bias");
      attended = ops::MatMul(relation_bias, values_.Forward(normed));
      break;
    }
  }
  Tensor h = x + residual_dropout_.Forward(attended, rng);

  // ---- Feed-forward sub-layer: h = h + FFN(LN(h)) ----
  Tensor ffn_out = ffn_.Forward(ln_ffn_.Forward(h), rng) * gate_ffn_;
  *base = h;
  return residual_dropout_.Forward(ffn_out, rng);
}

Tensor IntervalAwareAttentionBlock::AttentionMap(const Tensor& x,
                                                 const Tensor& relation_bias,
                                                 const Tensor& mask) const {
  Tensor normed = ln_attention_.Forward(x);
  switch (options_.mode) {
    case AttentionMode::kIntervalAware:
      return attention_.AttentionMap(normed, relation_bias + mask);
    case AttentionMode::kVanilla:
      return attention_.AttentionMap(normed, mask);
    case AttentionMode::kRelationOnly:
      return relation_bias;
  }
  return Tensor();
}

IaabEncoder::IaabEncoder(const IaabOptions& options, int64_t num_blocks,
                         Rng& rng)
    : final_norm_(options.dim) {
  STISAN_CHECK_GE(num_blocks, 1);
  for (int64_t b = 0; b < num_blocks; ++b) {
    blocks_.push_back(
        std::make_unique<IntervalAwareAttentionBlock>(options, rng));
    RegisterModule(blocks_.back().get());
  }
  RegisterModule(&final_norm_);
}

Tensor IaabEncoder::Forward(const Tensor& x, const Tensor& relation_bias,
                            const Tensor& mask, Rng& rng) const {
  Tensor h = x;
  for (size_t b = 0; b + 1 < blocks_.size(); ++b) {
    h = blocks_[b]->Forward(h, relation_bias, mask, rng);
  }
  // The last block's closing residual feeds straight into the final norm:
  // split it so the pair can lower through FusedResidualLayerNorm.
  Tensor base;
  Tensor r = blocks_.back()->ForwardSplit(h, relation_bias, mask, rng, &base);
  return final_norm_.ForwardResidual(base, r);
}

std::vector<Tensor> IaabEncoder::AttentionMaps(const Tensor& x,
                                               const Tensor& relation_bias,
                                               const Tensor& mask,
                                               Rng& rng) const {
  std::vector<Tensor> maps;
  Tensor h = x;
  for (const auto& block : blocks_) {
    maps.push_back(block->AttentionMap(h, relation_bias, mask));
    h = block->Forward(h, relation_bias, mask, rng);
  }
  return maps;
}

}  // namespace stisan::core
