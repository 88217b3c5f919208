// Core feed-forward layers: Linear, Embedding, LayerNorm, dropout wrapper,
// point-wise feed-forward network, and positional encodings.

#pragma once

#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace stisan::nn {

/// Fully-connected layer y = xW + b. Accepts [*, in] inputs.
class Linear : public Module {
 public:
  /// `zero_init` starts the weight at zero (ReZero/skip-init style) so a
  /// residual branch contributes nothing until training grows it.
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool bias = true, bool zero_init = false);

  Tensor Forward(const Tensor& x) const;

  /// relu(Forward(x)): the bias add and relu lower through
  /// ops::FusedBiasRelu (one node, bit-identical to the composed chain).
  Tensor ForwardRelu(const Tensor& x) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out] or undefined
};

/// Token embedding table with optional zero-encoded padding index.
class Embedding : public Module {
 public:
  Embedding(int64_t vocab_size, int64_t dim, Rng& rng,
            int64_t padding_idx = -1);

  /// Looks up rows: [ids.size(), dim].
  Tensor Forward(const std::vector<int64_t>& ids) const;

  const Tensor& weight() const { return weight_; }
  int64_t vocab_size() const { return weight_.size(0); }
  int64_t dim() const { return weight_.size(1); }

 private:
  Tensor weight_;
  int64_t padding_idx_;
};

/// Layer normalisation over the last dimension with learned affine (eq. 9).
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim, float eps = 1e-5f);

  Tensor Forward(const Tensor& x) const;

  /// Forward(base + residual): lowers through ops::FusedResidualLayerNorm
  /// (one node, bit-identical to the composed Add + LayerNorm chain).
  Tensor ForwardResidual(const Tensor& base, const Tensor& residual) const;

 private:
  Tensor gamma_;
  Tensor beta_;
  float eps_;
};

/// Dropout respecting the module training flag.
class Dropout : public Module {
 public:
  explicit Dropout(float p) : p_(p) {}

  Tensor Forward(const Tensor& x, Rng& rng) const {
    return ops::Dropout(x, p_, rng, training());
  }

  float p() const { return p_; }

 private:
  float p_;
};

/// Two-layer point-wise feed-forward network (paper eq. 7):
///   F = max(0, A W1 + b1) W2 + b2,  with hidden dim d_h > d.
class PointwiseFeedForward : public Module {
 public:
  /// `zero_init_output` zeroes the second projection so the FFN residual
  /// branch starts inert.
  PointwiseFeedForward(int64_t dim, int64_t hidden_dim, float dropout,
                       Rng& rng, bool zero_init_output = false);

  Tensor Forward(const Tensor& x, Rng& rng) const;

 private:
  Linear fc1_;
  Linear fc2_;
  Dropout dropout_;
};

/// Fixed sinusoidal positional encoding (Vaswani et al.): builds the [n, d]
/// matrix for arbitrary (possibly fractional) positions. This is the shared
/// primitive behind both the vanilla PE and the paper's TAPE.
///
/// PE(pos, 2i)   = sin(pos / 10000^(2i/d))
/// PE(pos, 2i+1) = cos(pos / 10000^(2i/d))
Tensor SinusoidalEncoding(const std::vector<double>& positions, int64_t dim);

/// Vanilla positional encoding for integer positions 1..n.
Tensor VanillaPositionalEncoding(int64_t n, int64_t dim);

/// Learned absolute positional embedding (Bert4Rec-style).
class LearnedPositionalEmbedding : public Module {
 public:
  LearnedPositionalEmbedding(int64_t max_len, int64_t dim, Rng& rng);

  /// Returns the [n, dim] slice for positions 0..n-1.
  Tensor Forward(int64_t n) const;

 private:
  Tensor weight_;  // [max_len, dim]
};

}  // namespace stisan::nn
