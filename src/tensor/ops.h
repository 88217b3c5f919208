// Differentiable tensor operations.
//
// Every function here builds an autograd node unless recording is disabled
// via NoGradGuard. Shapes are validated with STISAN_CHECK; mismatches are
// programming errors.
//
// Broadcasting: binary elementwise ops broadcast numpy-style (align shapes
// from the right; size-1 dims stretch). Gradients are reduce-summed back to
// each operand's shape.

#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace stisan {
namespace ops {

// ---- Elementwise binary (broadcasting) ----------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

// ---- Scalar --------------------------------------------------------------

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// ---- Unary ----------------------------------------------------------------

Tensor Neg(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Square(const Tensor& a);

// ---- Matrix ---------------------------------------------------------------

/// Matrix product. Supports [m,k]x[k,n], batched [b,m,k]x[b,k,n], and
/// broadcast [b,m,k]x[k,n] (shared right operand). A 2-D right operand that
/// is a TransposeLast2 view is consumed in place (no materialisation): the
/// kernel reads the underlying dense block with swapped strides.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Swaps the last two dimensions. Zero-copy: returns a strided view sharing
/// the input's storage. Requires dim() >= 2.
Tensor TransposeLast2(const Tensor& a);

// ---- Shape ------------------------------------------------------------------

/// Returns a tensor with the same values guaranteed dense row-major. The
/// input itself when already contiguous (no copy); otherwise a materialised
/// copy whose backward scatter-accumulates into the view's base storage.
Tensor Contiguous(const Tensor& a);

/// Reshapes; numel must match. Zero-copy view when the input is contiguous
/// (the common case); otherwise materialises a dense copy first.
Tensor Reshape(const Tensor& a, Shape new_shape);

/// Concatenates two tensors along `dim` (other dims must match).
Tensor Concat(const Tensor& a, const Tensor& b, int64_t dim);

/// Slices along `dim`, keeping indices [start, end). Zero-copy: returns a
/// strided view sharing the input's storage (contiguous when dim == 0).
Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t end);

/// Stacks equally-shaped tensors along a new leading dimension.
Tensor Stack0(const std::vector<Tensor>& parts);

/// Extracts sliding windows from a 2D tensor [n, d]: returns
/// [n - window + 1, window * d] rows of flattened windows (for Caser's
/// horizontal convolutions).
Tensor Unfold1D(const Tensor& a, int64_t window);

// ---- Reductions --------------------------------------------------------------

/// Sum of all elements -> scalar [1].
Tensor Sum(const Tensor& a);

/// Sum over one dimension. keepdim retains a size-1 dim.
Tensor SumDim(const Tensor& a, int64_t dim, bool keepdim = false);

/// Max over one dimension (gradient routes to the argmax).
Tensor MaxDim(const Tensor& a, int64_t dim, bool keepdim = false);

// ---- Neural-net specific -------------------------------------------------------

/// Softmax over the last dimension.
Tensor Softmax(const Tensor& a);

/// Fused layer normalisation over the last dimension:
///   y = gamma * (x - mu) / sqrt(var + eps) + beta
/// gamma/beta have shape [d] where d is the last dim of x.
Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

/// Row gather: out[i, :] = weight[ids[i], :]. `weight` is [V, d].
/// Rows equal to `padding_idx` (if >= 0) produce zeros and receive no
/// gradient (the paper zero-encodes padding check-ins).
Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int64_t>& ids,
                       int64_t padding_idx = -1);

/// Inverted dropout: keeps elements with prob 1-p and scales by 1/(1-p).
/// Identity when `training` is false or p == 0.
Tensor Dropout(const Tensor& a, float p, Rng& rng, bool training);

// ---- Fused attention -------------------------------------------------------

/// Options for FusedAttention. Dropout (applied to the post-softmax
/// probabilities, matching ops::Dropout's RNG stream exactly) is active only
/// when `training` and `dropout_p` > 0, and then requires `rng`.
struct FusedAttentionOptions {
  bool causal = false;
  float scale = 1.0f;
  float dropout_p = 0.0f;
  Rng* rng = nullptr;
  bool training = false;
};

/// Fused scaled-masked-softmax attention
///
///   softmax(q kᵀ · scale + causal_mask [+ bias]) v
///
/// as a single autograd node backed by kernels::FusedAttention{Forward,
/// Backward}. q: [m,d] or [b,m,d]; k/v: [n,d] or [b,n,d] (k and v may alias,
/// as in TAAD's Attn(C,F,F)); bias: undefined, [m,n], [b,m,n], or a shared
/// [m,n] broadcast over a batched q. `causal` requires m == n and is applied
/// by loop bounds — no mask tensor, no -1e9 additions. Only the attention
/// probabilities (and dropout mask) are saved for the backward. Results and
/// gradients are bit-identical to the composed op chain and deterministic
/// across thread counts.
Tensor FusedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                      const Tensor& bias, const FusedAttentionOptions& options);

/// Convenience overload without dropout.
Tensor FusedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                      const Tensor& bias, bool causal, float scale);

/// Fused relu(x + b) for a trailing bias vector b ([d] against x [..., d]):
/// one autograd node instead of the Add + Relu pair. Forward values,
/// gradients, and accumulation order are bit-identical to the composed
/// chain. Linear::ForwardRelu lowers through this.
Tensor FusedBiasRelu(const Tensor& x, const Tensor& b);

/// Fused LayerNorm(x + r): the residual-add feeding a layer norm collapses
/// into one autograd node that saves the sum (plus the per-row stats)
/// instead of materialising an intermediate graph node. Bit-identical to
/// the composed chain, including the serial backward reduction order.
/// LayerNorm::ForwardResidual lowers through this.
Tensor FusedResidualLayerNorm(const Tensor& x, const Tensor& r,
                              const Tensor& gamma, const Tensor& beta,
                              float eps);

// ---- Convenience -----------------------------------------------------------------

/// Scalar loss helpers used by training code.
/// Numerically stable log(sigmoid(x)).
Tensor LogSigmoid(const Tensor& a);

}  // namespace ops

// Operator sugar (elementwise, broadcasting).
Tensor operator+(const Tensor& a, const Tensor& b);
Tensor operator-(const Tensor& a, const Tensor& b);
Tensor operator*(const Tensor& a, const Tensor& b);
Tensor operator+(const Tensor& a, float s);
Tensor operator*(const Tensor& a, float s);
Tensor operator-(const Tensor& a);

}  // namespace stisan
