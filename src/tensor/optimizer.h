// The Adam optimizer over a flat parameter list.

#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace stisan {

/// Adam (Kingma & Ba, 2015) with decoupled-free classic L2 weight decay,
/// matching torch.optim.Adam defaults used by the paper's PyTorch code.
/// Holds references to the trainable tensors and updates them in place
/// from their .grad buffers.
///
/// Step() and ClipGradNorm()'s rescale are elementwise, so each runs as one
/// kernels::ParallelRanges split over all parameters' elements laid end to
/// end; a chunk updates the slices of the tensors its range covers. Each
/// element's arithmetic is the serial loop's, so every thread count gives
/// the same bits. The parameters' data must not overlap (the constructor
/// checks), since two threads would otherwise update one element at once.
/// ClipGradNorm()'s norm stays one sequential double sum: reordering it
/// could move the norm's last bit.
class Adam {
 public:
  struct Options {
    float lr = 0.001f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    float weight_decay = 0.0f;
  };

  Adam(std::vector<Tensor> params, Options options);

  /// Applies one update step using current gradients.
  void Step();

  /// Zero-fills every parameter gradient.
  void ZeroGrad();

  /// Rescales gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm.
  float ClipGradNorm(float max_norm);

  /// Optimizer state for checkpointing: step count and per-parameter
  /// first/second moments, in parameter registration order.
  int64_t step_count() const { return t_; }
  const std::vector<std::vector<float>>& first_moments() const { return m_; }
  const std::vector<std::vector<float>>& second_moments() const { return v_; }

  /// Restores state captured from an identically-shaped Adam instance.
  /// The moment vectors must match the parameter list element-for-element.
  void RestoreState(int64_t step_count, std::vector<std::vector<float>> m,
                    std::vector<std::vector<float>> v);

 private:
  std::vector<Tensor> params_;
  Options options_;
  int64_t t_ = 0;
  // offsets_[k] is parameter k's first element in the concatenated range;
  // offsets_.back() is the total element count.
  std::vector<int64_t> offsets_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace stisan
