#include "core/taad.h"

#include <cmath>

#include "tensor/ops.h"
#include "util/check.h"

namespace stisan::core {

Tensor TaadDecode(const Tensor& candidates, const Tensor& encoder_out,
                  const std::vector<int64_t>& step_of_row,
                  int64_t first_real) {
  STISAN_CHECK_EQ(candidates.dim(), 2);
  STISAN_CHECK_EQ(encoder_out.dim(), 2);
  const int64_t m = candidates.size(0);
  const int64_t d = candidates.size(1);
  const int64_t n = encoder_out.size(0);
  STISAN_CHECK_EQ(d, encoder_out.size(1));
  STISAN_CHECK_EQ(m, static_cast<int64_t>(step_of_row.size()));

  // Per-row leakage mask: row r sees keys [first_real, step_of_row[r]].
  Tensor mask = Tensor::Zeros({m, n});
  float* md = mask.data();
  for (int64_t r = 0; r < m; ++r) {
    const int64_t step = step_of_row[static_cast<size_t>(r)];
    STISAN_CHECK_GE(step, 0);
    STISAN_CHECK_LT(step, n);
    const int64_t lo = std::min(step, first_real);
    for (int64_t j = 0; j < n; ++j) {
      const bool visible = j <= step && j >= lo && (j >= first_real || j == step);
      if (!visible) md[r * n + j] = -1e9f;
    }
  }

  // Attn(C, F, F) in one node; the per-row visibility mask rides in as the
  // additive bias (it is data-dependent, not triangular, so it cannot be
  // replaced by the kernel's causal loop bound).
  return ops::FusedAttention(candidates, encoder_out, encoder_out, mask,
                             /*causal=*/false,
                             1.0f / std::sqrt(static_cast<float>(d)));
}

Tensor TaadDecodeBatch(const Tensor& candidates, const Tensor& encoder_out,
                       const std::vector<int64_t>& first_real) {
  STISAN_CHECK_EQ(candidates.dim(), 3);
  STISAN_CHECK_EQ(encoder_out.dim(), 3);
  const int64_t bsz = candidates.size(0);
  const int64_t m = candidates.size(1);
  const int64_t d = candidates.size(2);
  const int64_t n = encoder_out.size(1);
  STISAN_CHECK_EQ(bsz, encoder_out.size(0));
  STISAN_CHECK_EQ(d, encoder_out.size(2));
  STISAN_CHECK_EQ(bsz, static_cast<int64_t>(first_real.size()));

  // Same visibility rule as TaadDecode at step n-1: keys first_real..n-1.
  Tensor mask = Tensor::Zeros({bsz, m, n});
  float* md = mask.data();
  for (int64_t b = 0; b < bsz; ++b) {
    const int64_t step = n - 1;
    const int64_t fr = first_real[static_cast<size_t>(b)];
    const int64_t lo = std::min(step, fr);
    for (int64_t r = 0; r < m; ++r) {
      for (int64_t j = 0; j < n; ++j) {
        const bool visible = j <= step && j >= lo && (j >= fr || j == step);
        if (!visible) md[(b * m + r) * n + j] = -1e9f;
      }
    }
  }

  return ops::FusedAttention(candidates, encoder_out, encoder_out, mask,
                             /*causal=*/false,
                             1.0f / std::sqrt(static_cast<float>(d)));
}

Tensor MatchScores(const Tensor& preferences, const Tensor& candidates) {
  STISAN_CHECK_EQ(preferences.dim(), candidates.dim());
  STISAN_CHECK_EQ(preferences.shape().back(), candidates.shape().back());
  return ops::SumDim(preferences * candidates, /*dim=*/-1);
}

}  // namespace stisan::core
