// Spatial-temporal relation matrix R — paper §III-D, eq. 4.
//
// For every causal pair (i, j), j <= i:
//
//   dt_ij = min(k_t, |t_i - t_j|)          (clipped time interval, days)
//   dd_ij = min(k_d, Haversine(g_i, g_j))  (clipped geo interval, km)
//   r_hat_ij = dt_ij + dd_ij
//   r_ij = r_hat_max - r_hat_ij            (relations inverse to intervals)
//
// The matrix is lower-triangular (no information leakage). IAAB consumes a
// row-softmax-scaled version added point-wise to the attention logits.

#pragma once

#include <cstdint>
#include <vector>

#include "geo/geo.h"
#include "tensor/tensor.h"

namespace stisan::core {

struct RelationOptions {
  /// Maximum time interval k_t, in days (paper sweeps {0, 5, 10, 20}).
  double kt_days = 10.0;
  /// Maximum geography interval k_d, in kilometres ({0, 5, 10, 15}).
  double kd_km = 15.0;
};

/// Eq. 4 over a sequence that grows one visit at a time: the clipped
/// interval sums r_hat of every causal pair (kept as float) and their
/// running ceiling r_hat_max (kept in double). Appending a visit adds one
/// row and leaves earlier rows intact, so the serving engine keeps one per
/// user; BuildRelationMatrix builds one over a window's real suffix.
class RelationRows {
 public:
  /// Adds the next visit's row: r_hat against every visit so far,
  /// itself included.
  void Append(double timestamp, const geo::GeoPoint& coord,
              const RelationOptions& options);

  /// Number of visits (rows) appended.
  int64_t size() const { return static_cast<int64_t>(timestamps_.size()); }

  /// The relation matrix [n, n], n >= size(): r = r_hat_max - r_hat on the
  /// lower triangle of the last size() rows and columns; the leading
  /// n - size() (padding) rows and columns, and everything above the
  /// diagonal, stay 0.
  Tensor Matrix(int64_t n) const;

 private:
  std::vector<double> timestamps_;
  std::vector<geo::GeoPoint> coords_;
  // Packed lower triangle: row i holds r_hat_i0..r_hat_ii from i(i+1)/2.
  std::vector<float> rhat_;
  double rhat_max_ = 0.0;
};

/// Builds the raw lower-triangular relation matrix [n, n].
///
/// Pairs involving a padding position (index < first_real) get relation 0
/// (least related); the attention padding mask hides them anyway. Entries
/// strictly above the diagonal are 0 and must be masked by the caller.
Tensor BuildRelationMatrix(const std::vector<int64_t>& pois,
                           const std::vector<double>& timestamps,
                           const std::vector<geo::GeoPoint>& coords,
                           int64_t first_real,
                           const RelationOptions& options);

/// Row-softmax over the causal (lower-triangle, non-padding) entries: the
/// scaling the paper applies before the point-wise addition (Fig. 3).
/// Masked entries come out as exactly 0. Rows entirely inside the padding
/// prefix degenerate to attending their own position.
Tensor SoftmaxScaleRelation(const Tensor& relation, int64_t first_real);

/// Builds the additive attention mask for a head-padded causal sequence:
/// entry (i, j) is 0 when j <= i and j >= first_real (or j == i, so padding
/// rows still have one live key), else -1e9.
Tensor BuildPaddedCausalMask(int64_t n, int64_t first_real);

/// SoftmaxScaleRelation(BuildRelationMatrix(...)): the scaled [n, n]
/// relation bias IAAB adds to a window's attention logits. Built afresh on
/// every forward; it is parameter-free and O(n²).
Tensor ScaledRelation(const std::vector<int64_t>& pois,
                      const std::vector<double>& timestamps,
                      const std::vector<geo::GeoPoint>& coords,
                      int64_t first_real, const RelationOptions& options);

}  // namespace stisan::core
