#include "core/relation.h"

#include <algorithm>
#include <cmath>

#include "data/types.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace stisan::core {

namespace {
constexpr double kSecondsPerDay = 86400.0;
}  // namespace

void RelationRows::Append(double timestamp, const geo::GeoPoint& coord,
                          const RelationOptions& options) {
  timestamps_.push_back(timestamp);
  coords_.push_back(coord);
  for (size_t j = 0; j < timestamps_.size(); ++j) {
    const double dt = std::min(
        options.kt_days,
        std::fabs(timestamp - timestamps_[j]) / kSecondsPerDay);
    const double dd =
        std::min(options.kd_km, geo::HaversineKm(coord, coords_[j]));
    const double r_hat = dt + dd;
    rhat_.push_back(static_cast<float>(r_hat));
    rhat_max_ = std::max(rhat_max_, r_hat);
  }
}

Tensor RelationRows::Matrix(int64_t n) const {
  const int64_t rows = size();
  STISAN_CHECK_LE(rows, n);
  const int64_t first = n - rows;
  Tensor r = Tensor::Zeros({n, n});
  // Relations are inverse to intervals: r = r_hat_max - r_hat.
  const float cap = static_cast<float>(rhat_max_);
  const float* rhat = rhat_.data();
  float* rd = r.data();
  for (int64_t i = 0; i < rows; ++i) {
    float* row = rd + (first + i) * n + first;
    for (int64_t j = 0; j <= i; ++j) row[j] = cap - *rhat++;
  }
  return r;
}

Tensor BuildRelationMatrix(const std::vector<int64_t>& pois,
                           const std::vector<double>& timestamps,
                           const std::vector<geo::GeoPoint>& coords,
                           int64_t first_real,
                           const RelationOptions& options) {
  const int64_t n = static_cast<int64_t>(pois.size());
  STISAN_CHECK_EQ(n, static_cast<int64_t>(timestamps.size()));
  STISAN_CHECK_EQ(n, static_cast<int64_t>(coords.size()));
  STISAN_CHECK_GE(options.kt_days, 0.0);
  STISAN_CHECK_GE(options.kd_km, 0.0);
  RelationRows rows;
  for (int64_t i = first_real; i < n; ++i) {
    rows.Append(timestamps[size_t(i)], coords[size_t(i)], options);
  }
  return rows.Matrix(n);
}

Tensor SoftmaxScaleRelation(const Tensor& relation, int64_t first_real) {
  STISAN_CHECK_EQ(relation.dim(), 2);
  const int64_t n = relation.size(0);
  STISAN_CHECK_EQ(relation.size(1), n);
  Tensor out = Tensor::Zeros({n, n});
  const float* in = relation.data();
  float* od = out.data();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t lo = i < first_real ? i : first_real;  // pad rows: self only
    const int64_t hi = i;  // inclusive
    // Numerically stable softmax over columns [lo, hi].
    float mx = in[i * n + lo];
    for (int64_t j = lo; j <= hi; ++j) mx = std::max(mx, in[i * n + j]);
    float sum = 0.0f;
    for (int64_t j = lo; j <= hi; ++j) sum += std::exp(in[i * n + j] - mx);
    for (int64_t j = lo; j <= hi; ++j) {
      od[i * n + j] = std::exp(in[i * n + j] - mx) / sum;
    }
  }
  return out;
}

Tensor BuildPaddedCausalMask(int64_t n, int64_t first_real) {
  STISAN_CHECK_GE(first_real, 0);
  STISAN_CHECK_LE(first_real, n);
  static obs::Counter& built = obs::GetCounter("mask/causal_built");
  built.Inc();
  Tensor mask = Tensor::Zeros({n, n});
  float* m = mask.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const bool causal = j <= i;
      const bool real_key = j >= first_real;
      const bool self = j == i;
      if (!(causal && (real_key || self))) m[i * n + j] = -1e9f;
    }
  }
  return mask;
}

Tensor ScaledRelation(const std::vector<int64_t>& pois,
                      const std::vector<double>& timestamps,
                      const std::vector<geo::GeoPoint>& coords,
                      int64_t first_real, const RelationOptions& options) {
  return SoftmaxScaleRelation(
      BuildRelationMatrix(pois, timestamps, coords, first_real, options),
      first_real);
}

}  // namespace stisan::core
