#include "core/relation.h"

#include <algorithm>
#include <cmath>

#include "data/types.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/lru_cache.h"

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

namespace {

// Full content key of a relation-matrix request. Equality compares every
// field; the hash (FNV-1a over the raw bytes) is only a bucket index.
struct RelationKey {
  std::vector<int64_t> pois;
  std::vector<double> timestamps;
  std::vector<geo::GeoPoint> coords;
  int64_t first_real = 0;
  double kt_days = 0.0;
  double kd_km = 0.0;

  bool operator==(const RelationKey& o) const {
    return first_real == o.first_real && kt_days == o.kt_days &&
           kd_km == o.kd_km && pois == o.pois && timestamps == o.timestamps &&
           coords == o.coords;
  }
};

struct RelationKeyHash {
  size_t operator()(const RelationKey& k) const {
    uint64_t h = Fnv1aBytes(k.pois.data(), k.pois.size() * sizeof(int64_t));
    h = Fnv1aBytes(k.timestamps.data(), k.timestamps.size() * sizeof(double),
                   h);
    h = Fnv1aBytes(k.coords.data(), k.coords.size() * sizeof(geo::GeoPoint),
                   h);
    h = Fnv1aBytes(&k.first_real, sizeof(k.first_real), h);
    h = Fnv1aBytes(&k.kt_days, sizeof(k.kt_days), h);
    h = Fnv1aBytes(&k.kd_km, sizeof(k.kd_km), h);
    return static_cast<size_t>(h);
  }
};

// ~256 distinct windows cover the training sets this repo trains on; the
// leaked singleton avoids static-destruction order races.
// Hit/miss counts are polled by obs snapshots through callback gauges, so
// the lookup path pays no extra increment.
LruCache<RelationKey, Tensor, RelationKeyHash>& RelationCache() {
  static auto* cache = [] {
    auto* c = new LruCache<RelationKey, Tensor, RelationKeyHash>(256);
    obs::RegisterCallbackGauge("relation/cache_hits",
                               [c] { return double(c->hits()); });
    obs::RegisterCallbackGauge("relation/cache_misses",
                               [c] { return double(c->misses()); });
    return c;
  }();
  return *cache;
}

}  // namespace

Tensor CachedScaledRelation(const std::vector<int64_t>& pois,
                            const std::vector<double>& timestamps,
                            const std::vector<geo::GeoPoint>& coords,
                            int64_t first_real,
                            const RelationOptions& options) {
  const auto build = [&] {
    return SoftmaxScaleRelation(
        BuildRelationMatrix(pois, timestamps, coords, first_real, options),
        first_real);
  };
  // Inference builds directly: its windows rarely repeat, and an insert
  // from a pool thread would park the entry in that thread's malloc arena.
  if (!internal::GradEnabled()) return build();
  RelationKey key{pois,       timestamps,      coords,
                  first_real, options.kt_days, options.kd_km};
  if (auto hit = RelationCache().Get(key)) return *hit;
  Tensor scaled = build();
  RelationCache().Put(std::move(key), scaled);
  return scaled;
}

RelationCacheStats GetRelationCacheStats() {
  return {RelationCache().hits(), RelationCache().misses()};
}

}  // namespace stisan::core
