#include "core/tape.h"

#include <atomic>
#include <cmath>

#include "nn/layers.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace stisan::core {

namespace {

/// Clamps a possibly-negative time gap to zero. Real check-in logs contain
/// clock skew and duplicate-second records, so out-of-order timestamps are
/// data, not a programming error: count them, warn once, keep going.
double ClampGap(double dt, bool count) {
  if (dt >= 0.0) return dt;
  if (count) {
    static obs::Counter& clamped =
        obs::GetCounter("tape/negative_gaps_clamped");
    clamped.Inc();
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      STISAN_LOG(WARNING)
          << "non-monotone timestamps: negative time gap " << dt
          << "s clamped to 0 (counted in tape/negative_gaps_clamped; "
             "warning once)";
    }
  }
  return 0.0;
}

}  // namespace

std::vector<double> TimeAwarePositions(const std::vector<double>& timestamps,
                                       int64_t first_real) {
  const int64_t n = static_cast<int64_t>(timestamps.size());
  STISAN_CHECK_GE(n, 1);
  STISAN_CHECK_GE(first_real, 0);
  STISAN_CHECK_LT(first_real, n);

  // Mean interval over the real suffix (eq. 2's normaliser). Negative gaps
  // (clock skew, duplicate-second records) are clamped to zero; they are
  // counted once per gap in the position loop below.
  double mean_dt = 0.0;
  int64_t real_gaps = 0;
  for (int64_t k = first_real + 1; k < n; ++k) {
    const double dt =
        ClampGap(timestamps[size_t(k)] - timestamps[size_t(k - 1)],
                 /*count=*/false);
    mean_dt += dt;
    ++real_gaps;
  }
  if (real_gaps > 0) mean_dt /= double(real_gaps);

  std::vector<double> pos(static_cast<size_t>(n));
  pos[0] = 1.0;
  for (int64_t k = 1; k < n; ++k) {
    const double dt =
        ClampGap(timestamps[size_t(k)] - timestamps[size_t(k - 1)],
                 /*count=*/true);
    // Degenerate spans (all same timestamp) -> vanilla integer positions.
    const double stretched = mean_dt > 1e-9 ? dt / mean_dt : 0.0;
    pos[size_t(k)] = pos[size_t(k - 1)] + stretched + 1.0;
  }
  return pos;
}

Tensor ApplyTape(const Tensor& x, const std::vector<double>& timestamps,
                 int64_t first_real) {
  STISAN_CHECK_EQ(x.dim(), 2);
  STISAN_CHECK_EQ(x.size(0), static_cast<int64_t>(timestamps.size()));
  const auto pos = TimeAwarePositions(timestamps, first_real);
  return x + nn::SinusoidalEncoding(pos, x.size(1));
}

}  // namespace stisan::core
