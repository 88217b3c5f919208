// Wall-clock stopwatch used by the trainer and benches.

#pragma once

#include <chrono>

namespace stisan {

/// Measures elapsed wall time. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Returns elapsed seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace stisan
