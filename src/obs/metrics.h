// Process-wide observability layer: a metrics registry of named counters,
// gauges and fixed-bucket histograms, scoped wall-time trace spans, and a
// snapshot/export path that serialises everything to a stable sorted JSON
// document or a one-line STISAN_LOG(INFO) summary.
//
// Design constraints (DESIGN.md §12):
//  - Hot paths are lock-free: Counter::Inc / Gauge::Set / Histogram::Observe
//    touch only relaxed atomics. The registry mutex is taken on name lookup
//    and snapshot only; instrument sites cache the reference once:
//
//        static obs::Counter& built = obs::GetCounter("mask/causal_built");
//        built.Inc();
//
//  - Instrumentation is strictly passive. Nothing read from the registry
//    feeds back into computation and metric values never influence
//    control flow — golden metrics and checkpoint
//    bytes are bit-identical with observability on, at any thread count.
//  - Callback gauges let subsystems with their own internal counters
//    (ThreadPool task counts) be polled lazily at snapshot time instead of
//    double-counting on the hot path.
//
// Trace spans: OBS_SCOPED_TIMER("train/epoch") records the enclosing
// scope's wall time into the histogram "time/train/epoch" (seconds,
// log-spaced latency buckets) when the scope exits.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/stopwatch.h"

namespace stisan {
class Env;
}

namespace stisan::obs {

/// Monotonic event counter. Inc is a relaxed atomic add; concurrent
/// increments from any number of threads sum exactly.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (loss, lr, pool bytes...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-boundary histogram. `bounds` are inclusive upper bounds of the
/// first k buckets, strictly increasing; an implicit +inf bucket catches the
/// rest. Observe is lock-free (relaxed bucket add + CAS sum add).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count of observations in bucket i (i == bounds().size() is +inf).
  uint64_t BucketCount(size_t i) const;
  uint64_t TotalCount() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  const std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Log-spaced latency bounds in seconds (10us .. 60s), the default for
/// timer histograms.
std::vector<double> LatencyBounds();

/// Power-of-two count bounds (1, 2, 4, ... 4096) for small-integer
/// distributions: queue depths, batch sizes, resident-session counts.
std::vector<double> CountBounds();

// ---- Registry --------------------------------------------------------------
// Named lookup creates on first use and returns a reference that stays valid
// for the process lifetime (metrics are never unregistered). Re-requesting a
// histogram ignores the bounds argument once created.

Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
Histogram& GetHistogram(const std::string& name,
                        const std::vector<double>& bounds = LatencyBounds());

/// Registers a gauge whose value is computed by `fn` at snapshot time.
/// Re-registering a name replaces the callback. Used by subsystems that
/// already keep internal counters (the thread pool).
void RegisterCallbackGauge(const std::string& name,
                           std::function<double()> fn);

// ---- Trace spans -----------------------------------------------------------

/// Records the wall time between construction and destruction into a
/// histogram (seconds). Purely additive: never read back on any compute
/// path.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist) : hist_(hist) {}
  ~ScopedTimer() { hist_.Observe(watch_.ElapsedSeconds()); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& hist_;
  Stopwatch watch_;
};

/// The histogram a span named `name` records into ("time/" + name).
Histogram& TimerHistogram(const std::string& name);

#define OBS_INTERNAL_CONCAT2(a, b) a##b
#define OBS_INTERNAL_CONCAT(a, b) OBS_INTERNAL_CONCAT2(a, b)

/// Times the enclosing scope into the histogram "time/<name>".
#define OBS_SCOPED_TIMER(name)                                        \
  static ::stisan::obs::Histogram& OBS_INTERNAL_CONCAT(               \
      obs_span_hist_, __LINE__) = ::stisan::obs::TimerHistogram(name); \
  ::stisan::obs::ScopedTimer OBS_INTERNAL_CONCAT(obs_span_, __LINE__)( \
      OBS_INTERNAL_CONCAT(obs_span_hist_, __LINE__))

// ---- Snapshot / export -----------------------------------------------------

/// One consistent read of the registry, taken under the registry lock.
/// Entries are sorted by name; callback gauges are evaluated at capture.
struct Snapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  struct HistogramEntry {
    std::string name;
    std::vector<double> bounds;
    std::vector<uint64_t> bucket_counts;  // bounds.size() + 1 (last = +inf)
    uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<HistogramEntry> histograms;
};

Snapshot TakeSnapshot();

/// Serialises a snapshot to a stable JSON document: top-level objects
/// "counters", "gauges" and "histograms", keys sorted, doubles at %.17g
/// (lossless round-trip).
std::string ToJson(const Snapshot& snapshot);

/// TakeSnapshot + ToJson + crash-consistent write through the io_env
/// temp+rename path. Never throws; failures come back as a Status.
Status WriteJsonAtomic(Env* env, const std::string& path);

/// One human-readable line summarising the registry (counter totals plus
/// per-span mean latencies), for STISAN_LOG(INFO).
std::string SummaryLine(const Snapshot& snapshot);

/// Zeroes every counter, gauge and histogram. Registered names and callback
/// gauges survive (callbacks poll external state the registry does not own).
/// Tests use this to isolate assertions; production code never calls it.
void ResetAllForTesting();

}  // namespace stisan::obs
