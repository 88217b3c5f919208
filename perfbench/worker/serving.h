// Open-loop serving trials, the cold-oracle correctness gate, and the
// traced direct re-issue of a trial's work through the layers' public
// entry points.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/stisan.h"
#include "geo/spatial_index.h"
#include "population.h"

namespace perfbench {

/// One read of the obs registry: counters, gauges, and "<hist>#sum" /
/// "<hist>#count" for every histogram.
struct ObsReading {
  std::map<std::string, double> values;
  double Get(const std::string& name) const;
};
ObsReading ReadObs();
std::map<std::string, double> Deltas(const ObsReading& before,
                                     const ObsReading& after);

struct TrialOptions {
  double rate = 100.0;        // offered requests per second
  int64_t max_requests = 0;   // taken from the start of the stream
  double oracle_share = 0.03; // seeded share checked against the cold oracle
  uint64_t seed = 0;
  bool trace = false;         // time the enqueue calls, keep every result
};

struct ServedResult {
  std::vector<float> scores;
  std::vector<int64_t> pois;
};

struct TrialResult {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t not_ok = 0;
  int64_t oracle_checked = 0;
  int64_t oracle_mismatches = 0;
  int64_t invariant_violations = 0;
  std::string first_failure;
  /// Per request: scheduled send -> resolution (ms), how late the
  /// producer started it (ms), and ScoreResult::latency_s (ms).
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> service_ms;
  /// Trace only: microseconds inside each Append/ScoreAsync/RankCatalogAsync.
  std::vector<double> enqueue_us;
  double wall_s = 0.0;
  double steal_share = 0.0;     // host CPU steal during the timed part
  bool pacer_realtime = false;  // the producer ran under SCHED_FIFO
  std::map<std::string, double> obs_delta;
  /// Trace only: every served result, for the re-issue comparison.
  std::vector<ServedResult> results;
};

/// Serves the first `max_requests` timed requests at a fixed rate against
/// a fresh, prewarmed service, then checks the results.
TrialResult RunTrial(stisan::core::StisanModel& model, const WorkloadSpec& spec,
                     const Population& pop,
                     const stisan::geo::SpatialGridIndex* catalog_index,
                     const TrialOptions& options);

struct ReissueResult {
  int64_t requests = 0;
  int64_t mismatches = 0;
  std::map<std::string, double> paths;  // serve/* counter names -> counts
  double wall_s = 0.0;
  double layer_s = 0.0;  // time inside the timed layer calls
  /// Per layer entry point: {total seconds, calls}.
  std::map<std::string, std::pair<double, int64_t>> calls;
};

/// Re-runs the trial's first `num_requests` requests (after the same
/// prewarm) directly through SessionStore, IncrementalScorer::Sync/Score,
/// StisanModel::ScoreBatch and CandidateGenerator::Generate, in stream
/// order, comparing every score with `served` (when non-empty).
ReissueResult Reissue(stisan::core::StisanModel& model, const WorkloadSpec& spec,
                      const Population& pop,
                      const stisan::geo::SpatialGridIndex* catalog_index,
                      const std::vector<ServedResult>& served,
                      int64_t num_requests);

}  // namespace perfbench
