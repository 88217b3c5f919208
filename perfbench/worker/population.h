// Workload definitions and their seeded inputs.
//
// A workload is a synthetic population (check-in histories over a POI
// catalog) plus, for the serving workloads, a timed request stream built
// from it. Everything here is a pure function of (workload, seed); the
// program under test only ever sees the generated inputs.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/stisan.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "data/types.h"
#include "serve/service.h"

namespace perfbench {

enum class Workload { kServeRerank, kServeCity };

struct WorkloadSpec {
  Workload kind = Workload::kServeRerank;
  std::string name;
  stisan::data::SyntheticConfig synth;
  /// KNN importance negatives (the repo default). Off only where the
  /// eager per-POI neighbour table would dominate set-up: building it for
  /// 1e5 POIs takes ~45 s, and a serving model never samples negatives.
  bool knn_negatives = true;
  /// Schedule of every fit: the served model's and each timed train block.
  int64_t fit_epochs = 4;
  int64_t fit_windows_per_epoch = 40;
  // ---- Serving ----
  int64_t max_seq_len = 100;
  int64_t batch_window_us = 0;
  /// Resident-session cap as a share of the population's users.
  double resident_share = 1.0;
  int64_t appends_per_request = 1;
  /// Share of requests that are RankCatalog(top_k) instead of Score.
  double catalog_share = 0.0;
  int64_t catalog_top_k = 10;
  int64_t catalog_pool = 500;
  int64_t score_candidates = 100;
};

/// Throws std::invalid_argument for an unknown workload name.
WorkloadSpec SpecFor(const std::string& name);

struct Request {
  int64_t user = 0;
  std::vector<stisan::data::Visit> appends;
  bool catalog = false;
};

struct Population {
  stisan::data::Dataset dataset;
  stisan::data::Split split;
  /// Per user: the visits appended (plus one score) before timing starts.
  std::vector<int64_t> prewarm_len;
  /// Timed requests in global timestamp order.
  std::vector<Request> stream;
  /// The fixed candidate list of every Score request.
  std::vector<int64_t> candidates;
};

/// Generates the dataset, aligns user clocks, splits it and builds the
/// stream. Seconds spent in GenerateSynthetic go to *generate_s.
Population BuildPopulation(const WorkloadSpec& spec, uint64_t seed,
                           double* generate_s);

/// The paper model (geo encoder, TAPE, IAAB, TAAD) at the repo defaults,
/// with the workload's fit schedule.
std::unique_ptr<stisan::core::StisanModel> BuildModel(
    const WorkloadSpec& spec, const Population& pop,
    std::function<bool(const stisan::train::EpochStats&)> on_epoch = {});

stisan::serve::ServeOptions ServeOptionsFor(const WorkloadSpec& spec,
                                            const Population& pop);

/// Appends every user's prewarm prefix and scores each user once, then
/// waits until the service has processed it all.
void Prewarm(stisan::serve::RecommendService& service, const Population& pop);

/// Per-user history as of the end of request `upto` (inclusive), built from
/// the prewarm prefix and the stream. Used by the oracle and the re-issue.
class HistoryTracker {
 public:
  explicit HistoryTracker(const Population& pop);
  /// Applies request i's appends; requests must be applied in order.
  void Apply(const Request& request);
  const std::vector<int64_t>& pois(int64_t user) const {
    return pois_[static_cast<size_t>(user)];
  }
  const std::vector<double>& times(int64_t user) const {
    return times_[static_cast<size_t>(user)];
  }

 private:
  std::vector<std::vector<int64_t>> pois_;
  std::vector<std::vector<double>> times_;
};

/// The trailing `max_len` visits of a history as an unpadded instance.
stisan::data::EvalInstance TrailingWindow(const std::vector<int64_t>& pois,
                                          const std::vector<double>& times,
                                          int64_t max_len);

}  // namespace perfbench
