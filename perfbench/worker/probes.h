// Timed fits and eval passes of the workload's model, and the per-layer
// probes of the traced run: direct timed calls into each layer's public
// entry points at the workload's shapes.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/stisan.h"
#include "population.h"
#include "trace.h"

namespace perfbench {

/// One timed `StisanModel::Fit`.
struct FitResult {
  int64_t windows = 0;  // windows trained
  double fit_s = 0.0;
  std::vector<double> epoch_s;
  std::vector<double> epoch_steal;  // host steal share during each epoch
  double final_loss = 0.0;
  std::map<std::string, double> fit_obs;  // obs deltas over the fit
};

struct FitEvalResult {
  FitResult fit;
  // First eval pass, straight after the fit.
  double hr10 = 0.0;
  double ndcg10 = 0.0;
  int64_t instances = 0;
  // Further passes over the same test split (eval_seconds budget).
  int64_t passes = 0;
  /// Wall seconds and host steal share of every pass, the first included.
  std::vector<double> pass_s;
  std::vector<double> pass_steal;
  bool passes_reproduce = true;  // every pass gave the first pass's metrics
  /// Wall ms of each StisanModel::ScoreBatch call, over all passes.
  std::vector<double> batch_ms;
  std::map<std::string, double> eval_obs;  // obs deltas over every pass
};

/// Time and host CPU readings taken at the end of each training epoch.
struct EpochMark {
  double at_s = 0.0;
  CpuTimes cpu;
};

/// Trains `model` with its built-in schedule, whose on_epoch hook appends
/// to `epoch_marks`.
FitResult FitTimed(stisan::core::StisanModel& model, const Population& pop,
                   const std::vector<EpochMark>* epoch_marks);

/// FitTimed, then evaluates the model with the paper protocol (100 nearest
/// unvisited negatives, batch 32) at least `min_passes` times and until
/// `eval_seconds` have passed.
FitEvalResult FitAndEval(stisan::core::StisanModel& model,
                         const Population& pop,
                         const std::vector<EpochMark>* epoch_marks,
                         double eval_seconds, int64_t min_passes);

/// More eval passes over the current model, until `seconds` have passed
/// (at least one): the wall time and host steal share of each, and the
/// metrics of the last one (every pass is deterministic).
struct EvalPassResult {
  std::vector<double> pass_s;
  std::vector<double> pass_steal;
  double hr10 = 0.0;
  double ndcg10 = 0.0;
  bool passes_reproduce = true;  // every pass gave the first pass's metrics
};
EvalPassResult EvalPasses(stisan::core::StisanModel& model, const Population& pop,
                          double seconds);

/// Per-layer probes at the workload's shapes (traced runs only).
std::map<std::string, double> LayerProbes(stisan::core::StisanModel& model,
                                          const WorkloadSpec& spec,
                                          const Population& pop);

}  // namespace perfbench
