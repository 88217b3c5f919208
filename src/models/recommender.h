// Common interface implemented by STiSAN and all twelve baselines, so that
// the evaluator and benches treat every model uniformly (paper eq. 1).

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/types.h"
#include "eval/batch_scorer.h"

namespace stisan::models {

/// Splits `ids` into the unique-id list (first-occurrence order) and a
/// per-slot index into it. Batched scorers embed each unique id once and
/// gather rows back into batch order — bit-identical to embedding the full
/// list (embeddings are row-wise) at a fraction of the work, since candidate
/// lists within a batch overlap heavily (nearby targets share negatives).
inline std::pair<std::vector<int64_t>, std::vector<int64_t>> DedupIds(
    const std::vector<int64_t>& ids) {
  std::pair<std::vector<int64_t>, std::vector<int64_t>> out;
  auto& [unique, local] = out;
  local.reserve(ids.size());
  std::unordered_map<int64_t, int64_t> index;
  index.reserve(ids.size());
  for (int64_t id : ids) {
    const auto [it, inserted] =
        index.emplace(id, static_cast<int64_t>(unique.size()));
    if (inserted) unique.push_back(id);
    local.push_back(it->second);
  }
  return out;
}

/// A trainable sequential POI recommender. Every recommender is also a
/// BatchScorer: the default ScoreBatch loops Score per instance, and models
/// with a batched forward pass (STiSAN, the attention baselines) override
/// it to score the whole batch in one padded forward.
class SequentialRecommender : public eval::BatchScorer {
 public:
  ~SequentialRecommender() override = default;

  /// Model name as it appears in the paper's tables.
  virtual std::string name() const = 0;

  /// Trains on the prepared windows from `dataset`.
  virtual void Fit(const data::Dataset& dataset,
                   const std::vector<data::TrainWindow>& train) = 0;

  /// Largest POI id the model scores (ids are 1..num_pois()): the catalog of
  /// the dataset it was built or fitted on.
  virtual int64_t num_pois() const = 0;

  /// Scores each candidate POI given the instance's history; higher means
  /// more likely to be visited next. Eval-mode calls may run concurrently
  /// (the serving runtime scores users side by side on the kernel pool):
  /// every in-tree model only reads its parameters here.
  virtual std::vector<float> Score(
      const data::EvalInstance& instance,
      const std::vector<int64_t>& candidates) = 0;

  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<const data::EvalInstance*>& instances,
      const std::vector<std::vector<int64_t>>& candidates) override {
    std::vector<std::vector<float>> out(instances.size());
    for (size_t i = 0; i < instances.size(); ++i) {
      out[i] = Score(*instances[i], candidates[i]);
    }
    return out;
  }
};

}  // namespace stisan::models
