// Batched scoring interface for the evaluation pipeline.
//
// A BatchScorer scores a whole batch of evaluation instances against their
// candidate lists in one call, letting models run padded forward passes
// (one op graph per layer instead of one per instance). STiSAN splits the
// batch into one sub-batch per kernel-pool thread and runs those forwards
// side by side. The evaluator streams fixed-size batches through it; see
// eval::Evaluate.
//
// The interface is header-only so implementers (src/models, src/core) can
// inherit it without adding a library dependency on stisan_eval.

#pragma once

#include <vector>

#include "data/types.h"

namespace stisan::eval {

/// Scores batches of instances. Implementations must be deterministic: the
/// scores for an instance may not depend on the other instances in its
/// batch, so any batch size — or any split of a batch into sub-batches —
/// yields the same per-instance scores.
class BatchScorer {
 public:
  virtual ~BatchScorer() = default;

  /// Scores candidates[b] for instances[b]. Returns one score vector per
  /// instance, each the same length as its candidate list (higher = more
  /// likely next POI). The padded forward is taken when all instances in
  /// the batch share a sequence length (the evaluator always batches that
  /// way); a mixed-length batch degrades gracefully to per-instance
  /// scoring. Candidate lists may differ in length either way.
  virtual std::vector<std::vector<float>> ScoreBatch(
      const std::vector<const data::EvalInstance*>& instances,
      const std::vector<std::vector<int64_t>>& candidates) = 0;
};

}  // namespace stisan::eval
