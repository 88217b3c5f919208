// Evaluation harness implementing the paper's protocol (§IV-C): for each
// test instance, rank the target POI against its 100 nearest previously
// unvisited POIs and accumulate HR@k / NDCG@k.
//
// The pipeline is batched and parallel: candidate lists are generated
// concurrently on the kernel thread pool and instances are streamed through
// a BatchScorer in fixed-size batches, one call at a time (STiSAN's
// ScoreBatch runs each batch as one single-threaded sub-batch forward per
// pool thread). Metrics are accumulated in instance order, so the result
// is bit-identical to a sequential evaluation at any thread count and
// batch size.

#pragma once

#include <functional>
#include <vector>

#include "data/types.h"
#include "eval/batch_scorer.h"
#include "eval/metrics.h"
#include "geo/spatial_index.h"

namespace stisan::eval {

/// Builds candidate lists: target first, then the num_negatives nearest
/// previously-unvisited POIs around the target.
class CandidateGenerator {
 public:
  explicit CandidateGenerator(const data::Dataset& dataset);

  /// Returns [target, neg_1, ..., neg_m] with m <= num_negatives (fewer on
  /// tiny POI sets). Negatives exclude the target and every POI in
  /// instance.visited. Pure and thread-safe: safe to call concurrently.
  std::vector<int64_t> Candidates(const data::EvalInstance& instance,
                                  int64_t num_negatives) const;

  const geo::SpatialGridIndex& index() const { return index_; }

 private:
  const data::Dataset& dataset_;
  geo::SpatialGridIndex index_;  // over POIs 1..P at index id poi-1
};

struct EvalOptions {
  int64_t num_negatives = 100;
  std::vector<int64_t> cutoffs = {5, 10};
  /// Instances scored per BatchScorer call (>= 1). Does not affect results.
  int64_t batch_size = 32;
};

/// A scoring function: given a test instance and its candidate list,
/// returns one score per candidate (higher = more likely next POI).
using Scorer = std::function<std::vector<float>(
    const data::EvalInstance&, const std::vector<int64_t>&)>;

/// Runs the full protocol through the batched pipeline and returns the
/// accumulated metrics (in test order).
MetricAccumulator Evaluate(BatchScorer& scorer,
                           const std::vector<data::EvalInstance>& test,
                           const CandidateGenerator& candidates,
                           const EvalOptions& options = {});

/// Single-instance scorer convenience: wraps `scorer` in a per-instance
/// BatchScorer adapter and runs the same pipeline. Results are identical.
MetricAccumulator Evaluate(const Scorer& scorer,
                           const std::vector<data::EvalInstance>& test,
                           const CandidateGenerator& candidates,
                           const EvalOptions& options = {});

}  // namespace stisan::eval
