#include "eval/evaluator.h"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace stisan::eval {
namespace {

std::vector<geo::GeoPoint> RealPoiCoords(const data::Dataset& dataset) {
  // Index id = poi - 1 (skips the padding POI 0).
  return {dataset.poi_coords.begin() + 1, dataset.poi_coords.end()};
}

/// Adapts a single-instance Scorer to the batched interface.
class ScorerAdapter : public BatchScorer {
 public:
  explicit ScorerAdapter(const Scorer& scorer) : scorer_(scorer) {}

  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<const data::EvalInstance*>& instances,
      const std::vector<std::vector<int64_t>>& candidates) override {
    std::vector<std::vector<float>> out(instances.size());
    for (size_t i = 0; i < instances.size(); ++i) {
      out[i] = scorer_(*instances[i], candidates[i]);
    }
    return out;
  }

 private:
  const Scorer& scorer_;
};

}  // namespace

CandidateGenerator::CandidateGenerator(const data::Dataset& dataset)
    : dataset_(dataset), index_(RealPoiCoords(dataset)) {}

std::vector<int64_t> CandidateGenerator::Candidates(
    const data::EvalInstance& instance, int64_t num_negatives) const {
  std::unordered_set<int64_t> excluded(instance.visited.begin(),
                                       instance.visited.end());
  excluded.insert(instance.target);
  const geo::GeoPoint& target_loc = dataset_.poi_location(instance.target);
  auto nearest = index_.KNearest(
      target_loc, num_negatives,
      [&excluded](int64_t id) { return !excluded.contains(id + 1); });
  std::vector<int64_t> out;
  out.reserve(nearest.size() + 1);
  out.push_back(instance.target);
  for (int64_t id : nearest) out.push_back(id + 1);
  return out;
}

MetricAccumulator Evaluate(BatchScorer& scorer,
                           const std::vector<data::EvalInstance>& test,
                           const CandidateGenerator& candidates,
                           const EvalOptions& options) {
  OBS_SCOPED_TIMER("eval/run");
  MetricAccumulator acc(options.cutoffs);
  const int64_t total = static_cast<int64_t>(test.size());
  const int64_t batch_size = std::max<int64_t>(1, options.batch_size);
  ThreadPool& pool = kernels::GlobalPool();
  static obs::Counter& instances = obs::GetCounter("eval/instances");
  static obs::Counter& batches = obs::GetCounter("eval/batches");

  for (int64_t begin = 0; begin < total; begin += batch_size) {
    const int64_t size = std::min(batch_size, total - begin);
    instances.Inc(static_cast<uint64_t>(size));
    batches.Inc();

    // Candidate generation is pure per instance, so each worker fills its
    // own slot and the scorer sees the same lists at any thread count.
    std::vector<std::vector<int64_t>> cand(static_cast<size_t>(size));
    {
      OBS_SCOPED_TIMER("eval/candidate_gen");
      ParallelFor(pool, size, [&](int64_t i) {
        cand[static_cast<size_t>(i)] =
            candidates.Candidates(test[static_cast<size_t>(begin + i)],
                                  options.num_negatives);
      });
    }

    std::vector<const data::EvalInstance*> batch(static_cast<size_t>(size));
    for (int64_t i = 0; i < size; ++i) {
      batch[static_cast<size_t>(i)] = &test[static_cast<size_t>(begin + i)];
    }
    std::vector<std::vector<float>> scores;
    {
      OBS_SCOPED_TIMER("eval/score_batch");
      scores = scorer.ScoreBatch(batch, cand);
    }
    STISAN_CHECK_EQ(static_cast<int64_t>(scores.size()), size);

    // Per-shard accumulation in instance order; Merge replays ranks, so the
    // final accumulator state is independent of the batch partitioning.
    MetricAccumulator shard(options.cutoffs);
    for (int64_t i = 0; i < size; ++i) {
      STISAN_CHECK_EQ(scores[static_cast<size_t>(i)].size(),
                      cand[static_cast<size_t>(i)].size());
      shard.Add(RankOfTarget(scores[static_cast<size_t>(i)],
                             /*target_index=*/0));
    }
    acc.Merge(shard);
  }
  return acc;
}

MetricAccumulator Evaluate(const Scorer& scorer,
                           const std::vector<data::EvalInstance>& test,
                           const CandidateGenerator& candidates,
                           const EvalOptions& options) {
  ScorerAdapter adapter(scorer);
  return Evaluate(adapter, test, candidates, options);
}

}  // namespace stisan::eval
