// Microbenchmark of the two-stage full-catalog ranker (DESIGN.md §17):
// exact FullRankingEvaluate (O(P) scores per instance) head-to-head with
// PrunedRankingEvaluate (geo-pruned pool + re-rank) on a metro-scale
// synthetic catalog (MetroScaleConfig(1.0): ~1e5 POIs).
//
// Scorers:
//  - GeoPriorScorer: log-popularity plus distance decay from the user's
//    last check-in — cheap enough to afford the exact O(P) leg, and
//    geo-aligned the way a trained STiSAN-style model is, so the
//    stage-one recall it measures is representative.
//  - A small untrained core::StisanModel for the neural wall-clock of the
//    pruned path (the exact neural leg at P = 1e5 is minutes per
//    instance; its accuracy tradeoff is carried by TargetInPoolRate).
//
// Counters:
//  - recall_at_10: mean |top10(exact) cap top10(pruned)| / 10 against the
//    exact leg's tracked top-k under the same scorer (GeoPrior legs).
//  - target_in_pool: fraction of instances whose target survived stage
//    one (the pruning recall proxy; scorer-independent).
//  - pool_size: mean stage-one pool size.
//  - instances_per_s via SetItemsProcessed.
//
// The pruned legs run on the kernel pool (stage one's GenerateBatch, and
// the STiSAN leg's ScoreBatch sub-batches), so they time and rate by wall
// clock (UseRealTime); the other legs run on the calling thread.
//
// The checked-in BENCH_ranking.json holds the aggregates (median, mean,
// stddev, cv) of 5 repetitions at the default kernel pool, from the repo
// root of a Release build (~3.5 min, ~10 s of it fixture set-up):
//   ./build/bench/bench_micro_ranking --benchmark_repetitions=5
//       --benchmark_report_aggregates_only=true --benchmark_format=json
//       > BENCH_ranking.json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/stisan.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "eval/full_ranking.h"
#include "eval/pruned_ranking.h"
#include "geo/candidate_gen.h"

namespace stisan::bench {
namespace {

constexpr int64_t kInstances = 32;
constexpr int64_t kTopK = 10;

/// log-popularity + distance decay from the instance's last check-in.
/// Deterministic, O(1) per candidate, and spatially concentrated like the
/// real model's preferences, so stage-one recall numbers transfer.
class GeoPriorScorer : public eval::BatchScorer {
 public:
  explicit GeoPriorScorer(const data::Dataset& dataset)
      : dataset_(&dataset), log_pop_(dataset.poi_coords.size(), 0.0f) {
    std::vector<int64_t> counts(dataset.poi_coords.size(), 0);
    for (const auto& seq : dataset.user_seqs) {
      for (const auto& visit : seq) counts[static_cast<size_t>(visit.poi)]++;
    }
    for (size_t i = 0; i < counts.size(); ++i) {
      log_pop_[i] = std::log1p(static_cast<float>(counts[i]));
    }
  }

  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<const data::EvalInstance*>& batch,
      const std::vector<std::vector<int64_t>>& candidates) override {
    std::vector<std::vector<float>> out(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const geo::GeoPoint last = dataset_->poi_location(batch[i]->poi.back());
      out[i].resize(candidates[i].size());
      for (size_t j = 0; j < candidates[i].size(); ++j) {
        const int64_t poi = candidates[i][j];
        const double d = geo::HaversineKm(last, dataset_->poi_location(poi));
        // Decay length matches MetroScaleConfig's distance_decay_km: the
        // prior a well-trained model on this data would converge to.
        out[i][j] =
            log_pop_[static_cast<size_t>(poi)] - static_cast<float>(d / 0.3);
      }
    }
    return out;
  }

 private:
  const data::Dataset* dataset_;
  std::vector<float> log_pop_;
};

struct RankingFixture {
  data::Dataset dataset;
  data::Split split;
  std::unique_ptr<GeoPriorScorer> prior;
  std::unique_ptr<geo::SpatialGridIndex> index;
  std::unique_ptr<core::StisanModel> model;
  // Exact leg's results under the prior scorer (computed once).
  std::vector<std::vector<int64_t>> exact_top_k;
};

RankingFixture& Fixture() {
  static RankingFixture* fx = [] {
    auto* f = new RankingFixture();
    f->dataset = data::GenerateSynthetic(data::MetroScaleConfig(1.0));
    f->split = data::TrainTestSplit(f->dataset, {.max_seq_len = 16});
    if (f->split.test.size() > kInstances) f->split.test.resize(kInstances);
    f->prior = std::make_unique<GeoPriorScorer>(f->dataset);
    f->index = std::make_unique<geo::SpatialGridIndex>(
        eval::BuildCatalogIndex(f->dataset));
    core::StisanOptions options;
    options.poi_dim = 16;
    options.geo.dim = 16;
    options.geo.fourier_dim = 8;
    options.num_blocks = 1;
    f->model = std::make_unique<core::StisanModel>(f->dataset, options);
    // One exact pass up front so the pruned legs can report recall@10
    // without timing the reference inside their own loop.
    eval::FullRankingOptions exact;
    exact.track_top_k = kTopK;
    exact.top_k_out = &f->exact_top_k;
    eval::FullRankingEvaluate(*f->prior, f->split.test, f->dataset, exact);
    return f;
  }();
  return *fx;
}

double RecallAt10(const std::vector<std::vector<int64_t>>& exact,
                  const std::vector<std::vector<int64_t>>& pruned) {
  double total = 0.0;
  for (size_t i = 0; i < exact.size(); ++i) {
    const std::unordered_set<int64_t> ref(exact[i].begin(), exact[i].end());
    int64_t hit = 0;
    for (int64_t poi : pruned[i]) hit += ref.contains(poi) ? 1 : 0;
    total += static_cast<double>(hit) /
             static_cast<double>(std::max<size_t>(exact[i].size(), 1));
  }
  return exact.empty() ? 0.0 : total / static_cast<double>(exact.size());
}

void BM_ExactRanking_GeoPrior(benchmark::State& state) {
  auto& fx = Fixture();
  eval::FullRankingOptions options;
  options.track_top_k = kTopK;
  std::vector<std::vector<int64_t>> top_k;
  options.top_k_out = &top_k;
  for (auto _ : state) {
    auto acc = eval::FullRankingEvaluate(*fx.prior, fx.split.test, fx.dataset,
                                         options);
    benchmark::DoNotOptimize(acc.ranks().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.split.test.size()));
  state.counters["catalog_pois"] =
      static_cast<double>(fx.dataset.num_pois());
  state.counters["recall_at_10"] = 1.0;  // the reference ranks itself
}
BENCHMARK(BM_ExactRanking_GeoPrior)->Unit(benchmark::kMillisecond);

void BM_PrunedRanking_GeoPrior(benchmark::State& state) {
  auto& fx = Fixture();
  geo::CandidatePoolOptions pool_options;
  pool_options.pool_size = state.range(0);
  geo::CandidateGenerator gen(*fx.index, pool_options);
  eval::PrunedRankingOptions options;
  options.track_top_k = kTopK;
  std::vector<std::vector<int64_t>> top_k;
  options.top_k_out = &top_k;
  double recall = 0.0, in_pool = 0.0, pool_size = 0.0;
  for (auto _ : state) {
    auto result = eval::PrunedRankingEvaluate(*fx.prior, fx.split.test,
                                              fx.dataset, gen, options);
    benchmark::DoNotOptimize(result.metrics.ranks().data());
    recall = RecallAt10(fx.exact_top_k, top_k);
    in_pool = result.TargetInPoolRate();
    pool_size = result.mean_pool_size;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.split.test.size()));
  state.counters["catalog_pois"] =
      static_cast<double>(fx.dataset.num_pois());
  state.counters["recall_at_10"] = recall;
  state.counters["target_in_pool"] = in_pool;
  state.counters["pool_size"] = pool_size;
}
BENCHMARK(BM_PrunedRanking_GeoPrior)
    ->Arg(100)
    ->Arg(500)
    ->Arg(2000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Neural stage two over the pruned pool: the honest serving-shaped number.
// No exact neural leg — at P ~ 1e5 it is ~200x this cost per instance;
// target_in_pool carries the accuracy proxy instead.
void BM_PrunedRanking_Stisan(benchmark::State& state) {
  auto& fx = Fixture();
  geo::CandidatePoolOptions pool_options;
  pool_options.pool_size = state.range(0);
  geo::CandidateGenerator gen(*fx.index, pool_options);
  eval::PrunedRankingOptions options;
  options.batch_size = 8;
  double in_pool = 0.0;
  for (auto _ : state) {
    auto result = eval::PrunedRankingEvaluate(*fx.model, fx.split.test,
                                              fx.dataset, gen, options);
    benchmark::DoNotOptimize(result.metrics.ranks().data());
    in_pool = result.TargetInPoolRate();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.split.test.size()));
  state.counters["catalog_pois"] =
      static_cast<double>(fx.dataset.num_pois());
  state.counters["target_in_pool"] = in_pool;
}
BENCHMARK(BM_PrunedRanking_Stisan)
    ->Arg(500)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Stage one alone: candidate generation throughput (queries/s) at metro
// scale, on the calling thread.
void BM_CandidateGeneration(benchmark::State& state) {
  auto& fx = Fixture();
  geo::CandidatePoolOptions pool_options;
  pool_options.pool_size = 500;
  geo::CandidateGenerator gen(*fx.index, pool_options);
  std::vector<geo::GeoPoint> queries;
  for (const auto& inst : fx.split.test) {
    queries.push_back(fx.dataset.poi_location(inst.poi.back()));
  }
  const geo::CandidateGenerator::BatchAcceptFn accept =
      [](int64_t, int64_t) { return true; };
  std::vector<std::vector<int64_t>> pools;
  for (auto _ : state) {
    gen.GenerateBatch(queries, accept, nullptr, &pools);
    benchmark::DoNotOptimize(pools.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_CandidateGeneration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stisan::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
#ifdef NDEBUG
  benchmark::AddCustomContext("stisan_build_type", "release");
#else
  benchmark::AddCustomContext("stisan_build_type", "debug");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
