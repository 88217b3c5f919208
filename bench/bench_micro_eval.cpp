// Microbenchmark of the evaluation pipeline.
//
// BM_EvaluateSequential / BM_EvaluateBatched: per-instance scoring cost of
// eval::Evaluate through the legacy per-instance Scorer path vs the batched
// BatchScorer path at batch sizes {1, 8, 32}, n = 16. One kernel thread
// throughout, so the numbers isolate the batching win (fused padded
// forwards, fewer kernel dispatches) from thread-level parallelism.
//
// BM_EvaluatePool: wall time of eval::Evaluate at the benchmark harness's
// evaluation shape (perfbench serve_rerank: the Gowalla-like preset at
// scale 1.0, n = 100, default StisanOptions so d = 32, batch 32, 100
// negatives) at one kernel thread and at the default pool (threads:0 =
// hardware concurrency), where each batch runs one sub-batch per pool
// thread.
//
// Emit machine-readable results with:
//   ./bench_micro_eval --benchmark_format=json
//
// Throughput appears as items_per_second (items = eval instances); per-
// instance time is cpu_time (or real_time for the pool rows) / instances
// ("instances" counter).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "core/stisan.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "tensor/kernels.h"

namespace stisan::bench {
namespace {

struct EvalFixture {
  data::Dataset dataset;
  data::Split split;
  std::unique_ptr<eval::CandidateGenerator> generator;
  std::unique_ptr<core::StisanModel> model;
};

EvalFixture* MakeFixture(const data::SyntheticConfig& config,
                         int64_t max_seq_len, size_t max_test,
                         const core::StisanOptions& options) {
  auto* f = new EvalFixture();
  f->dataset = data::GenerateSynthetic(config);
  f->split = data::TrainTestSplit(f->dataset, {.max_seq_len = max_seq_len});
  if (f->split.test.size() > max_test) f->split.test.resize(max_test);
  f->generator = std::make_unique<eval::CandidateGenerator>(f->dataset);
  f->model = std::make_unique<core::StisanModel>(f->dataset, options);
  return f;
}

EvalFixture& Fixture() {
  static EvalFixture* fx = [] {
    core::StisanOptions options;
    options.poi_dim = 16;
    options.geo.dim = 16;
    options.geo.fourier_dim = 8;
    options.num_blocks = 2;
    return MakeFixture(data::GowallaLikeConfig(0.12), 16, 64, options);
  }();
  return *fx;
}

// perfbench's serve_rerank evaluation: every test instance of the preset.
EvalFixture& HarnessShapeFixture() {
  static EvalFixture* fx = [] {
    core::StisanOptions options;
    options.knn_negatives = false;  // no Fit here; skip the KNN table
    return MakeFixture(data::GowallaLikeConfig(1.0), 100, SIZE_MAX, options);
  }();
  return *fx;
}

eval::EvalOptions Options(int64_t batch_size) {
  eval::EvalOptions options;
  options.num_negatives = 100;  // the paper protocol's candidate pool
  options.batch_size = batch_size;
  return options;
}

void Finish(benchmark::State& state, const EvalFixture& fx) {
  const auto instances = static_cast<int64_t>(fx.split.test.size());
  state.SetItemsProcessed(state.iterations() * instances);
  state.counters["instances"] = static_cast<double>(instances);
}

/// Baseline: the pre-batching pipeline shape — one Score call per instance
/// through the legacy Scorer overload.
void BM_EvaluateSequential(benchmark::State& state) {
  auto& fx = Fixture();
  kernels::SetNumThreads(1);
  const eval::Scorer scorer = [&fx](const data::EvalInstance& instance,
                                    const std::vector<int64_t>& candidates) {
    return fx.model->Score(instance, candidates);
  };
  const auto options = Options(1);
  for (auto _ : state) {
    auto acc = eval::Evaluate(scorer, fx.split.test, *fx.generator, options);
    benchmark::DoNotOptimize(acc.count());
  }
  Finish(state, fx);
}
BENCHMARK(BM_EvaluateSequential)->Unit(benchmark::kMillisecond);

/// The batched pipeline at batch size range(0). batch=1 measures pure
/// pipeline overhead; 8/32 measure the fused padded-batch forwards.
void BM_EvaluateBatched(benchmark::State& state) {
  auto& fx = Fixture();
  kernels::SetNumThreads(1);
  const auto options = Options(state.range(0));
  for (auto _ : state) {
    auto acc = eval::Evaluate(static_cast<eval::BatchScorer&>(*fx.model),
                              fx.split.test, *fx.generator, options);
    benchmark::DoNotOptimize(acc.count());
  }
  Finish(state, fx);
}
BENCHMARK(BM_EvaluateBatched)->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

/// The batched pipeline at the harness's evaluation shape, on range(0)
/// kernel threads (0 = the default pool). Wall time, since the work runs
/// on the pool's threads.
void BM_EvaluatePool(benchmark::State& state) {
  auto& fx = HarnessShapeFixture();
  kernels::SetNumThreads(state.range(0));
  const auto options = Options(32);
  for (auto _ : state) {
    auto acc = eval::Evaluate(static_cast<eval::BatchScorer&>(*fx.model),
                              fx.split.test, *fx.generator, options);
    benchmark::DoNotOptimize(acc.count());
  }
  Finish(state, fx);
}
BENCHMARK(BM_EvaluatePool)->ArgName("threads")->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace stisan::bench

BENCHMARK_MAIN();
