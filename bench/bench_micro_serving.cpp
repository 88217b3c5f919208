// Microbenchmarks for the serving runtime: CPU per request for the
// incremental engine (append one check-in, score candidates) against the
// cold full-recompute path at the same history lengths, plus the
// service-level pump loop with the session store and obs instrumentation
// in the hot path.
//
// Emit machine-readable results with:
//   ./bench_micro_serving --benchmark_format=json
//
// The checked-in BENCH_serving.json captures one JSON run at the paper's
// serving shape (history n=100, d=32, 2 blocks, 100 candidates). The
// acceptance ratio is BM_FullRecomputeScore / BM_IncrementalAppendScore
// cpu_time at Arg(100) — the incremental path does O(new-token) work per
// append while the full path re-encodes the whole prefix.
//
// Each benchmark iteration serves kReps requests at growing history
// lengths n..n+kReps-1 (the steady-state serving pattern); per-request
// wall latencies are accumulated across iterations and reported as
// p50_us / p99_us counters.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/incremental.h"
#include "core/stisan.h"
#include "data/synthetic.h"
#include "serve/service.h"
#include "util/rng.h"

namespace stisan {
namespace {

constexpr int64_t kReps = 16;        // requests per benchmark iteration
constexpr int64_t kCandidates = 100;  // top-N rerank shape

core::StisanOptions ServingModelOptions() {
  core::StisanOptions opts;         // defaults: d = 24 + 8 = 32, 2 blocks
  opts.use_tape = false;            // K/V-cache tier
  opts.knn_negatives = false;       // frozen model, no sampler build
  return opts;
}

struct ServingFixture {
  data::Dataset dataset;
  core::StisanModel model;
  std::vector<int64_t> pois;
  std::vector<double> timestamps;
  std::vector<int64_t> candidates;

  explicit ServingFixture(int64_t max_len)
      : dataset(data::GenerateSynthetic(data::GowallaLikeConfig(0.05))),
        model(dataset, ServingModelOptions()) {
    // Synthetic users rarely reach n=100 visits; fabricate one long
    // history with realistic inter-check-in gaps instead.
    Rng rng(23);
    double t = 1.0e9;
    for (int64_t i = 0; i < max_len; ++i) {
      pois.push_back(1 + static_cast<int64_t>(rng.UniformInt(
                             static_cast<uint64_t>(dataset.num_pois()))));
      t += 600.0 + static_cast<double>(rng.UniformInt(86400u));
      timestamps.push_back(t);
    }
    while (static_cast<int64_t>(candidates.size()) < kCandidates) {
      const int64_t poi = 1 + static_cast<int64_t>(rng.UniformInt(
                                  static_cast<uint64_t>(dataset.num_pois())));
      if (std::find(candidates.begin(), candidates.end(), poi) ==
          candidates.end()) {
        candidates.push_back(poi);
      }
    }
  }
};

void ReportLatencies(benchmark::State& state, std::vector<double>& lat_us) {
  if (lat_us.empty()) return;
  std::sort(lat_us.begin(), lat_us.end());
  state.counters["p50_us"] = lat_us[lat_us.size() / 2];
  state.counters["p99_us"] = lat_us[std::min(
      lat_us.size() - 1, static_cast<size_t>(0.99 * lat_us.size()))];
  state.SetItemsProcessed(state.iterations() * kReps);
}

// One request = append one check-in at history length n+r, then score
// kCandidates. The engine state is re-synced to length n outside the
// timed region, so the measurement is steady-state incremental serving.
void BM_IncrementalAppendScore(benchmark::State& state) {
  const int64_t n = state.range(0);
  static ServingFixture* fx = new ServingFixture(512);
  core::IncrementalScorer engine(&fx->model, n + kReps);
  auto session = engine.NewState();
  std::vector<double> lat_us;
  for (auto _ : state) {
    state.PauseTiming();
    session->Reset();
    std::vector<int64_t> pois(fx->pois.begin(), fx->pois.begin() + n);
    std::vector<double> ts(fx->timestamps.begin(),
                           fx->timestamps.begin() + n);
    engine.Sync(*session, pois, ts);  // warm cache to length n
    state.ResumeTiming();
    for (int64_t r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      pois.push_back(fx->pois[n + r]);
      ts.push_back(fx->timestamps[n + r]);
      auto scores = engine.Score(*session, pois, ts, fx->candidates);
      benchmark::DoNotOptimize(scores.data());
      lat_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
  }
  ReportLatencies(state, lat_us);
}
BENCHMARK(BM_IncrementalAppendScore)->Arg(20)->Arg(50)->Arg(100);

// The same requests served by a cold full forward over the whole prefix —
// what serving costs without the session cache.
void BM_FullRecomputeScore(benchmark::State& state) {
  const int64_t n = state.range(0);
  static ServingFixture* fx = new ServingFixture(512);
  std::vector<double> lat_us;
  for (auto _ : state) {
    for (int64_t r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      data::EvalInstance inst;
      inst.first_real = 0;
      inst.poi.assign(fx->pois.begin(), fx->pois.begin() + n + r + 1);
      inst.t.assign(fx->timestamps.begin(),
                    fx->timestamps.begin() + n + r + 1);
      auto scores = fx->model.Score(inst, fx->candidates);
      benchmark::DoNotOptimize(scores.data());
      lat_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
  }
  ReportLatencies(state, lat_us);
}
BENCHMARK(BM_FullRecomputeScore)->Arg(20)->Arg(50)->Arg(100);

// End-to-end service layer (session store, op queue, obs counters) in
// pump mode: the per-request overhead on top of the raw engine.
void BM_ServicePumpAppendScore(benchmark::State& state) {
  const int64_t n = state.range(0);
  static ServingFixture* fx = new ServingFixture(512);
  serve::ServeOptions so;
  so.max_seq_len = n + kReps;
  so.start_worker = false;
  std::vector<double> lat_us;
  int64_t user = 0;
  for (auto _ : state) {
    state.PauseTiming();
    serve::RecommendService service(&fx->model, so);
    ++user;  // fresh session per iteration
    for (int64_t i = 0; i < n; ++i) {
      service.Append(user, fx->pois[i], fx->timestamps[i]);
    }
    (void)service.Score(user, fx->candidates);  // warm cache to length n
    state.ResumeTiming();
    for (int64_t r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      service.Append(user, fx->pois[n + r], fx->timestamps[n + r]);
      auto result = service.Score(user, fx->candidates);
      benchmark::DoNotOptimize(result.scores.data());
      lat_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
  }
  ReportLatencies(state, lat_us);
}
BENCHMARK(BM_ServicePumpAppendScore)->Arg(100);

// The same service path with the full overload-safety machinery armed —
// request validation (num_pois bound), bounded-queue admission
// accounting, per-request deadline bookkeeping and the stale-serve tier
// enabled (but never triggered: deadlines are comfortable and the queue
// never fills). Compared against BM_ServicePumpAppendScore this isolates
// what DESIGN.md §15 costs on the happy path.
void BM_ServicePumpOverloadGuards(benchmark::State& state) {
  const int64_t n = state.range(0);
  static ServingFixture* fx = new ServingFixture(512);
  serve::ServeOptions so;
  so.max_seq_len = n + kReps;
  so.start_worker = false;
  so.max_queue = 1024;  // bounded but never full in pump mode
  so.queue_policy = serve::QueuePolicy::kShedOldest;
  so.default_deadline_us = 60'000'000;  // comfortable: never expires
  so.allow_stale = true;
  so.num_pois = fx->dataset.num_pois();
  std::vector<double> lat_us;
  int64_t user = 0;
  for (auto _ : state) {
    state.PauseTiming();
    serve::RecommendService service(&fx->model, so);
    ++user;  // fresh session per iteration
    for (int64_t i = 0; i < n; ++i) {
      service.Append(user, fx->pois[i], fx->timestamps[i]);
    }
    (void)service.Score(user, fx->candidates);  // warm cache to length n
    state.ResumeTiming();
    for (int64_t r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      service.Append(user, fx->pois[n + r], fx->timestamps[n + r]);
      auto result = service.Score(user, fx->candidates);
      benchmark::DoNotOptimize(result.scores.data());
      lat_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
  }
  ReportLatencies(state, lat_us);
}
BENCHMARK(BM_ServicePumpOverloadGuards)->Arg(100);

}  // namespace
}  // namespace stisan

BENCHMARK_MAIN();
