// Microbenchmarks for the serving runtime: CPU per request for the
// incremental engine (append one check-in, score candidates) against the
// cold full-recompute path at the same history lengths, plus the
// service-level pump loop with the session store and obs instrumentation
// in the hot path.
//
// Emit machine-readable results with:
//   ./bench_micro_serving --benchmark_format=json
//       --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
//
// The model is the full STiSAN at the repo defaults (d = 24 + 8, 2 blocks,
// TAPE on) with 100 candidates, the shape the service serves. TAPE makes
// every append change every encoder row, so the incremental engine saves
// only the per-row embedding and the O(n²) Haversine of the relation
// matrix; it reruns the encoder per request, like the full path. The
// checked-in BENCH_serving.json holds the median / mean / stddev / cv rows
// of one 5-repetition run.
//
// Each benchmark iteration serves kReps requests at growing history
// lengths n..n+kReps-1 (the steady-state serving pattern) over a history
// no earlier iteration has seen, as a production request always carries a
// new history. Per-request wall latencies are accumulated across
// iterations and reported as p50_us / p99_us counters.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/incremental.h"
#include "core/stisan.h"
#include "data/synthetic.h"
#include "serve/service.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace stisan {
namespace {

constexpr int64_t kReps = 16;        // requests per benchmark iteration
constexpr int64_t kCandidates = 100;  // top-N rerank shape

core::StisanOptions ServingModelOptions() {
  core::StisanOptions opts;         // defaults: d = 24 + 8 = 32, 2 blocks
  opts.knn_negatives = false;       // frozen model, no sampler build
  return opts;
}

struct History {
  std::vector<int64_t> pois;
  std::vector<double> timestamps;
};

struct ServingFixture {
  data::Dataset dataset;
  core::StisanModel model;
  std::vector<int64_t> candidates;
  Rng rng{23};
  double clock = 1.0e9;

  ServingFixture()
      : dataset(data::GenerateSynthetic(data::GowallaLikeConfig(0.05))),
        model(dataset, ServingModelOptions()) {
    while (static_cast<int64_t>(candidates.size()) < kCandidates) {
      const int64_t poi = 1 + static_cast<int64_t>(rng.UniformInt(
                                  static_cast<uint64_t>(dataset.num_pois())));
      if (std::find(candidates.begin(), candidates.end(), poi) ==
          candidates.end()) {
        candidates.push_back(poi);
      }
    }
  }

  // A history of `len` visits with realistic inter-check-in gaps on a
  // clock that only moves forward, so no two calls share a timestamp and
  // no prefix of one is a prefix of another. (Synthetic users rarely reach
  // n = 100 visits, so the history is fabricated.)
  History NextHistory(int64_t len) {
    History h;
    for (int64_t i = 0; i < len; ++i) {
      h.pois.push_back(1 + static_cast<int64_t>(rng.UniformInt(
                               static_cast<uint64_t>(dataset.num_pois()))));
      clock += 600.0 + static_cast<double>(rng.UniformInt(86400u));
      h.timestamps.push_back(clock);
    }
    return h;
  }
};

ServingFixture& Fixture() {
  static ServingFixture* fx = new ServingFixture();
  return *fx;
}

void ReportLatencies(benchmark::State& state, std::vector<double>& lat_us) {
  if (lat_us.empty()) return;
  std::sort(lat_us.begin(), lat_us.end());
  state.counters["p50_us"] = lat_us[lat_us.size() / 2];
  state.counters["p99_us"] = lat_us[std::min(
      lat_us.size() - 1, static_cast<size_t>(0.99 * lat_us.size()))];
  state.SetItemsProcessed(state.iterations() * kReps);
}

// One request = append one check-in at history length n+r, then score
// kCandidates. The engine state is synced to length n outside the timed
// region, so the measurement is steady-state incremental serving.
void BM_IncrementalAppendScore(benchmark::State& state) {
  const int64_t n = state.range(0);
  ServingFixture& fx = Fixture();
  core::IncrementalScorer engine(&fx.model, n + kReps);
  std::vector<double> lat_us;
  for (auto _ : state) {
    state.PauseTiming();
    const History h = fx.NextHistory(n + kReps);
    auto session = engine.NewState();
    std::vector<int64_t> pois(h.pois.begin(), h.pois.begin() + n);
    std::vector<double> ts(h.timestamps.begin(), h.timestamps.begin() + n);
    engine.Sync(*session, pois, ts);  // warm cache to length n
    state.ResumeTiming();
    for (int64_t r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      pois.push_back(h.pois[n + r]);
      ts.push_back(h.timestamps[n + r]);
      auto scores = engine.Score(*session, pois, ts, fx.candidates);
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
  ServingFixture& fx = Fixture();
  std::vector<double> lat_us;
  for (auto _ : state) {
    state.PauseTiming();
    const History h = fx.NextHistory(n + kReps);
    state.ResumeTiming();
    for (int64_t r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      data::EvalInstance inst;
      inst.first_real = 0;
      inst.poi.assign(h.pois.begin(), h.pois.begin() + n + r + 1);
      inst.t.assign(h.timestamps.begin(), h.timestamps.begin() + n + r + 1);
      auto scores = fx.model.Score(inst, fx.candidates);
      benchmark::DoNotOptimize(scores.data());
      lat_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
  }
  ReportLatencies(state, lat_us);
}
BENCHMARK(BM_FullRecomputeScore)->Arg(20)->Arg(50)->Arg(100);

// End-to-end service layer in pump mode: a fresh service and session per
// iteration, warmed to length n untimed, then kReps timed append+score
// requests.
void RunServicePump(benchmark::State& state, const serve::ServeOptions& so) {
  const int64_t n = state.range(0);
  ServingFixture& fx = Fixture();
  std::vector<double> lat_us;
  const int64_t user = 1;
  for (auto _ : state) {
    state.PauseTiming();
    const History h = fx.NextHistory(n + kReps);
    serve::RecommendService service(&fx.model, so);
    for (int64_t i = 0; i < n; ++i) {
      service.Append(user, h.pois[i], h.timestamps[i]);
    }
    (void)service.Score(user, fx.candidates);  // warm cache to length n
    state.ResumeTiming();
    for (int64_t r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      service.Append(user, h.pois[n + r], h.timestamps[n + r]);
      auto result = service.Score(user, fx.candidates);
      benchmark::DoNotOptimize(result.scores.data());
      lat_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
  }
  ReportLatencies(state, lat_us);
}

// The session store, op queue and obs counters on top of the raw engine.
void BM_ServicePumpAppendScore(benchmark::State& state) {
  serve::ServeOptions so;
  so.max_seq_len = state.range(0) + kReps;
  so.start_worker = false;
  so.num_pois = Fixture().dataset.num_pois();
  RunServicePump(state, so);
}
BENCHMARK(BM_ServicePumpAppendScore)->Arg(100);

// The same service path with the rest of the overload-safety machinery
// armed — bounded-queue admission accounting and per-request deadline
// bookkeeping (never triggered: deadlines are comfortable and the queue
// never fills). Compared against BM_ServicePumpAppendScore this isolates
// what DESIGN.md §15 costs on the happy path.
void BM_ServicePumpOverloadGuards(benchmark::State& state) {
  serve::ServeOptions so;
  so.max_seq_len = state.range(0) + kReps;
  so.start_worker = false;
  so.max_queue = 1024;  // bounded but never full in pump mode
  so.queue_policy = serve::QueuePolicy::kShedOldest;
  so.default_deadline_us = 60'000'000;  // comfortable: never expires
  so.num_pois = Fixture().dataset.num_pois();
  RunServicePump(state, so);
}
BENCHMARK(BM_ServicePumpOverloadGuards)->Arg(100);

}  // namespace
}  // namespace stisan

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
#ifdef NDEBUG
  benchmark::AddCustomContext("stisan_build_type", "release");
#else
  benchmark::AddCustomContext("stisan_build_type", "debug");
#endif
  benchmark::AddCustomContext("stisan_simd_backend",
                              stisan::kernels::SimdBackendName());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
