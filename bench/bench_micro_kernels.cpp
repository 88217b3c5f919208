// Microbenchmarks for the raw CPU kernels behind the encoder: Gemm,
// SoftmaxRows and LayerNormRows at the serving shapes (rows n in
// {32, 100, 128}, feature dim d in {50, 64}), each pinned to the scalar
// reference and to the runtime-dispatched SIMD backend; Gemm with a
// transposed B at the training backward's shapes on both backends; and
// one Adam step over a serve_city-sized parameter set at 1 and 4 threads.
//
// Emit machine-readable results with:
//   ./bench_micro_kernels --benchmark_format=json
//
// The checked-in BENCH_kernels.json holds the aggregates of
//   STISAN_NUM_THREADS=1 ./bench_micro_kernels --benchmark_repetitions=5
//   --benchmark_report_aggregates_only=true --benchmark_format=json
// from the `default` (Release) preset: one kernel thread, so each row is
// one core's work and cpu_time is the kernel's cost. The gate is the
// BM_GemmScalar / BM_GemmSimd cpu_time ratio at (100, 64): the AVX2
// backend must be at least 2x faster on one core. The context keys
// "stisan_build_type" / "stisan_simd_backend" record the compile mode and
// the dispatched backend ("library_build_type" describes the system
// libbenchmark, not this code).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/optimizer.h"
#include "util/rng.h"

namespace stisan {
namespace {

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

class ScopedSimd {
 public:
  explicit ScopedSimd(int mode) { kernels::SetSimdEnabledForTesting(mode); }
  ~ScopedSimd() { kernels::SetSimdEnabledForTesting(-1); }
};

// [n, d] x [d, d] — the Linear-projection shape inside every block.
void RunGemm(benchmark::State& state, int simd_mode) {
  const int64_t n = state.range(0), d = state.range(1);
  ScopedSimd guard(simd_mode);
  const auto a = RandomVec(static_cast<size_t>(n * d), 1);
  const auto b = RandomVec(static_cast<size_t>(d * d), 2);
  std::vector<float> c(static_cast<size_t>(n * d));
  for (auto _ : state) {
    kernels::Gemm(a.data(), b.data(), c.data(), n, d, d, false, false, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["flops"] =
      benchmark::Counter(static_cast<double>(2 * n * d * d),
                         benchmark::Counter::kIsIterationInvariantRate);
}

#define STISAN_KERNEL_SHAPES \
  ->Args({32, 50})->Args({32, 64})->Args({100, 50})->Args({100, 64})->Args({128, 50})->Args({128, 64})

void BM_GemmScalar(benchmark::State& state) { RunGemm(state, 0); }
BENCHMARK(BM_GemmScalar) STISAN_KERNEL_SHAPES;

void BM_GemmSimd(benchmark::State& state) { RunGemm(state, 1); }
BENCHMARK(BM_GemmSimd) STISAN_KERNEL_SHAPES;

// C[m,n] = A[m,k] x B[n,k]ᵀ, the variant behind every Linear input
// gradient (dX = G·Wᵀ) and the attention backward's dP = G·Vᵀ. The SIMD
// backend packs B to [k,n] inside each call, so the rows include it.
void RunGemmTransposedB(benchmark::State& state, int simd_mode) {
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  ScopedSimd guard(simd_mode);
  const auto a = RandomVec(static_cast<size_t>(m * k), 7);
  const auto b = RandomVec(static_cast<size_t>(n * k), 8);
  std::vector<float> c(static_cast<size_t>(m * n));
  for (auto _ : state) {
    kernels::Gemm(a.data(), b.data(), c.data(), m, k, n, false, true, false);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["flops"] =
      benchmark::Counter(static_cast<double>(2 * m * k * n),
                         benchmark::Counter::kIsIterationInvariantRate);
}

// (m, k, n): dP at n = 100; the input gradients of a d = 32 projection and
// of the FFN's two layers (d = 32, hidden 64); TAAD's dP for 16 candidate
// rows over a 100-visit window.
#define STISAN_TRANSPOSED_B_SHAPES                                  \
  ->Args({100, 32, 100})->Args({100, 32, 32})->Args({100, 64, 32}) \
      ->Args({100, 32, 64})->Args({16, 32, 100})

void BM_GemmTransposedBScalar(benchmark::State& state) {
  RunGemmTransposedB(state, 0);
}
BENCHMARK(BM_GemmTransposedBScalar) STISAN_TRANSPOSED_B_SHAPES;

void BM_GemmTransposedBSimd(benchmark::State& state) {
  RunGemmTransposedB(state, 1);
}
BENCHMARK(BM_GemmTransposedBSimd) STISAN_TRANSPOSED_B_SHAPES;

void RunSoftmaxRows(benchmark::State& state, int simd_mode) {
  const int64_t n = state.range(0), d = state.range(1);
  ScopedSimd guard(simd_mode);
  const auto x = RandomVec(static_cast<size_t>(n * d), 3);
  std::vector<float> y(x.size());
  for (auto _ : state) {
    kernels::SoftmaxRows(x.data(), y.data(), n, d);
    benchmark::DoNotOptimize(y.data());
  }
}

void BM_SoftmaxRowsScalar(benchmark::State& state) { RunSoftmaxRows(state, 0); }
BENCHMARK(BM_SoftmaxRowsScalar) STISAN_KERNEL_SHAPES;

void BM_SoftmaxRowsSimd(benchmark::State& state) { RunSoftmaxRows(state, 1); }
BENCHMARK(BM_SoftmaxRowsSimd) STISAN_KERNEL_SHAPES;

void RunLayerNormRows(benchmark::State& state, int simd_mode) {
  const int64_t n = state.range(0), d = state.range(1);
  ScopedSimd guard(simd_mode);
  const auto x = RandomVec(static_cast<size_t>(n * d), 4);
  const auto gamma = RandomVec(static_cast<size_t>(d), 5);
  const auto beta = RandomVec(static_cast<size_t>(d), 6);
  std::vector<float> y(x.size());
  std::vector<float> mu(static_cast<size_t>(n)), is(static_cast<size_t>(n));
  for (auto _ : state) {
    kernels::LayerNormRows(x.data(), gamma.data(), beta.data(), y.data(),
                           mu.data(), is.data(), n, d, 1e-5f);
    benchmark::DoNotOptimize(y.data());
  }
}

void BM_LayerNormRowsScalar(benchmark::State& state) {
  RunLayerNormRows(state, 0);
}
BENCHMARK(BM_LayerNormRowsScalar) STISAN_KERNEL_SHAPES;

void BM_LayerNormRowsSimd(benchmark::State& state) {
  RunLayerNormRows(state, 1);
}
BENCHMARK(BM_LayerNormRowsSimd) STISAN_KERNEL_SHAPES;

// One Adam::Step over 2,433,310 parameters in 30 tensors, the size of
// serve_city's model: a 100,001 x 24 POI embedding table (2,400,024
// elements) and 29 small tensors. range(0) is the kernel pool size; the
// step is one ParallelRanges split over all elements, so read real_time.
void BM_AdamStep(benchmark::State& state) {
  const int64_t restore_threads = kernels::NumThreads();
  kernels::SetNumThreads(state.range(0));
  Rng rng(9);
  std::vector<Tensor> params;
  std::vector<Shape> shapes = {{100001, 24}};
  for (int i = 0; i < 28; ++i) shapes.push_back({i % 2 == 0 ? 1152 : 1024});
  shapes.push_back({2822});
  int64_t total = 0;
  for (const Shape& shape : shapes) {
    Tensor p = Tensor::Randn(shape, rng, 0.1f, /*requires_grad=*/true);
    float* g = p.mutable_grad_data();
    for (int64_t i = 0; i < p.numel(); ++i)
      g[i] = 1e-3f * static_cast<float>(rng.Normal());
    total += p.numel();
    params.push_back(p);
  }
  Adam opt(params, {});
  for (auto _ : state) {
    opt.Step();
    benchmark::DoNotOptimize(params[0].data());
    benchmark::ClobberMemory();
  }
  state.counters["params"] = static_cast<double>(total);
  kernels::SetNumThreads(restore_threads);
}
BENCHMARK(BM_AdamStep)->Arg(1)->Arg(4)->UseRealTime();

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
