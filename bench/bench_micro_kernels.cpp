// Microbenchmarks for the raw CPU kernels behind the encoder: Gemm,
// SoftmaxRows and LayerNormRows at the serving shapes (rows n in
// {32, 100, 128}, feature dim d in {50, 64}), each pinned to the scalar
// reference and to the runtime-dispatched SIMD backend.
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
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(2 * n * d * d), benchmark::Counter::kIsRate);
}

#define STISAN_KERNEL_SHAPES \
  ->Args({32, 50})->Args({32, 64})->Args({100, 50})->Args({100, 64})->Args({128, 50})->Args({128, 64})

void BM_GemmScalar(benchmark::State& state) { RunGemm(state, 0); }
BENCHMARK(BM_GemmScalar) STISAN_KERNEL_SHAPES;

void BM_GemmSimd(benchmark::State& state) { RunGemm(state, 1); }
BENCHMARK(BM_GemmSimd) STISAN_KERNEL_SHAPES;

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
