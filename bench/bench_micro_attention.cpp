// Microbenchmarks for the attention stack: vanilla SA block vs IAAB,
// forward and forward+backward (google-benchmark). The FLOPs claim of
// Table VI in wall-clock form at op granularity.
//
// Emit machine-readable results with:
//   ./bench_micro_attention --benchmark_format=json
//
// The *_Threads benchmarks take (n, threads) pairs at the paper's STiSAN
// shape (sequence n=100, attention dim d=32); threads=0 means "hardware
// concurrency". Each run re-sizes the global kernel pool, reports the
// effective worker count in the "threads" counter and restores the pool
// size it found, so serial vs threaded forwards can be compared from one
// binary and every other row runs at the STISAN_NUM_THREADS size.

// BM_FusedAttention* time a full CausalSelfAttention module (projections
// plus the fused attention node), forward and forward+backward, at
// sequence length n. BM_AttentionOp* compare the raw attention core without
// the q/k/v projection GEMMs: the composed per-op chain (built here, as in
// the test oracle) against the single fused node, so the fusion speedup is
// not diluted. The checked-in BENCH_attention.json holds the aggregates of
//   STISAN_NUM_THREADS=1 ./bench_micro_attention --benchmark_repetitions=5
//   --benchmark_report_aggregates_only=true --benchmark_format=json

// The *Inference* benchmarks compare serving-mode forwards (no grad
// recording, fused lowering) on the scalar reference kernels and on the
// runtime-dispatched SIMD kernels — the scalar-vs-SIMD rows of
// BENCH_attention.json.

#include <benchmark/benchmark.h>

#include <cmath>

#include "core/iaab.h"
#include "core/relation.h"
#include "nn/attention.h"
#include "tensor/kernels.h"

namespace stisan::core {
namespace {

IaabOptions Options(AttentionMode mode, int64_t d) {
  IaabOptions o;
  o.dim = d;
  o.ffn_hidden = 2 * d;
  o.dropout = 0.0f;
  o.mode = mode;
  return o;
}

void RunBlock(benchmark::State& state, AttentionMode mode, bool backward) {
  const int64_t n = state.range(0);
  const int64_t d = 32;
  Rng rng(7);
  IntervalAwareAttentionBlock block(Options(mode, d), rng);
  block.SetTraining(false);
  Tensor rel = SoftmaxScaleRelation(Tensor::Zeros({n, n}), 0);
  Tensor mask = BuildPaddedCausalMask(n, 0);
  for (auto _ : state) {
    Tensor x = Tensor::Randn({n, d}, rng, 1.0f, backward);
    Tensor out = block.Forward(x, rel, mask, rng);
    if (backward) {
      ops::Sum(ops::Square(out)).Backward();
    }
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_SaBlockForward(benchmark::State& state) {
  RunBlock(state, AttentionMode::kVanilla, false);
}
BENCHMARK(BM_SaBlockForward)->Arg(32)->Arg(64)->Arg(128);

void BM_IaabBlockForward(benchmark::State& state) {
  RunBlock(state, AttentionMode::kIntervalAware, false);
}
BENCHMARK(BM_IaabBlockForward)->Arg(32)->Arg(64)->Arg(128);

void BM_SaBlockTrainStep(benchmark::State& state) {
  RunBlock(state, AttentionMode::kVanilla, true);
}
BENCHMARK(BM_SaBlockTrainStep)->Arg(32)->Arg(64);

void BM_IaabBlockTrainStep(benchmark::State& state) {
  RunBlock(state, AttentionMode::kIntervalAware, true);
}
BENCHMARK(BM_IaabBlockTrainStep)->Arg(32)->Arg(64);

// STiSAN trunk (2-block interval-aware encoder, d=32) at the paper's
// sequence length n=100, serial vs threaded.
void RunEncoderThreads(benchmark::State& state, bool backward) {
  const int64_t n = state.range(0);
  const int64_t d = 32;
  const int64_t threads_before = kernels::NumThreads();
  kernels::SetNumThreads(state.range(1));
  Rng rng(9);
  IaabEncoder encoder(Options(AttentionMode::kIntervalAware, d), 2, rng);
  encoder.SetTraining(false);
  Tensor rel = SoftmaxScaleRelation(Tensor::Zeros({n, n}), 0);
  Tensor mask = BuildPaddedCausalMask(n, 0);
  for (auto _ : state) {
    Tensor x = Tensor::Randn({n, d}, rng, 1.0f, backward);
    Tensor out = encoder.Forward(x, rel, mask, rng);
    if (backward) {
      ops::Sum(ops::Square(out)).Backward();
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["threads"] = static_cast<double>(kernels::NumThreads());
  kernels::SetNumThreads(threads_before);
}

void BM_StisanEncoderForwardThreads(benchmark::State& state) {
  RunEncoderThreads(state, false);
}
BENCHMARK(BM_StisanEncoderForwardThreads)
    ->Args({100, 1})
    ->Args({100, 2})
    ->Args({100, 0});

void BM_StisanEncoderTrainStepThreads(benchmark::State& state) {
  RunEncoderThreads(state, true);
}
BENCHMARK(BM_StisanEncoderTrainStepThreads)->Args({100, 1})->Args({100, 0});

// A full CausalSelfAttention module (projections + fused attention core)
// at sequence length n, d=32.
void RunAttentionModule(benchmark::State& state, bool backward) {
  const int64_t n = state.range(0);
  const int64_t d = 32;
  Rng rng(11);
  nn::CausalSelfAttention attn(d, /*dropout=*/0.0f, rng);
  attn.SetTraining(false);
  Tensor bias = SoftmaxScaleRelation(Tensor::Zeros({n, n}), 0);
  for (auto _ : state) {
    Tensor x = Tensor::Randn({n, d}, rng, 1.0f, backward);
    Tensor out = attn.Forward(x, bias, rng);
    if (backward) {
      ops::Sum(ops::Square(out)).Backward();
    }
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_FusedAttentionForward(benchmark::State& state) {
  RunAttentionModule(state, /*backward=*/false);
}
BENCHMARK(BM_FusedAttentionForward)->Arg(32)->Arg(64)->Arg(128);

void BM_FusedAttentionTrainStep(benchmark::State& state) {
  RunAttentionModule(state, /*backward=*/true);
}
BENCHMARK(BM_FusedAttentionTrainStep)->Arg(32)->Arg(64)->Arg(128);

// Raw attention core softmax(qkᵀ·scale + mask + bias)v without the
// projection GEMMs: the composed op chain the fused node replaced vs the
// single fused node.
void RunAttentionOp(benchmark::State& state, bool fused, bool backward) {
  const int64_t n = state.range(0);
  const int64_t d = 32;
  const float scale = 1.0f / std::sqrt(float(d));
  Rng rng(13);
  Tensor bias = SoftmaxScaleRelation(Tensor::Zeros({n, n}), 0);
  for (auto _ : state) {
    Tensor q = Tensor::Randn({n, d}, rng, 1.0f, backward);
    Tensor k = Tensor::Randn({n, d}, rng, 1.0f, backward);
    Tensor v = Tensor::Randn({n, d}, rng, 1.0f, backward);
    Tensor out;
    if (fused) {
      out = ops::FusedAttention(q, k, v, bias, /*causal=*/true, scale);
    } else {
      Tensor logits =
          ops::MulScalar(ops::MatMul(q, ops::TransposeLast2(k)), scale);
      logits = logits + nn::BuildCausalMask(n);
      logits = logits + bias;
      out = ops::MatMul(ops::Softmax(logits), v);
    }
    if (backward) {
      ops::Sum(ops::Square(out)).Backward();
    }
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_AttentionOpComposedForward(benchmark::State& state) {
  RunAttentionOp(state, /*fused=*/false, /*backward=*/false);
}
BENCHMARK(BM_AttentionOpComposedForward)->Arg(32)->Arg(64)->Arg(128);

void BM_AttentionOpFusedForward(benchmark::State& state) {
  RunAttentionOp(state, /*fused=*/true, /*backward=*/false);
}
BENCHMARK(BM_AttentionOpFusedForward)->Arg(32)->Arg(64)->Arg(128);

void BM_AttentionOpComposedTrainStep(benchmark::State& state) {
  RunAttentionOp(state, /*fused=*/false, /*backward=*/true);
}
BENCHMARK(BM_AttentionOpComposedTrainStep)->Arg(32)->Arg(64)->Arg(128);

void BM_AttentionOpFusedTrainStep(benchmark::State& state) {
  RunAttentionOp(state, /*fused=*/true, /*backward=*/true);
}
BENCHMARK(BM_AttentionOpFusedTrainStep)->Arg(32)->Arg(64)->Arg(128);

// Serving-mode CausalSelfAttention forward (projections + fused core,
// no grad recording) on the scalar or SIMD fp32 backend.
void RunInferenceBackend(benchmark::State& state, int simd_mode) {
  const int64_t n = state.range(0);
  const int64_t d = 64;
  kernels::SetSimdEnabledForTesting(simd_mode);
  Rng rng(17);
  nn::CausalSelfAttention attn(d, /*dropout=*/0.0f, rng);
  attn.SetTraining(false);
  Tensor bias = SoftmaxScaleRelation(Tensor::Zeros({n, n}), 0);
  {
    NoGradGuard no_grad;
    for (auto _ : state) {
      Tensor x = Tensor::Randn({n, d}, rng);
      Tensor out = attn.Forward(x, bias, rng);
      benchmark::DoNotOptimize(out.data());
    }
  }
  kernels::SetSimdEnabledForTesting(-1);
}

void BM_InferenceAttentionFp32Scalar(benchmark::State& state) {
  RunInferenceBackend(state, /*simd_mode=*/0);
}
BENCHMARK(BM_InferenceAttentionFp32Scalar)->Arg(32)->Arg(100)->Arg(128);

void BM_InferenceAttentionFp32Simd(benchmark::State& state) {
  RunInferenceBackend(state, /*simd_mode=*/1);
}
BENCHMARK(BM_InferenceAttentionFp32Simd)->Arg(32)->Arg(100)->Arg(128);

void BM_RelationMatrixBuild(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(8);
  std::vector<int64_t> pois(static_cast<size_t>(n));
  std::vector<double> ts(static_cast<size_t>(n));
  std::vector<geo::GeoPoint> coords(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    pois[size_t(i)] = i + 1;
    ts[size_t(i)] = double(i) * 3600.0;
    coords[size_t(i)] = {43.8 + 0.001 * double(i), 125.3};
  }
  for (auto _ : state) {
    Tensor r = BuildRelationMatrix(pois, ts, coords, 0, {});
    benchmark::DoNotOptimize(SoftmaxScaleRelation(r, 0).data());
  }
}
BENCHMARK(BM_RelationMatrixBuild)->Arg(32)->Arg(128);

}  // namespace
}  // namespace stisan::core

BENCHMARK_MAIN();
