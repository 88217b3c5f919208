// SIMD kernel backend suite (label: "simd").
//
// The vector kernels (kernels_simd.cc) promise tolerance-level agreement
// with the scalar reference, not bit-identity — FMA contraction and 8-lane
// partial sums round differently. This suite pins that contract:
//
//  1. SIMD == scalar within tight tolerance on every kernel, including the
//     edge shapes serving produces: non-multiple-of-vector-width inner
//     dimensions (d=50), k=1, n=1, and m=1 single-query rows.
//  2. A seeded fuzz sweep over random GEMM / softmax / layernorm /
//     attention shapes.
//  3. What IS still bit-exact under SIMD: thread-count determinism (the
//     per-element reduction order never depends on the row partition) and
//     repeat-call determinism, including the transposed-B GEMM that packs
//     B once before its row split.
//  4. Dispatch controls: SetSimdEnabledForTesting and SimdBackendName.
//  5. ops::FusedAttention gradients at model shapes (d = 32), whose
//     backward products run on the AVX2 GEMM strips under SIMD.
//
// When the host CPU has no vector backend (x86 without AVX2), the
// comparisons degenerate to scalar-vs-scalar and pass trivially; the
// dispatch tests assert the scalar name instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace stisan {
namespace {

class ScopedSimd {
 public:
  explicit ScopedSimd(int mode) { kernels::SetSimdEnabledForTesting(mode); }
  ~ScopedSimd() { kernels::SetSimdEnabledForTesting(-1); }
};

std::vector<float> RandomVec(size_t n, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = scale * static_cast<float>(rng.Normal());
  return v;
}

// |a - b| <= atol + rtol * |b| elementwise.
void ExpectClose(const std::vector<float>& got, const std::vector<float>& want,
                 float atol, float rtol, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    const float tol = atol + rtol * std::fabs(want[i]);
    ASSERT_NEAR(got[i], want[i], tol) << what << " at index " << i;
  }
}

struct GemmShape {
  int64_t m, k, n;
  bool ta, tb;
};

std::vector<float> RunGemm(const GemmShape& s, const std::vector<float>& a,
                           const std::vector<float>& b, bool accumulate,
                           int simd_mode) {
  ScopedSimd guard(simd_mode);
  std::vector<float> c(static_cast<size_t>(s.m * s.n), accumulate ? 0.5f : -1.0f);
  kernels::Gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n, s.ta, s.tb,
                accumulate);
  return c;
}

void CheckGemmShape(const GemmShape& s, uint64_t seed) {
  const auto a = RandomVec(static_cast<size_t>(s.m * s.k), seed, 0.5f);
  const auto b = RandomVec(static_cast<size_t>(s.k * s.n), seed + 1, 0.5f);
  for (bool accumulate : {false, true}) {
    const auto scalar = RunGemm(s, a, b, accumulate, 0);
    const auto simd = RunGemm(s, a, b, accumulate, 1);
    ExpectClose(simd, scalar, 1e-5f, 1e-4f,
                "gemm m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
                    " n=" + std::to_string(s.n) + " ta=" + std::to_string(s.ta) +
                    " tb=" + std::to_string(s.tb) +
                    " acc=" + std::to_string(accumulate));
  }
}

TEST(SimdGemm, ServingShapesAllVariants) {
  // [100,64]x[64,64] is the benchmark acceptance shape; d=50 exercises the
  // non-multiple-of-8 tail; k=1 / n=1 / m=1 are the degenerate single-query
  // serving rows.
  const std::vector<GemmShape> shapes = {
      {100, 64, 64, false, false}, {100, 64, 64, false, true},
      {100, 64, 64, true, false},  {100, 64, 64, true, true},
      {32, 50, 50, false, false},  {32, 50, 50, false, true},
      {1, 64, 64, false, false},   {1, 50, 128, false, true},
      {7, 1, 9, false, false},     {7, 1, 9, false, true},
      {5, 13, 1, false, false},    {5, 13, 1, true, false},
      {1, 1, 1, false, false},     {1, 1, 1, true, true},
  };
  uint64_t seed = 1000;
  for (const auto& s : shapes) CheckGemmShape(s, seed += 2);
}

TEST(SimdGemm, SparseProbsRowsAgree) {
  // The !ta paths skip exact-zero multipliers (attention-prob sparsity);
  // fmadd(0, x, c) == c, so the skip must be value-invisible in both
  // backends.
  const GemmShape s{16, 24, 24, false, false};
  auto a = RandomVec(static_cast<size_t>(s.m * s.k), 77, 0.5f);
  for (size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
  const auto b = RandomVec(static_cast<size_t>(s.k * s.n), 78, 0.5f);
  const auto scalar = RunGemm(s, a, b, false, 0);
  const auto simd = RunGemm(s, a, b, false, 1);
  ExpectClose(simd, scalar, 1e-5f, 1e-4f, "sparse gemm");
}

TEST(SimdGemm, BatchedMatchesPerMatrix) {
  const int64_t batch = 3, m = 9, k = 17, n = 21;
  const auto a = RandomVec(static_cast<size_t>(batch * m * k), 5, 0.5f);
  const auto b = RandomVec(static_cast<size_t>(batch * k * n), 6, 0.5f);
  ScopedSimd guard(1);
  std::vector<float> c(static_cast<size_t>(batch * m * n));
  kernels::BatchedGemm(a.data(), b.data(), c.data(), batch, m, k, n, false,
                       false, false);
  // Each slice must equal a standalone Gemm on the same block (the batch
  // loop may not perturb per-matrix results).
  for (int64_t t = 0; t < batch; ++t) {
    std::vector<float> ct(static_cast<size_t>(m * n));
    kernels::Gemm(a.data() + t * m * k, b.data() + t * k * n, ct.data(), m, k,
                  n, false, false, false);
    for (int64_t i = 0; i < m * n; ++i)
      ASSERT_EQ(c[static_cast<size_t>(t * m * n + i)],
                ct[static_cast<size_t>(i)])
          << "batch " << t << " element " << i;
  }
}

TEST(SimdSoftmax, RowsAgreeIncludingMaskedLogits) {
  for (int64_t d : {1, 3, 7, 8, 9, 50, 64, 100, 128}) {
    const int64_t rows = 6;
    auto x = RandomVec(static_cast<size_t>(rows * d), 40 + d, 2.0f);
    // A -1e9-masked tail like the composed attention path produces.
    if (d >= 4) {
      for (int64_t j = d - 2; j < d; ++j) x[static_cast<size_t>(j)] = -1e9f;
    }
    std::vector<float> ys(x.size()), yv(x.size());
    {
      ScopedSimd guard(0);
      kernels::SoftmaxRows(x.data(), ys.data(), rows, d);
    }
    {
      ScopedSimd guard(1);
      kernels::SoftmaxRows(x.data(), yv.data(), rows, d);
    }
    ExpectClose(yv, ys, 2e-6f, 1e-4f, "softmax d=" + std::to_string(d));
    // Probabilities must still sum to ~1 per row.
    for (int64_t r = 0; r < rows; ++r) {
      float sum = 0.0f;
      for (int64_t j = 0; j < d; ++j) sum += yv[static_cast<size_t>(r * d + j)];
      ASSERT_NEAR(sum, 1.0f, 1e-4f);
    }
  }
}

TEST(SimdLayerNorm, RowsAndStatsAgree) {
  for (int64_t d : {2, 8, 16, 50, 64}) {
    const int64_t rows = 5;
    const auto x = RandomVec(static_cast<size_t>(rows * d), 80 + d);
    const auto gamma = RandomVec(static_cast<size_t>(d), 81, 0.5f);
    const auto beta = RandomVec(static_cast<size_t>(d), 82, 0.5f);
    std::vector<float> ys(x.size()), yv(x.size());
    std::vector<float> mus(rows), muv(rows), iss(rows), isv(rows);
    {
      ScopedSimd guard(0);
      kernels::LayerNormRows(x.data(), gamma.data(), beta.data(), ys.data(),
                             mus.data(), iss.data(), rows, d, 1e-5f);
    }
    {
      ScopedSimd guard(1);
      kernels::LayerNormRows(x.data(), gamma.data(), beta.data(), yv.data(),
                             muv.data(), isv.data(), rows, d, 1e-5f);
    }
    ExpectClose(yv, ys, 1e-5f, 1e-4f, "layernorm y d=" + std::to_string(d));
    ExpectClose(muv, mus, 1e-6f, 1e-5f, "layernorm mu d=" + std::to_string(d));
    ExpectClose(isv, iss, 1e-4f, 1e-3f,
                "layernorm inv_sigma d=" + std::to_string(d));
  }
}

struct AttnShape {
  int64_t batch, m, n, d;
  bool causal, with_bias;
};

TEST(SimdAttention, ForwardAgreesOnServingShapes) {
  const std::vector<AttnShape> shapes = {
      {1, 6, 6, 8, true, true},    {1, 100, 100, 64, true, false},
      {2, 12, 12, 50, true, true}, {1, 1, 1, 50, false, true},
      {1, 1, 32, 64, false, true},  // single-query incremental row
      {1, 1, 100, 50, false, false},
      {3, 5, 9, 16, false, true},  // cross-attention m != n
  };
  uint64_t seed = 300;
  for (const auto& s : shapes) {
    seed += 10;
    const auto q = RandomVec(static_cast<size_t>(s.batch * s.m * s.d), seed,
                             0.5f);
    const auto k = RandomVec(static_cast<size_t>(s.batch * s.n * s.d),
                             seed + 1, 0.5f);
    const auto v = RandomVec(static_cast<size_t>(s.batch * s.n * s.d),
                             seed + 2, 0.5f);
    const auto bias = RandomVec(static_cast<size_t>(s.batch * s.m * s.n),
                                seed + 3, 0.1f);
    const float scale = 1.0f / std::sqrt(static_cast<float>(s.d));
    auto run = [&](int mode) {
      ScopedSimd guard(mode);
      std::vector<float> probs(static_cast<size_t>(s.batch * s.m * s.n));
      std::vector<float> out(static_cast<size_t>(s.batch * s.m * s.d));
      kernels::FusedAttentionForward(
          q.data(), k.data(), v.data(), s.with_bias ? bias.data() : nullptr,
          /*drop_mask=*/nullptr, probs.data(), out.data(), s.batch, s.m, s.n,
          s.d, s.causal, scale, /*bias_broadcast=*/false);
      return std::make_pair(out, probs);
    };
    const auto scalar = run(0);
    const auto simd = run(1);
    const std::string what = "attention m=" + std::to_string(s.m) +
                             " n=" + std::to_string(s.n) +
                             " d=" + std::to_string(s.d);
    ExpectClose(simd.first, scalar.first, 1e-5f, 1e-4f, what + " out");
    ExpectClose(simd.second, scalar.second, 2e-6f, 1e-4f, what + " probs");
  }
}

TEST(SimdFuzz, RandomShapesSweep) {
  Rng rng(20260808);
  for (int iter = 0; iter < 40; ++iter) {
    const int64_t m = 1 + static_cast<int64_t>(rng.UniformInt(40));
    const int64_t k = 1 + static_cast<int64_t>(rng.UniformInt(70));
    const int64_t n = 1 + static_cast<int64_t>(rng.UniformInt(70));
    const bool ta = rng.UniformInt(2) == 0;
    const bool tb = rng.UniformInt(2) == 0;
    CheckGemmShape({m, k, n, ta, tb}, 9000 + static_cast<uint64_t>(iter));

    const int64_t rows = 1 + static_cast<int64_t>(rng.UniformInt(6));
    const int64_t d = 1 + static_cast<int64_t>(rng.UniformInt(130));
    const auto x = RandomVec(static_cast<size_t>(rows * d),
                             7000 + static_cast<uint64_t>(iter), 3.0f);
    std::vector<float> ys(x.size()), yv(x.size());
    {
      ScopedSimd guard(0);
      kernels::SoftmaxRows(x.data(), ys.data(), rows, d);
    }
    {
      ScopedSimd guard(1);
      kernels::SoftmaxRows(x.data(), yv.data(), rows, d);
    }
    ExpectClose(yv, ys, 2e-6f, 1e-4f,
                "fuzz softmax iter=" + std::to_string(iter));
  }
}

TEST(SimdDeterminism, BitIdenticalAcrossThreadCountsAndRepeats) {
  // The SIMD backend keeps the scalar backend's determinism contract: the
  // row partition never changes per-element reduction order.
  ScopedSimd guard(1);
  const int64_t m = 96, k = 64, n = 64;
  const auto a = RandomVec(static_cast<size_t>(m * k), 501, 0.5f);
  const auto b = RandomVec(static_cast<size_t>(k * n), 502, 0.5f);
  auto run = [&] {
    std::vector<float> c(static_cast<size_t>(m * n));
    kernels::Gemm(a.data(), b.data(), c.data(), m, k, n, false, false, false);
    return c;
  };
  kernels::SetNumThreads(1);
  const auto serial = run();
  kernels::SetNumThreads(4);
  const auto threaded = run();
  const auto threaded_again = run();
  kernels::SetNumThreads(1);
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(threaded, threaded_again);
}

TEST(SimdDeterminism, TransposedBBitIdenticalAcrossThreadCountsAndRepeats) {
  // A transposed B (A not transposed) is packed to [k,n] once per call,
  // before the row split, and every chunk reads the shared copy. Shapes:
  // the attention backward's dP at n = 100, a tail shape with no full
  // vector in k, and a batched dP.
  ScopedSimd guard(1);
  struct Case {
    int64_t batch, m, k, n;
  };
  const std::vector<Case> cases = {
      {0, 100, 32, 100}, {0, 37, 13, 29}, {3, 44, 32, 44}};
  for (const Case& s : cases) {
    const int64_t slices = std::max<int64_t>(1, s.batch);
    const auto a = RandomVec(static_cast<size_t>(slices * s.m * s.k), 601,
                             0.5f);
    const auto b = RandomVec(static_cast<size_t>(slices * s.n * s.k), 602,
                             0.5f);
    const auto c0 = RandomVec(static_cast<size_t>(slices * s.m * s.n), 603,
                              0.5f);
    for (bool accumulate : {false, true}) {
      auto run = [&] {
        std::vector<float> c = c0;
        if (s.batch == 0) {
          kernels::Gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n, false,
                        true, accumulate);
        } else {
          kernels::BatchedGemm(a.data(), b.data(), c.data(), s.batch, s.m,
                               s.k, s.n, false, true, accumulate);
        }
        return c;
      };
      kernels::SetNumThreads(1);
      const auto serial = run();
      kernels::SetNumThreads(4);
      const auto threaded = run();
      const auto threaded_again = run();
      kernels::SetNumThreads(1);
      const std::string what =
          "batch=" + std::to_string(s.batch) + " m=" + std::to_string(s.m) +
          " k=" + std::to_string(s.k) + " n=" + std::to_string(s.n) +
          " acc=" + std::to_string(accumulate);
      EXPECT_EQ(serial, threaded) << what;
      EXPECT_EQ(threaded, threaded_again) << what;
    }
  }
}

TEST(SimdDispatch, OverrideAndBackendName) {
  {
    ScopedSimd guard(0);
    EXPECT_FALSE(kernels::SimdEnabled());
    EXPECT_STREQ(kernels::SimdBackendName(), "scalar");
  }
  {
    ScopedSimd guard(1);
    if (kernels::SimdEnabled()) {
      EXPECT_STRNE(kernels::SimdBackendName(), "scalar");
    } else {
      // Forced on without hardware support: stays (honestly) scalar.
      EXPECT_STREQ(kernels::SimdBackendName(), "scalar");
    }
  }
}

// ---- 5. Attention gradients at model shapes ---------------------------------

// One training attention call: q [batch, m, d] against k/v [batch, n, d]
// (batch 0 = 2-D). kv_alias passes one tensor as k and v, like TAAD.
struct AttnGradCase {
  std::string name;
  int64_t batch, m, n, d;
  bool causal;
  bool kv_alias;
  // Learned bias the shape of the logits, a learned [m, n] shared across
  // the batch, or TAAD's constant -1e9 visibility mask.
  enum { kNone, kFull, kShared, kMask } bias;
  float dropout_p;
};

// Forward output followed by the q, k, v and learned-bias grads, under the
// given backend. The loss Σ y ∘ w with a fixed random w gives every output
// element its own gradient.
std::vector<float> FusedAttentionGrads(const AttnGradCase& c, int simd_mode) {
  ScopedSimd guard(simd_mode);
  Rng init(900);
  auto shape = [&](int64_t rows) {
    return c.batch == 0 ? Shape{rows, c.d} : Shape{c.batch, rows, c.d};
  };
  Tensor q = Tensor::Randn(shape(c.m), init, 0.5f, /*requires_grad=*/true);
  Tensor k = Tensor::Randn(shape(c.n), init, 0.5f, /*requires_grad=*/true);
  Tensor v = c.kv_alias ? k
                        : Tensor::Randn(shape(c.n), init, 0.5f,
                                        /*requires_grad=*/true);
  Tensor bias;
  if (c.bias == AttnGradCase::kMask) {
    // Row r decodes at step r % n and sees keys 0..step.
    bias = Tensor::Zeros({c.m, c.n});
    for (int64_t r = 0; r < c.m; ++r)
      for (int64_t j = r % c.n + 1; j < c.n; ++j)
        bias.data()[r * c.n + j] = -1e9f;
  } else if (c.bias == AttnGradCase::kFull) {
    bias = Tensor::Randn(c.batch == 0 ? Shape{c.m, c.n}
                                      : Shape{c.batch, c.m, c.n},
                         init, 0.1f, /*requires_grad=*/true);
  } else if (c.bias == AttnGradCase::kShared) {
    bias = Tensor::Randn({c.m, c.n}, init, 0.1f, /*requires_grad=*/true);
  }
  Rng drop(901);
  ops::FusedAttentionOptions options;
  options.causal = c.causal;
  options.scale = 1.0f / std::sqrt(static_cast<float>(c.d));
  options.dropout_p = c.dropout_p;
  options.training = c.dropout_p > 0.0f;
  options.rng = &drop;
  Tensor y = ops::FusedAttention(q, k, v, bias, options);
  Tensor w = Tensor::Randn(y.shape(), init, 1.0f);
  ops::Sum(ops::Mul(y, w)).Backward();
  std::vector<float> out = y.ToVector();
  std::vector<Tensor> inputs = {q, k};
  if (!c.kv_alias) inputs.push_back(v);
  if (bias.defined() && bias.requires_grad()) inputs.push_back(bias);
  for (const Tensor& t : inputs)
    out.insert(out.end(), t.grad_data(), t.grad_data() + t.numel());
  return out;
}

TEST(SimdAttention, GradientsAgreeOnModelShapes) {
  const std::vector<AttnGradCase> cases = {
      // IAAB self-attention over one training window: causal, relation
      // bias, attention dropout.
      {"self n=100", 0, 100, 100, 32, true, false, AttnGradCase::kFull, 0.2f},
      // TAAD: many candidate rows against one window, k and v one tensor.
      {"taad M=400", 0, 400, 100, 32, false, true, AttnGradCase::kMask, 0.0f},
      // A padded batch sharing one [m, n] bias.
      {"batch b=3", 3, 40, 40, 32, true, false, AttnGradCase::kShared, 0.0f},
  };
  for (const auto& c : cases) {
    const auto scalar = FusedAttentionGrads(c, 0);
    const auto simd = FusedAttentionGrads(c, 1);
    ExpectClose(simd, scalar, 1e-5f, 1e-4f, "attention grads " + c.name);
  }
}

}  // namespace
}  // namespace stisan
