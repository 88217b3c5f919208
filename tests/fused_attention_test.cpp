// Fused attention test suite (label: "fused").
//
// Covers the ops::FusedAttention contract from three angles:
//  1. analytic gradients vs central finite differences (bias/no-bias,
//     causal/non-causal, 2-D and padded-batch 3-D),
//  2. bit-equivalence of the production attention layers
//     (CausalSelfAttention, TaadDecode, TaadDecodeBatch) against the
//     composed per-op chain, built here from public ops as the oracle:
//     forward, input grads, learned-bias grads and the dropout RNG stream,
//  3. bit-determinism across thread counts on shapes large enough to
//     actually split in ParallelRanges: a batched shape (BatchedGemm's
//     batch split) and the 2-D training shapes (Gemm's row split).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/relation.h"
#include "core/taad.h"
#include "nn/attention.h"
#include "tensor/gradcheck.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace stisan {
namespace {

// Pins the scalar reference kernels. Fused-vs-composed bit-equivalence is
// only promised under the scalar backend: the vector kernels' lane-parallel
// partial sums make the composed path's full-row softmax (over -1e9-masked
// logits) round differently from the fused bounded loops. SIMD coverage of
// the same shapes lives in simd_kernels_test.cpp, by tolerance.
class ScopedScalarSimd {
 public:
  ScopedScalarSimd() { kernels::SetSimdEnabledForTesting(0); }
  ~ScopedScalarSimd() { kernels::SetSimdEnabledForTesting(-1); }
};

Tensor RandomInput(Shape shape, uint64_t seed, float scale = 0.5f) {
  Rng rng(seed);
  return Tensor::Randn(std::move(shape), rng, scale, /*requires_grad=*/true);
}

std::vector<float> GradVector(const Tensor& t) {
  EXPECT_TRUE(t.has_grad());
  return {t.grad_data(), t.grad_data() + t.numel()};
}

#define EXPECT_GRADCHECK_OK(fn, ...)               \
  do {                                             \
    Status st = CheckGradients(fn, {__VA_ARGS__}); \
    EXPECT_TRUE(st.ok()) << st.ToString();         \
  } while (0)

// ---- 1. Finite-difference gradchecks ---------------------------------------

TEST(FusedGradCheck, CausalNoBias2D) {
  Tensor q = RandomInput({5, 4}, 1);
  Tensor k = RandomInput({5, 4}, 2);
  Tensor v = RandomInput({5, 4}, 3);
  const float scale = 1.0f / std::sqrt(4.0f);
  EXPECT_GRADCHECK_OK(
      [&] {
        return ops::Sum(ops::Square(
            ops::FusedAttention(q, k, v, Tensor(), /*causal=*/true, scale)));
      },
      q, k, v);
}

TEST(FusedGradCheck, NonCausalWithBias2D) {
  // Cross-attention shape: m != n, learned additive bias gets a gradient.
  Tensor q = RandomInput({3, 4}, 4);
  Tensor k = RandomInput({6, 4}, 5);
  Tensor v = RandomInput({6, 4}, 6);
  Tensor bias = RandomInput({3, 6}, 7);
  const float scale = 1.0f / std::sqrt(4.0f);
  EXPECT_GRADCHECK_OK(
      [&] {
        return ops::Sum(ops::Square(
            ops::FusedAttention(q, k, v, bias, /*causal=*/false, scale)));
      },
      q, k, v, bias);
}

TEST(FusedGradCheck, CausalBatchedBroadcastBias) {
  // [b, m, d] inputs with a shared [m, n] bias (IAAB's relation matrix is
  // per-sequence, but the broadcast path must still accumulate correctly).
  Tensor q = RandomInput({2, 4, 3}, 8);
  Tensor k = RandomInput({2, 4, 3}, 9);
  Tensor v = RandomInput({2, 4, 3}, 10);
  Tensor bias = RandomInput({4, 4}, 11);
  const float scale = 1.0f / std::sqrt(3.0f);
  EXPECT_GRADCHECK_OK(
      [&] {
        return ops::Sum(ops::Square(
            ops::FusedAttention(q, k, v, bias, /*causal=*/true, scale)));
      },
      q, k, v, bias);
}

TEST(FusedGradCheck, PaddedBatchMaskedBias) {
  // Padding handled the production way: a constant -1e9 mask in the bias
  // slot. Gradients through the surviving entries must still match finite
  // differences; masked keys contribute exactly zero.
  Tensor q = RandomInput({2, 4, 3}, 12);
  Tensor k = RandomInput({2, 4, 3}, 13);
  Tensor v = RandomInput({2, 4, 3}, 14);
  Tensor mask = core::BuildPaddedCausalMask(4, /*first_real=*/2);
  const float scale = 1.0f / std::sqrt(3.0f);
  EXPECT_GRADCHECK_OK(
      [&] {
        return ops::Sum(ops::Square(
            ops::FusedAttention(q, k, v, mask, /*causal=*/false, scale)));
      },
      q, k, v);
}

// ---- 2. Fused vs the composed oracle ---------------------------------------

// The composed per-op chain
//   Dropout(Softmax(q kᵀ · scale [+ causal mask] [+ bias])) v,
// in the op order whose rounding the fused node reproduces: TransposeLast2
// is a zero-copy view that MatMul reads in place, and the mask and bias are
// separate adds.
Tensor ComposedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                         const Tensor& bias, bool causal, float scale,
                         float dropout_p, bool training, Rng& rng) {
  Tensor logits = ops::MulScalar(ops::MatMul(q, ops::TransposeLast2(k)),
                                 scale);
  if (causal) logits = logits + nn::BuildCausalMask(q.size(-2));
  if (bias.defined()) logits = logits + bias;
  Tensor att = ops::Dropout(ops::Softmax(logits), dropout_p, rng, training);
  return ops::MatMul(att, v);
}

// CausalSelfAttention::Forward through the oracle. The module's projections
// are read from Parameters() ({W_q, W_k, W_v}; Linear::Forward without bias
// is MatMul(x, W)).
Tensor ComposedSelfAttention(const nn::CausalSelfAttention& attn,
                             const Tensor& x, const Tensor& bias,
                             float dropout_p, Rng& rng) {
  const std::vector<Tensor> w = attn.Parameters();
  EXPECT_EQ(w.size(), 3u);
  const Tensor q = ops::MatMul(x, w[0]);
  const Tensor k = ops::MatMul(x, w[1]);
  const Tensor v = ops::MatMul(x, w[2]);
  const float scale = 1.0f / std::sqrt(float(attn.dim()));
  return ComposedAttention(q, k, v, bias, attn.causal(), scale, dropout_p,
                           attn.training(), rng);
}

// TAAD's visibility rule, restated independently of src/core: the query
// for step s sees keys first_real..s, and always its own step s (a query
// inside the padding sees only itself).
bool TaadVisible(int64_t j, int64_t step, int64_t first_real) {
  return j == step || (j >= first_real && j < step);
}

// TaadDecode through the oracle: Attn(C, F, F) with one mask row per
// candidate.
Tensor ComposedTaadDecode(const Tensor& c, const Tensor& f,
                          const std::vector<int64_t>& step_of_row,
                          int64_t first_real) {
  const int64_t m = c.size(0);
  const int64_t n = f.size(0);
  Tensor mask = Tensor::Zeros({m, n});
  for (int64_t r = 0; r < m; ++r) {
    for (int64_t j = 0; j < n; ++j) {
      if (!TaadVisible(j, step_of_row[size_t(r)], first_real)) {
        mask.data()[r * n + j] = -1e9f;
      }
    }
  }
  Rng unused(0);
  return ComposedAttention(c, f, f, mask, /*causal=*/false,
                           1.0f / std::sqrt(float(c.size(1))),
                           /*dropout_p=*/0.0f, /*training=*/false, unused);
}

// TaadDecodeBatch through the oracle: every row of sequence b decodes at
// the last step n-1 with its own first_real.
Tensor ComposedTaadDecodeBatch(const Tensor& c, const Tensor& f,
                               const std::vector<int64_t>& first_real) {
  const int64_t bsz = c.size(0);
  const int64_t m = c.size(1);
  const int64_t n = f.size(1);
  Tensor mask = Tensor::Zeros({bsz, m, n});
  for (int64_t b = 0; b < bsz; ++b) {
    for (int64_t r = 0; r < m; ++r) {
      for (int64_t j = 0; j < n; ++j) {
        if (!TaadVisible(j, n - 1, first_real[size_t(b)])) {
          mask.data()[(b * m + r) * n + j] = -1e9f;
        }
      }
    }
  }
  Rng unused(0);
  return ComposedAttention(c, f, f, mask, /*causal=*/false,
                           1.0f / std::sqrt(float(c.size(2))),
                           /*dropout_p=*/0.0f, /*training=*/false, unused);
}

// Forward values and input grads of one lowering, built on freshly
// initialised identical inputs.
struct LoweringResult {
  std::vector<float> forward;
  std::vector<float> grads;
};

TEST(FusedComposedEquivalence, SingleHeadSelfAttentionBitExact) {
  ScopedScalarSimd scalar;
  auto run = [](bool fused) {
    Rng init(21);
    nn::CausalSelfAttention attn(8, /*dropout=*/0.0f, init);
    Tensor x = RandomInput({6, 8}, 22);
    Rng fwd(23);
    Tensor y = fused ? attn.Forward(x, Tensor(), fwd)
                     : ComposedSelfAttention(attn, x, Tensor(), 0.0f, fwd);
    LoweringResult r;
    r.forward = y.ToVector();
    ops::Sum(ops::Square(y)).Backward();
    r.grads = GradVector(x);
    return r;
  };
  const LoweringResult composed = run(false);
  const LoweringResult fused = run(true);
  // EXPECT_EQ on floats: the golden-metrics suite pins the fused lowering,
  // so anything short of bit-identity with the oracle is a correctness bug.
  EXPECT_EQ(composed.forward, fused.forward);
  EXPECT_EQ(composed.grads, fused.grads);
}

TEST(FusedComposedEquivalence, LearnedBiasGradBitExact) {
  ScopedScalarSimd scalar;
  // TiSASRec feeds a learned bucket bias through the attention: the bias
  // gradient must survive the fused lowering bit-for-bit.
  auto run = [](bool fused) {
    Rng init(31);
    nn::CausalSelfAttention attn(8, /*dropout=*/0.0f, init);
    Tensor x = RandomInput({5, 8}, 32);
    Tensor bias = RandomInput({5, 5}, 33, 0.1f);
    Rng fwd(34);
    Tensor y = fused ? attn.Forward(x, bias, fwd)
                     : ComposedSelfAttention(attn, x, bias, 0.0f, fwd);
    LoweringResult r;
    r.forward = y.ToVector();
    ops::Sum(ops::Square(y)).Backward();
    r.grads = GradVector(bias);
    return r;
  };
  const LoweringResult composed = run(false);
  const LoweringResult fused = run(true);
  EXPECT_EQ(composed.forward, fused.forward);
  EXPECT_EQ(composed.grads, fused.grads);
}

TEST(FusedComposedEquivalence, DropoutRngStreamAligned) {
  ScopedScalarSimd scalar;
  // Training-mode dropout: the fused kernel must consume the RNG stream in
  // exactly the composed order (row-major Bernoulli over the full prob
  // matrix), so same-seeded runs are bit-identical.
  auto run = [](bool fused) {
    Rng init(51);
    nn::CausalSelfAttention attn(8, /*dropout=*/0.3f, init);
    Tensor x = RandomInput({6, 8}, 52);
    Rng fwd(53);
    Tensor y = fused ? attn.Forward(x, Tensor(), fwd)
                     : ComposedSelfAttention(attn, x, Tensor(), 0.3f, fwd);
    LoweringResult r;
    r.forward = y.ToVector();
    ops::Sum(ops::Square(y)).Backward();
    r.grads = GradVector(x);
    return r;
  };
  const LoweringResult composed = run(false);
  const LoweringResult fused = run(true);
  EXPECT_EQ(composed.forward, fused.forward);
  EXPECT_EQ(composed.grads, fused.grads);
}

TEST(FusedComposedEquivalence, PaddedBatchBitExact) {
  ScopedScalarSimd scalar;
  // Batched attention over sequences with padding prefixes, as EncodeBatch
  // produces: [b, n, d] input + per-sequence [b, n, n] masks in the bias.
  auto run = [](bool fused) {
    Rng init(61);
    nn::CausalSelfAttention attn(8, /*dropout=*/0.0f, init, /*causal=*/false);
    Tensor x = RandomInput({2, 4, 8}, 62);
    Tensor mask = Tensor::Zeros({2, 4, 4});
    const Tensor m0 = core::BuildPaddedCausalMask(4, 0);
    const Tensor m1 = core::BuildPaddedCausalMask(4, 2);
    std::copy(m0.data(), m0.data() + 16, mask.data());
    std::copy(m1.data(), m1.data() + 16, mask.data() + 16);
    Rng fwd(63);
    Tensor y = fused ? attn.Forward(x, mask, fwd)
                     : ComposedSelfAttention(attn, x, mask, 0.0f, fwd);
    LoweringResult r;
    r.forward = y.ToVector();
    ops::Sum(ops::Square(y)).Backward();
    r.grads = GradVector(x);
    return r;
  };
  const LoweringResult composed = run(false);
  const LoweringResult fused = run(true);
  EXPECT_EQ(composed.forward, fused.forward);
  EXPECT_EQ(composed.grads, fused.grads);
}

TEST(FusedComposedEquivalence, TaadDecodeBitExact) {
  ScopedScalarSimd scalar;
  // TAAD aliases keys and values (Attn(C, F, F)); both lowerings must agree
  // on forward and on the summed k==v gradient.
  auto run = [](bool fused) {
    Tensor f = RandomInput({4, 8}, 71);
    Tensor c = RandomInput({3, 8}, 72);
    Tensor s = fused ? core::TaadDecode(c, f, {1, 2, 3}, /*first_real=*/1)
                     : ComposedTaadDecode(c, f, {1, 2, 3}, /*first_real=*/1);
    LoweringResult r;
    r.forward = s.ToVector();
    ops::Sum(ops::Square(s)).Backward();
    r.grads = GradVector(f);
    auto gc = GradVector(c);
    r.grads.insert(r.grads.end(), gc.begin(), gc.end());
    return r;
  };
  const LoweringResult composed = run(false);
  const LoweringResult fused = run(true);
  EXPECT_EQ(composed.forward, fused.forward);
  EXPECT_EQ(composed.grads, fused.grads);
}

TEST(FusedComposedEquivalence, TaadDecodeBatchBitExact) {
  ScopedScalarSimd scalar;
  auto run = [](bool fused) {
    Tensor f = RandomInput({2, 4, 8}, 81);
    Tensor c = RandomInput({2, 3, 8}, 82);
    Tensor s = fused ? core::TaadDecodeBatch(c, f, {0, 2})
                     : ComposedTaadDecodeBatch(c, f, {0, 2});
    LoweringResult r;
    r.forward = s.ToVector();
    ops::Sum(ops::Square(s)).Backward();
    r.grads = GradVector(f);
    auto gc = GradVector(c);
    r.grads.insert(r.grads.end(), gc.begin(), gc.end());
    return r;
  };
  const LoweringResult composed = run(false);
  const LoweringResult fused = run(true);
  EXPECT_EQ(composed.forward, fused.forward);
  EXPECT_EQ(composed.grads, fused.grads);
}

// ---- 3. Thread-count determinism -------------------------------------------

TEST(FusedDeterminism, BitIdenticalAcrossThreadCounts) {
  // Shapes chosen so batch*m*cost clears ParallelMinWork (2^15 by default)
  // and the row partition genuinely splits at 4 threads.
  auto run = [](int64_t threads) {
    kernels::SetNumThreads(threads);
    Tensor q = RandomInput({2, 64, 16}, 91);
    Tensor k = RandomInput({2, 64, 16}, 92);
    Tensor v = RandomInput({2, 64, 16}, 93);
    Tensor bias = RandomInput({64, 64}, 94, 0.1f);
    const float scale = 1.0f / std::sqrt(16.0f);
    Tensor y = ops::FusedAttention(q, k, v, bias, /*causal=*/true, scale);
    LoweringResult r;
    r.forward = y.ToVector();
    ops::Sum(ops::Square(y)).Backward();
    for (const Tensor& t : {q, k, v, bias}) {
      auto g = GradVector(t);
      r.grads.insert(r.grads.end(), g.begin(), g.end());
    }
    return r;
  };
  const LoweringResult serial = run(1);
  const LoweringResult parallel = run(4);
  kernels::SetNumThreads(0);  // restore the default pool
  EXPECT_EQ(serial.forward, parallel.forward);
  EXPECT_EQ(serial.grads, parallel.grads);
}

TEST(FusedDeterminism, TrainingShapesBitIdenticalAcrossThreadCounts) {
  // One training window's 2-D calls at d = 32: IAAB self-attention (causal,
  // relation bias, attention dropout) and TAAD (400 candidate rows, k and
  // v one tensor). Their backward products are row-split Gemm calls at 4
  // threads; both backends keep the bits of the serial run.
  auto run = [](int64_t threads) {
    kernels::SetNumThreads(threads);
    LoweringResult r;
    Tensor q = RandomInput({100, 32}, 101);
    Tensor k = RandomInput({100, 32}, 102);
    Tensor v = RandomInput({100, 32}, 103);
    Tensor bias = RandomInput({100, 100}, 104, 0.1f);
    Rng drop(105);
    ops::FusedAttentionOptions options;
    options.causal = true;
    options.scale = 1.0f / std::sqrt(32.0f);
    options.dropout_p = 0.2f;
    options.training = true;
    options.rng = &drop;
    Tensor y = ops::FusedAttention(q, k, v, bias, options);
    Tensor f = RandomInput({100, 32}, 106);
    Tensor c = RandomInput({400, 32}, 107);
    std::vector<int64_t> step_of_row(400);
    for (int64_t row = 0; row < 400; ++row) step_of_row[size_t(row)] = row / 4;
    Tensor s = core::TaadDecode(c, f, step_of_row, /*first_real=*/10);
    r.forward = y.ToVector();
    const auto sv = s.ToVector();
    r.forward.insert(r.forward.end(), sv.begin(), sv.end());
    (ops::Sum(ops::Square(y)) + ops::Sum(ops::Square(s))).Backward();
    for (const Tensor& t : {q, k, v, bias, f, c}) {
      auto g = GradVector(t);
      r.grads.insert(r.grads.end(), g.begin(), g.end());
    }
    return r;
  };
  for (int simd : {0, 1}) {
    kernels::SetSimdEnabledForTesting(simd);
    const LoweringResult serial = run(1);
    const LoweringResult parallel = run(4);
    EXPECT_EQ(serial.forward, parallel.forward) << "simd=" << simd;
    EXPECT_EQ(serial.grads, parallel.grads) << "simd=" << simd;
  }
  kernels::SetSimdEnabledForTesting(-1);
  kernels::SetNumThreads(0);  // restore the default pool
}

}  // namespace
}  // namespace stisan
