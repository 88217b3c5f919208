// Numerical gradient verification for every differentiable op.
//
// Each test builds a scalar loss from randomly-initialised inputs and checks
// the analytic gradients against central finite differences.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "tensor/gradcheck.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace stisan {
namespace {

Tensor RandomInput(Shape shape, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  return Tensor::Randn(std::move(shape), rng, scale, /*requires_grad=*/true);
}

#define EXPECT_GRADCHECK_OK(fn, ...)                         \
  do {                                                       \
    Status st = CheckGradients(fn, {__VA_ARGS__});           \
    EXPECT_TRUE(st.ok()) << st.ToString();                   \
  } while (0)

TEST(GradCheck, Add) {
  Tensor a = RandomInput({2, 3}, 1);
  Tensor b = RandomInput({2, 3}, 2);
  EXPECT_GRADCHECK_OK([&] { return ops::Sum((a + b) * (a + b)); }, a, b);
}

TEST(GradCheck, SubBroadcast) {
  Tensor a = RandomInput({2, 3}, 3);
  Tensor b = RandomInput({3}, 4);
  EXPECT_GRADCHECK_OK([&] { return ops::Sum(ops::Square(a - b)); }, a, b);
}

TEST(GradCheck, MulBroadcastColumn) {
  Tensor a = RandomInput({2, 3}, 5);
  Tensor b = RandomInput({2, 1}, 6);
  EXPECT_GRADCHECK_OK([&] { return ops::Sum(a * b); }, a, b);
}

TEST(GradCheck, MatMul2D) {
  Tensor a = RandomInput({3, 4}, 8);
  Tensor b = RandomInput({4, 2}, 9);
  EXPECT_GRADCHECK_OK([&] { return ops::Sum(ops::Square(ops::MatMul(a, b))); },
                      a, b);
}

TEST(GradCheck, MatMulBatched) {
  Tensor a = RandomInput({2, 3, 2}, 10);
  Tensor b = RandomInput({2, 2, 3}, 11);
  EXPECT_GRADCHECK_OK([&] { return ops::Sum(ops::Square(ops::MatMul(a, b))); },
                      a, b);
}

TEST(GradCheck, MatMul3Dx2D) {
  Tensor a = RandomInput({2, 3, 4}, 12);
  Tensor b = RandomInput({4, 2}, 13);
  EXPECT_GRADCHECK_OK([&] { return ops::Sum(ops::Square(ops::MatMul(a, b))); },
                      a, b);
}

TEST(GradCheck, TransposeLast2) {
  Tensor a = RandomInput({2, 3, 4}, 14);
  EXPECT_GRADCHECK_OK(
      [&] {
        Tensor t = ops::TransposeLast2(a);
        return ops::Sum(ops::Square(ops::MatMul(a, t)));
      },
      a);
}

TEST(GradCheck, UnaryActivations) {
  Tensor a = RandomInput({2, 4}, 15);
  EXPECT_GRADCHECK_OK([&] { return ops::Sum(ops::Sigmoid(a)); }, a);
  EXPECT_GRADCHECK_OK([&] { return ops::Sum(ops::Tanh(a)); }, a);
  EXPECT_GRADCHECK_OK([&] { return ops::Sum(ops::LogSigmoid(a)); }, a);
}

TEST(GradCheck, ReluAwayFromKink) {
  // Shift inputs away from 0 where relu is non-differentiable.
  Rng rng(16);
  Tensor a = Tensor::Rand({8}, rng, 0.5f, 1.5f, true);
  Tensor b = Tensor::Rand({8}, rng, -1.5f, -0.5f, true);
  EXPECT_GRADCHECK_OK([&] { return ops::Sum(ops::Relu(a)); }, a);
  EXPECT_GRADCHECK_OK([&] { return ops::Sum(ops::Relu(b)); }, b);
}

TEST(GradCheck, Softmax) {
  Tensor a = RandomInput({3, 4}, 19);
  Tensor w = RandomInput({3, 4}, 20).Detach();
  EXPECT_GRADCHECK_OK([&] { return ops::Sum(ops::Softmax(a) * w); }, a);
}

TEST(GradCheck, LayerNormAllInputs) {
  Tensor x = RandomInput({3, 4}, 23);
  Rng rng(24);
  Tensor gamma = Tensor::Rand({4}, rng, 0.5f, 1.5f, true);
  Tensor beta = Tensor::Randn({4}, rng, 0.5f, true);
  Tensor w = RandomInput({3, 4}, 25).Detach();
  EXPECT_GRADCHECK_OK(
      [&] { return ops::Sum(ops::LayerNorm(x, gamma, beta) * w); }, x, gamma,
      beta);
}

TEST(GradCheck, EmbeddingLookup) {
  Tensor w = RandomInput({5, 3}, 26);
  EXPECT_GRADCHECK_OK(
      [&] {
        Tensor e = ops::EmbeddingLookup(w, {0, 2, 2, 4});
        return ops::Sum(ops::Square(e));
      },
      w);
}

TEST(GradCheck, ReshapeSliceConcat) {
  Tensor a = RandomInput({2, 6}, 27);
  Tensor b = RandomInput({2, 2}, 28);
  EXPECT_GRADCHECK_OK(
      [&] {
        Tensor r = ops::Reshape(a, {4, 3});
        Tensor s = ops::Slice(r, 0, 1, 3);   // [2,3]
        Tensor c = ops::Concat(s, b, 1);     // [2,5]
        return ops::Sum(ops::Square(c));
      },
      a, b);
}

TEST(GradCheck, Stack0) {
  Tensor a = RandomInput({3}, 29);
  Tensor b = RandomInput({3}, 30);
  Tensor c = RandomInput({3}, 31);
  EXPECT_GRADCHECK_OK(
      [&] { return ops::Sum(ops::Square(ops::Stack0({a, b, c}))); }, a, b, c);
}

TEST(GradCheck, Unfold1D) {
  Tensor a = RandomInput({5, 2}, 32);
  EXPECT_GRADCHECK_OK(
      [&] { return ops::Sum(ops::Square(ops::Unfold1D(a, 3))); }, a);
}

TEST(GradCheck, SumDimAndMaxDim) {
  Tensor a = RandomInput({3, 4}, 33);
  EXPECT_GRADCHECK_OK(
      [&] { return ops::Sum(ops::Square(ops::SumDim(a, 0))); }, a);
  EXPECT_GRADCHECK_OK(
      [&] { return ops::Sum(ops::Square(ops::SumDim(a, 1, true))); }, a);
  // MaxDim: random gaussian entries are distinct w.p. 1, so argmax is stable
  // under the small FD perturbation.
  EXPECT_GRADCHECK_OK(
      [&] { return ops::Sum(ops::Square(ops::MaxDim(a, 1))); }, a);
}

TEST(GradCheck, AttentionShapedComposite) {
  // A miniature causal attention: checks the composed graph end-to-end.
  const int64_t n = 3, d = 4;
  Tensor x = RandomInput({n, d}, 34, 0.5f);
  Tensor wq = RandomInput({d, d}, 35, 0.5f);
  Tensor wk = RandomInput({d, d}, 36, 0.5f);
  Tensor wv = RandomInput({d, d}, 37, 0.5f);
  // Causal mask as additive constant.
  std::vector<float> mask(n * n, 0.0f);
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = i + 1; j < n; ++j) mask[i * n + j] = -1e9f;
  Tensor m = Tensor::FromVector({n, n}, mask);
  EXPECT_GRADCHECK_OK(
      [&] {
        Tensor q = ops::MatMul(x, wq);
        Tensor k = ops::MatMul(x, wk);
        Tensor v = ops::MatMul(x, wv);
        Tensor logits =
            ops::MulScalar(ops::MatMul(q, ops::TransposeLast2(k)),
                           1.0f / std::sqrt(float(d)));
        Tensor att = ops::Softmax(logits + m);
        return ops::Sum(ops::Square(ops::MatMul(att, v)));
      },
      x, wq, wk, wv);
}

// ---- Chained-view graphs ----------------------------------------------------
// Shape ops are zero-copy views; these check that gradients route correctly
// through view chains and through Contiguous()'s scatter-accumulate.

TEST(GradCheck, SliceOfReshape) {
  // Inner-dim slice of a reshape: the slice is non-contiguous, so downstream
  // ops materialise it and the backward scatters into the base buffer.
  Tensor a = RandomInput({2, 6}, 50);
  EXPECT_GRADCHECK_OK(
      [&] {
        Tensor r = ops::Reshape(a, {3, 4});
        Tensor s = ops::Slice(r, 1, 1, 3);
        return ops::Sum(ops::Square(s));
      },
      a);
}

TEST(GradCheck, TransposeThenMatMul) {
  // Exercises MatMul's fused transposed-right-operand path (the view is
  // consumed without materialisation).
  Tensor a = RandomInput({3, 4}, 51, 0.5f);
  Tensor b = RandomInput({5, 4}, 52, 0.5f);
  EXPECT_GRADCHECK_OK(
      [&] {
        return ops::Sum(ops::Square(ops::MatMul(a, ops::TransposeLast2(b))));
      },
      a, b);
}

TEST(GradCheck, TransposeOfViewThenMatMul) {
  // Transpose of a non-contiguous slice: falls off the fused path and goes
  // through Contiguous() instead.
  Tensor a = RandomInput({2, 3}, 53, 0.5f);
  Tensor b = RandomInput({4, 5}, 54, 0.5f);
  EXPECT_GRADCHECK_OK(
      [&] {
        Tensor bs = ops::Slice(b, 1, 1, 4);  // [4,3], non-contiguous
        return ops::Sum(ops::Square(ops::MatMul(a, ops::TransposeLast2(bs))));
      },
      a, b);
}

TEST(GradCheck, OverlappingSlicesAccumulate) {
  // Two overlapping views write grads into one base buffer.
  Tensor a = RandomInput({5, 3}, 55);
  EXPECT_GRADCHECK_OK(
      [&] {
        Tensor lo = ops::Slice(a, 0, 0, 3);
        Tensor hi = ops::Slice(a, 0, 2, 5);
        return ops::Sum(ops::Square(lo * hi));
      },
      a);
}

TEST(GradCheck, InnerSliceChain) {
  // slice(transpose(slice(x))): a deep chain of strided views.
  Tensor a = RandomInput({4, 6}, 56);
  EXPECT_GRADCHECK_OK(
      [&] {
        Tensor s1 = ops::Slice(a, 1, 1, 5);        // [4,4] strided
        Tensor t = ops::TransposeLast2(s1);        // [4,4] strided
        Tensor s2 = ops::Slice(t, 0, 1, 3);        // [2,4] strided
        return ops::Sum(ops::Square(s2));
      },
      a);
}

// ---- Fused elementwise ops vs their composed chains -------------------------
//
// Linear::ForwardRelu and LayerNorm::ForwardResidual always lower through
// these fused ops; the composed chains stay as their bit-exact references.

std::vector<float> GradOf(const Tensor& t) {
  return {t.grad_data(), t.grad_data() + t.numel()};
}

TEST(PlanFusedOps, FusedBiasReluMatchesComposedBitExact) {
  kernels::SetNumThreads(1);
  Rng rng(11);
  const Tensor x0 = Tensor::Randn({5, 7}, rng);
  const Tensor b0 = Tensor::Randn({7}, rng);
  const Tensor up = Tensor::Randn({5, 7}, rng);  // varied upstream grads

  auto run = [&](bool fused) {
    Tensor x = Tensor::FromVector({5, 7}, x0.ToVector(), true);
    Tensor b = Tensor::FromVector({7}, b0.ToVector(), true);
    Tensor out = fused ? ops::FusedBiasRelu(x, b) : ops::Relu(x + b);
    ops::Sum(out * up).Backward();
    return std::tuple{out.ToVector(), GradOf(x), GradOf(b)};
  };
  const auto [f_out, f_xg, f_bg] = run(true);
  const auto [c_out, c_xg, c_bg] = run(false);
  EXPECT_EQ(f_out, c_out);
  EXPECT_EQ(f_xg, c_xg);
  EXPECT_EQ(f_bg, c_bg);
}

TEST(PlanFusedOps, FusedResidualLayerNormMatchesComposedBitExact) {
  kernels::SetNumThreads(1);
  Rng rng(12);
  const Tensor x0 = Tensor::Randn({4, 6}, rng);
  const Tensor r0 = Tensor::Randn({4, 6}, rng);
  const Tensor g0 = Tensor::Rand({6}, rng, 0.5f, 1.5f);
  const Tensor be0 = Tensor::Randn({6}, rng, 0.1f);
  const Tensor up = Tensor::Randn({4, 6}, rng);
  constexpr float kEps = 1e-5f;

  auto run = [&](bool fused) {
    Tensor x = Tensor::FromVector({4, 6}, x0.ToVector(), true);
    Tensor r = Tensor::FromVector({4, 6}, r0.ToVector(), true);
    Tensor g = Tensor::FromVector({6}, g0.ToVector(), true);
    Tensor be = Tensor::FromVector({6}, be0.ToVector(), true);
    Tensor out = fused ? ops::FusedResidualLayerNorm(x, r, g, be, kEps)
                       : ops::LayerNorm(x + r, g, be, kEps);
    ops::Sum(out * up).Backward();
    return std::tuple{out.ToVector(), GradOf(x), GradOf(r), GradOf(g),
                      GradOf(be)};
  };
  const auto [f_out, f_xg, f_rg, f_gg, f_bg] = run(true);
  const auto [c_out, c_xg, c_rg, c_gg, c_bg] = run(false);
  EXPECT_EQ(f_out, c_out);
  EXPECT_EQ(f_xg, c_xg);
  EXPECT_EQ(f_rg, c_rg);
  EXPECT_EQ(f_gg, c_gg);
  EXPECT_EQ(f_bg, c_bg);
}

TEST(PlanFusedOps, GradCheckFusedBiasRelu) {
  kernels::SetNumThreads(1);
  Rng rng(13);
  // Preactivations stay clearly on one side of the ReLU kink so the central
  // differences never straddle it: x in (0.25, 1), bias entries +1 or -3.
  Tensor x = Tensor::Rand({3, 4}, rng, 0.25f, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::FromVector({4}, {1.0f, -3.0f, 1.0f, -3.0f},
                                /*requires_grad=*/true);
  Status st = CheckGradients(
      [&] { return ops::Sum(ops::Square(ops::FusedBiasRelu(x, b))); }, {x, b});
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(PlanFusedOps, GradCheckFusedResidualLayerNorm) {
  kernels::SetNumThreads(1);
  Rng rng(14);
  Tensor x = Tensor::Randn({3, 5}, rng, 1.0f, /*requires_grad=*/true);
  Tensor r = Tensor::Randn({3, 5}, rng, 1.0f, /*requires_grad=*/true);
  Tensor g = Tensor::Rand({5}, rng, 0.5f, 1.5f, /*requires_grad=*/true);
  Tensor be = Tensor::Randn({5}, rng, 0.1f, /*requires_grad=*/true);
  Status st = CheckGradients(
      [&] {
        return ops::Sum(
            ops::Square(ops::FusedResidualLayerNorm(x, r, g, be, 1e-5f)));
      },
      {x, r, g, be});
  EXPECT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace stisan
