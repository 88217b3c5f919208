#include <gtest/gtest.h>

#include <cmath>

#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/flops.h"
#include "nn/layers.h"
#include "nn/recurrent.h"
#include "tensor/gradcheck.h"
#include "tensor/optimizer.h"

namespace stisan::nn {
namespace {

TEST(ModuleTest, CollectsParametersRecursively) {
  Rng rng(1);
  PointwiseFeedForward ffn(4, 8, 0.0f, rng);
  // fc1: W+b, fc2: W+b -> 4 parameters.
  EXPECT_EQ(ffn.Parameters().size(), 4u);
}

TEST(ModuleTest, TrainingFlagPropagates) {
  Rng rng(1);
  PointwiseFeedForward ffn(4, 8, 0.5f, rng);
  EXPECT_TRUE(ffn.training());
  ffn.SetTraining(false);
  EXPECT_FALSE(ffn.training());
}

TEST(LinearTest, ShapeAndBias) {
  Rng rng(2);
  Linear lin(3, 5, rng);
  Tensor x = Tensor::Ones({2, 3});
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 5}));
  EXPECT_EQ(lin.Parameters().size(), 2u);
  Linear no_bias(3, 5, rng, /*bias=*/false);
  EXPECT_EQ(no_bias.Parameters().size(), 1u);
}

TEST(LinearTest, BatchedInput) {
  Rng rng(3);
  Linear lin(3, 4, rng);
  Tensor x = Tensor::Ones({2, 5, 3});
  EXPECT_EQ(lin.Forward(x).shape(), (Shape{2, 5, 4}));
}

TEST(EmbeddingTest, PaddingRowIsZeroInitialised) {
  Rng rng(4);
  Embedding emb(10, 4, rng, /*padding_idx=*/0);
  Tensor out = emb.Forward({0, 3});
  for (int c = 0; c < 4; ++c) EXPECT_EQ(out.at({0, c}), 0.0f);
  // Non-padding rows are nonzero with overwhelming probability.
  float norm = 0;
  for (int c = 0; c < 4; ++c) norm += std::fabs(out.at({1, c}));
  EXPECT_GT(norm, 0.0f);
}

TEST(LayerNormLayerTest, NormalisesAndLearns) {
  Rng rng(5);
  LayerNorm ln(4);
  EXPECT_EQ(ln.Parameters().size(), 2u);
  Tensor x = Tensor::FromVector({1, 4}, {1, 2, 3, 4});
  Tensor y = ln.Forward(x);
  float sum = 0;
  for (int c = 0; c < 4; ++c) sum += y.at({0, c});
  EXPECT_NEAR(sum, 0.0f, 1e-5f);
}

TEST(SinusoidalTest, ValuesMatchFormula) {
  Tensor pe = SinusoidalEncoding({1.0, 2.5}, 4);
  EXPECT_EQ(pe.shape(), (Shape{2, 4}));
  EXPECT_NEAR(pe.at({0, 0}), std::sin(1.0), 1e-6);
  EXPECT_NEAR(pe.at({0, 1}), std::cos(1.0), 1e-6);
  const double div = std::exp(-std::log(10000.0) * 2.0 / 4.0);
  EXPECT_NEAR(pe.at({1, 2}), std::sin(2.5 * div), 1e-6);
  EXPECT_NEAR(pe.at({1, 3}), std::cos(2.5 * div), 1e-6);
}

TEST(SinusoidalTest, VanillaStartsAtOne) {
  Tensor pe = VanillaPositionalEncoding(3, 4);
  EXPECT_NEAR(pe.at({0, 0}), std::sin(1.0), 1e-6);
  EXPECT_NEAR(pe.at({2, 0}), std::sin(3.0), 1e-6);
}

TEST(SinusoidalTest, DistinctPositionsDistinctRows) {
  Tensor pe = VanillaPositionalEncoding(50, 16);
  // Row 10 and row 40 must differ substantially.
  float diff = 0;
  for (int c = 0; c < 16; ++c)
    diff += std::fabs(pe.at({10, c}) - pe.at({40, c}));
  EXPECT_GT(diff, 0.5f);
}

TEST(LearnedPositionalTest, SliceAndTrainable) {
  Rng rng(6);
  LearnedPositionalEmbedding pos(16, 4, rng);
  Tensor p = pos.Forward(5);
  EXPECT_EQ(p.shape(), (Shape{5, 4}));
  EXPECT_EQ(pos.Parameters().size(), 1u);
}

// ---- Attention ---------------------------------------------------------------

TEST(AttentionTest, CausalMaskValues) {
  Tensor m = BuildCausalMask(3);
  EXPECT_EQ(m.at({0, 0}), 0.0f);
  EXPECT_EQ(m.at({0, 1}), -1e9f);
  EXPECT_EQ(m.at({2, 1}), 0.0f);
}

TEST(AttentionTest, OutputShape) {
  Rng rng(7);
  CausalSelfAttention att(8, 0.0f, rng);
  Tensor x = Tensor::Randn({5, 8}, rng);
  EXPECT_EQ(att.Forward(x, Tensor(), rng).shape(), (Shape{5, 8}));
}

TEST(AttentionTest, MapRowsSumToOneAndCausal) {
  Rng rng(8);
  CausalSelfAttention att(8, 0.0f, rng);
  Tensor x = Tensor::Randn({4, 8}, rng);
  Tensor map = att.AttentionMap(x, Tensor());
  for (int i = 0; i < 4; ++i) {
    float sum = 0;
    for (int j = 0; j < 4; ++j) {
      sum += map.at({i, j});
      if (j > i) {
        EXPECT_NEAR(map.at({i, j}), 0.0f, 1e-9f);
      }
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(AttentionTest, BiasSteersAttention) {
  Rng rng(9);
  CausalSelfAttention att(8, 0.0f, rng);
  Tensor x = Tensor::Randn({4, 8}, rng);
  // A huge bias toward column 0 should dominate row 3.
  Tensor bias = Tensor::Zeros({4, 4});
  bias.set({3, 0}, 50.0f);
  Tensor map = att.AttentionMap(x, bias);
  EXPECT_GT(map.at({3, 0}), 0.99f);
}

TEST(AttentionTest, NonCausalAttendsForward) {
  Rng rng(10);
  CausalSelfAttention att(8, 0.0f, rng, /*causal=*/false);
  Tensor x = Tensor::Randn({4, 8}, rng);
  Tensor map = att.AttentionMap(x, Tensor());
  // Some strictly-upper entry must be nonzero.
  float upper = 0;
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j) upper += map.at({i, j});
  EXPECT_GT(upper, 1e-4f);
}

TEST(AttentionTest, GradientsFlowThroughAttention) {
  Rng rng(11);
  CausalSelfAttention att(4, 0.0f, rng);
  Tensor x = Tensor::Randn({3, 4}, rng, 1.0f, /*requires_grad=*/true);
  Tensor out = att.Forward(x, Tensor(), rng);
  ops::Sum(ops::Square(out)).Backward();
  EXPECT_TRUE(x.has_grad());
  float gnorm = 0;
  for (int64_t i = 0; i < x.numel(); ++i)
    gnorm += std::fabs(x.grad_data()[i]);
  EXPECT_GT(gnorm, 0.0f);
}

TEST(AttentionTest, ForwardIsCausal) {
  Rng rng(31);
  CausalSelfAttention att(12, 0.0f, rng);
  Tensor x = Tensor::Randn({5, 12}, rng);
  Tensor out = att.Forward(x, Tensor(), rng);
  EXPECT_EQ(out.shape(), (Shape{5, 12}));
  // Changing a future row must not affect an earlier output row.
  Tensor x2 = x.Detach();
  x2.set({4, 0}, x2.at({4, 0}) + 5.0f);
  Tensor out2 = att.Forward(x2, Tensor(), rng);
  for (int c = 0; c < 12; ++c) {
    EXPECT_NEAR(out.at({0, c}), out2.at({0, c}), 1e-6f);
  }
}

// ---- Recurrent -----------------------------------------------------------------

TEST(GruCellTest, ShapesAndStateChange) {
  Rng rng(13);
  GruCell cell(4, 6, rng);
  Tensor x = Tensor::Randn({1, 4}, rng);
  Tensor h = Tensor::Zeros({1, 6});
  Tensor h2 = cell.Forward(x, h);
  EXPECT_EQ(h2.shape(), (Shape{1, 6}));
  float change = 0;
  for (int c = 0; c < 6; ++c) change += std::fabs(h2.at({0, c}));
  EXPECT_GT(change, 0.0f);
}

TEST(GruCellTest, CanLearnToRememberInput) {
  // Train a GRU to output the first input after 3 steps (memory task).
  Rng rng(14);
  GruCell cell(1, 4, rng);
  Linear readout(4, 1, rng);
  std::vector<Tensor> params = cell.Parameters();
  auto rp = readout.Parameters();
  params.insert(params.end(), rp.begin(), rp.end());
  Adam opt(params, {.lr = 0.02f});
  float final_loss = 1e9f;
  for (int step = 0; step < 300; ++step) {
    opt.ZeroGrad();
    const float target = rng.Bernoulli(0.5) ? 1.0f : -1.0f;
    Tensor h = Tensor::Zeros({1, 4});
    for (int t = 0; t < 3; ++t) {
      Tensor x = Tensor::FromVector({1, 1}, {t == 0 ? target : 0.0f});
      h = cell.Forward(x, h);
    }
    Tensor loss = ops::Sum(
        ops::Square(readout.Forward(h) -
                    Tensor::FromVector({1, 1}, {target})));
    loss.Backward();
    opt.Step();
    final_loss = loss.data()[0];
  }
  EXPECT_LT(final_loss, 0.1f);
}

TEST(StgnCellTest, IntervalsAffectState) {
  Rng rng(16);
  StgnCell cell(4, 6, rng);
  StgnCell::State s{Tensor::Zeros({1, 6}), Tensor::Zeros({1, 6}),
                    Tensor::Zeros({1, 6})};
  Tensor x = Tensor::Randn({1, 4}, rng);
  auto near = cell.Forward(x, s, 0.1f, 0.1f);
  auto far = cell.Forward(x, s, 5.0f, 8.0f);
  float diff = 0;
  for (int c = 0; c < 6; ++c)
    diff += std::fabs(near.h.at({0, c}) - far.h.at({0, c}));
  EXPECT_GT(diff, 1e-4f);
}

// ---- Caser conv -----------------------------------------------------------------

TEST(CaserConvTest, OutputShape) {
  Rng rng(17);
  CaserConv conv(5, 8, {2, 3}, 4, 2, 8, 0.0f, rng);
  Tensor x = Tensor::Randn({5, 8}, rng);
  EXPECT_EQ(conv.Forward(x, rng).shape(), (Shape{1, 8}));
}

TEST(CaserConvTest, GradientsReachFilters) {
  Rng rng(18);
  CaserConv conv(4, 4, {2}, 3, 1, 4, 0.0f, rng);
  Tensor x = Tensor::Randn({4, 4}, rng, 1.0f, true);
  Tensor out = conv.Forward(x, rng);
  ops::Sum(ops::Square(out)).Backward();
  for (auto& p : conv.Parameters()) {
    EXPECT_TRUE(p.has_grad());
  }
}

// ---- FLOPs ------------------------------------------------------------------------

TEST(FlopsTest, LinearFormula) {
  EXPECT_EQ(LinearFlops(2, 3, 4), 48);
}

TEST(FlopsTest, IaabOverheadIsNegligible) {
  // The paper's claim (Table VI): IAAB adds a vanishing fraction.
  const int64_t n = 100, d = 256, dh = 512;
  const int64_t sa = SaBlockFlops(n, d, dh);
  const int64_t iaab = IaabBlockFlops(n, d, dh);
  EXPECT_GT(iaab, sa);
  EXPECT_LT(double(iaab - sa) / double(sa), 0.01);  // < 1% overhead
}

TEST(FlopsTest, MonotoneInSequenceLength) {
  EXPECT_LT(SaBlockFlops(32, 64, 128), SaBlockFlops(64, 64, 128));
  EXPECT_LT(SelfAttentionFlops(32, 64), SelfAttentionFlops(64, 64));
}

}  // namespace
}  // namespace stisan::nn
