#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace stisan {
namespace {

// Minimises f(w) = sum((w - target)^2) and checks convergence.
float RunQuadratic(Adam& opt, Tensor& w, const Tensor& target,
                   int steps) {
  float loss_val = 0.0f;
  for (int s = 0; s < steps; ++s) {
    opt.ZeroGrad();
    Tensor loss = ops::Sum(ops::Square(w - target));
    loss.Backward();
    opt.Step();
    loss_val = loss.data()[0];
  }
  return loss_val;
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Tensor w = Tensor::Zeros({4}, true);
  Tensor target = Tensor::FromVector({4}, {1, -2, 3, 0.5f});
  Adam opt({w}, {.lr = 0.1f});
  float loss = RunQuadratic(opt, w, target, 200);
  EXPECT_LT(loss, 1e-4f);
}

TEST(AdamTest, WeightDecayShrinksWeights) {
  // With a zero-gradient loss, weight decay alone should shrink weights.
  Tensor w = Tensor::Full({2}, 1.0f, true);
  Adam opt({w}, {.lr = 0.01f, .weight_decay = 1.0f});
  for (int i = 0; i < 50; ++i) {
    opt.ZeroGrad();
    opt.Step();
  }
  EXPECT_LT(std::fabs(w.data()[0]), 1.0f);
}

TEST(OptimizerTest, ZeroGradClears) {
  Tensor w = Tensor::Ones({2}, true);
  Adam opt({w}, {.lr = 0.1f});
  Tensor loss = ops::Sum(w * w);
  loss.Backward();
  EXPECT_NE(w.grad_data()[0], 0.0f);
  opt.ZeroGrad();
  EXPECT_EQ(w.grad_data()[0], 0.0f);
}

TEST(OptimizerTest, ClipGradNorm) {
  Tensor w = Tensor::Ones({2}, true);
  Adam opt({w}, {.lr = 0.1f});
  opt.ZeroGrad();
  w.mutable_grad_data()[0] = 3.0f;
  w.mutable_grad_data()[1] = 4.0f;  // norm 5
  float pre = opt.ClipGradNorm(1.0f);
  EXPECT_NEAR(pre, 5.0f, 1e-5f);
  EXPECT_NEAR(w.grad_data()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(w.grad_data()[1], 0.8f, 1e-5f);
}

TEST(OptimizerTest, ClipNoOpBelowThreshold) {
  Tensor w = Tensor::Ones({1}, true);
  Adam opt({w}, {.lr = 0.1f});
  opt.ZeroGrad();
  w.mutable_grad_data()[0] = 0.5f;
  opt.ClipGradNorm(1.0f);
  EXPECT_NEAR(w.grad_data()[0], 0.5f, 1e-6f);
}

TEST(AdamTest, BeatsNoisyScaleMismatch) {
  // Two params with wildly different gradient scales: Adam normalises.
  Tensor w = Tensor::FromVector({2}, {10.0f, 10.0f}, true);
  Adam opt({w}, {.lr = 0.5f});
  for (int s = 0; s < 300; ++s) {
    opt.ZeroGrad();
    Tensor scale = Tensor::FromVector({2}, {100.0f, 0.01f});
    Tensor loss = ops::Sum(ops::Square(w) * scale);
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.data()[0], 0.0f, 0.1f);
  EXPECT_NEAR(w.data()[1], 0.0f, 0.5f);
}

}  // namespace
}  // namespace stisan
