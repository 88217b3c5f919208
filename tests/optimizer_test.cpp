#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "util/rng.h"

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

// ---- The split step against the serial loop -------------------------------

// The serial scalar Adam step and gradient clip over plain vectors: the
// reference the pool-split, vectorised optimizer must match bit for bit.
// This file builds with the default -fmath-errno, so its square roots stay
// scalar.
struct SerialAdam {
  Adam::Options options;
  int64_t t = 0;
  std::vector<std::vector<float>> w, g, m, v;
  std::vector<bool> has_grad;

  float ClipGradNorm(float max_norm) {
    double total = 0.0;
    for (size_t k = 0; k < w.size(); ++k) {
      if (!has_grad[k]) continue;
      for (float x : g[k]) total += double(x) * x;
    }
    const float norm = static_cast<float>(std::sqrt(total));
    if (norm > max_norm && norm > 0.0f) {
      const float scale = max_norm / norm;
      for (size_t k = 0; k < w.size(); ++k) {
        if (!has_grad[k]) continue;
        for (float& x : g[k]) x *= scale;
      }
    }
    return norm;
  }

  void Step() {
    ++t;
    const float bc1 = 1.0f - std::pow(options.beta1, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(options.beta2, static_cast<float>(t));
    for (size_t k = 0; k < w.size(); ++k) {
      if (!has_grad[k]) continue;
      for (size_t i = 0; i < w[k].size(); ++i) {
        const float grad = g[k][i] + options.weight_decay * w[k][i];
        m[k][i] = options.beta1 * m[k][i] + (1.0f - options.beta1) * grad;
        v[k][i] =
            options.beta2 * v[k][i] + (1.0f - options.beta2) * grad * grad;
        const float mhat = m[k][i] / bc1;
        const float vhat = v[k][i] / bc2;
        w[k][i] -= options.lr * mhat / (std::sqrt(vhat) + options.eps);
      }
    }
  }
};

uint32_t Bits(float x) {
  uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// Fails at the first element whose bit pattern differs (so -0.0 vs 0.0 and
// NaN payloads count).
void ExpectSameBits(const float* got, const std::vector<float>& want,
                    const std::string& what) {
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i]))
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
  }
}

// One step's gradient values: mostly normals at `scale`, with exact zeros,
// negative zeros, denormals and spikes 1000 times larger mixed in.
float DrawGradient(Rng& rng, float scale) {
  const uint64_t kind = rng.UniformInt(uint64_t{100});
  if (kind < 8) return 0.0f;
  if (kind < 14) return -0.0f;
  if (kind < 20) {
    const float denormal = std::numeric_limits<float>::denorm_min() *
                           static_cast<float>(1 + rng.UniformInt(uint64_t{1000}));
    return rng.UniformInt(uint64_t{2}) == 0 ? denormal : -denormal;
  }
  if (kind < 22) return static_cast<float>(rng.Normal()) * 1e3f * scale;
  return static_cast<float>(rng.Normal()) * scale;
}

TEST(AdamTest, StepBitIdenticalToSerialReference) {
  // Sizes around the vector width and the pool's chunk boundaries; the
  // total crosses ParallelMinWork(), so four threads split each step. The
  // last tensor never receives a gradient and must stay untouched.
  const std::vector<int64_t> sizes = {1, 7, 33, 2048, 65537, 200003, 4099};
  const size_t no_grad = sizes.size() - 1;
  constexpr int kSteps = 25;
  constexpr float kMaxNorm = 5.0f;
  for (float weight_decay : {0.0f, 0.01f}) {
    for (int64_t threads : {1, 4}) {
      kernels::SetNumThreads(threads);
      const std::string config = "weight_decay=" +
                                 std::to_string(weight_decay) +
                                 " threads=" + std::to_string(threads);
      Rng init(17);
      std::vector<Tensor> params;
      SerialAdam ref;
      ref.options = {.lr = 0.01f, .weight_decay = weight_decay};
      for (size_t k = 0; k < sizes.size(); ++k) {
        Tensor p = Tensor::Randn({sizes[k]}, init, 0.5f, /*requires_grad=*/true);
        params.push_back(p);
        ref.w.push_back(p.ToVector());
        ref.g.emplace_back(static_cast<size_t>(sizes[k]), 0.0f);
        ref.m.emplace_back(static_cast<size_t>(sizes[k]), 0.0f);
        ref.v.emplace_back(static_cast<size_t>(sizes[k]), 0.0f);
        ref.has_grad.push_back(k != no_grad);
      }
      Adam opt(params, ref.options);
      obs::Counter& dispatches = obs::GetCounter("kernels/dispatches");
      const uint64_t dispatches_before = dispatches.Get();
      Rng draw(23);
      int clipped = 0;
      for (int step = 0; step < kSteps; ++step) {
        // Small gradients on even steps stay under the clip; odd steps
        // clip.
        const float scale = step % 2 == 0 ? 1e-5f : 1.0f;
        for (size_t k = 0; k < sizes.size(); ++k) {
          if (k == no_grad) continue;
          float* g = params[k].mutable_grad_data();
          for (int64_t i = 0; i < sizes[k]; ++i) {
            g[i] = DrawGradient(draw, scale);
            ref.g[k][static_cast<size_t>(i)] = g[i];
          }
        }
        const float norm = opt.ClipGradNorm(kMaxNorm);
        const float want_norm = ref.ClipGradNorm(kMaxNorm);
        ASSERT_EQ(Bits(norm), Bits(want_norm)) << config << " step " << step;
        if (want_norm > kMaxNorm) ++clipped;
        opt.Step();
        ref.Step();
      }
      EXPECT_GT(clipped, 0) << config;
      EXPECT_LT(clipped, kSteps) << config;
      if (threads > 1) {
        EXPECT_GE(dispatches.Get() - dispatches_before, uint64_t{kSteps})
            << config << ": the step never split across the pool";
      }
      for (size_t k = 0; k < sizes.size(); ++k) {
        const std::string what =
            config + " tensor " + std::to_string(k);
        ExpectSameBits(params[k].data(), ref.w[k], what + " weights");
        ExpectSameBits(opt.first_moments()[k].data(), ref.m[k],
                       what + " first moment");
        ExpectSameBits(opt.second_moments()[k].data(), ref.v[k],
                       what + " second moment");
      }
    }
  }
  kernels::SetNumThreads(1);
}

TEST(AdamDeathTest, OverlappingParametersAbort) {
  // Death tests fork; the threadsafe style re-runs the binary for the
  // child, which stays sound with the kernel pool's threads alive.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Tensor w = Tensor::Zeros({64}, /*requires_grad=*/true);
  EXPECT_DEATH({ Adam opt({w, w}, {}); }, "overlap");
}

}  // namespace
}  // namespace stisan
