// Algebraic property tests for the tensor ops: identities that must hold
// (within float tolerance) for arbitrary random inputs and shapes.

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace stisan {
namespace {

constexpr float kTol = 1e-4f;

void ExpectClose(const Tensor& a, const Tensor& b, float tol = kTol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], tol) << "elem " << i;
  }
}

class OpsAlgebraTest : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<uint64_t>(GetParam())};
};

TEST_P(OpsAlgebraTest, AddCommutes) {
  Tensor a = Tensor::Randn({3, 5}, rng_);
  Tensor b = Tensor::Randn({3, 5}, rng_);
  ExpectClose(a + b, b + a);
}

TEST_P(OpsAlgebraTest, AddAssociates) {
  Tensor a = Tensor::Randn({4}, rng_);
  Tensor b = Tensor::Randn({4}, rng_);
  Tensor c = Tensor::Randn({4}, rng_);
  ExpectClose((a + b) + c, a + (b + c));
}

TEST_P(OpsAlgebraTest, MulDistributesOverAdd) {
  Tensor a = Tensor::Randn({2, 3}, rng_);
  Tensor b = Tensor::Randn({2, 3}, rng_);
  Tensor c = Tensor::Randn({2, 3}, rng_);
  ExpectClose(a * (b + c), a * b + a * c);
}

TEST_P(OpsAlgebraTest, MatMulDistributesOverAdd) {
  Tensor a = Tensor::Randn({3, 4}, rng_);
  Tensor b = Tensor::Randn({4, 2}, rng_);
  Tensor c = Tensor::Randn({4, 2}, rng_);
  ExpectClose(ops::MatMul(a, b + c),
              ops::MatMul(a, b) + ops::MatMul(a, c), 1e-3f);
}

TEST_P(OpsAlgebraTest, DoubleNegationIsIdentity) {
  Tensor a = Tensor::Randn({7}, rng_);
  ExpectClose(-(-a), a);
}

TEST_P(OpsAlgebraTest, SoftmaxInvariantToShift) {
  Tensor a = Tensor::Randn({3, 6}, rng_);
  ExpectClose(ops::Softmax(a), ops::Softmax(a + 13.5f), 1e-5f);
}

TEST_P(OpsAlgebraTest, TransposeIsInvolution) {
  Tensor a = Tensor::Randn({4, 6}, rng_);
  ExpectClose(ops::TransposeLast2(ops::TransposeLast2(a)), a);
}

TEST_P(OpsAlgebraTest, ReshapeRoundTrip) {
  Tensor a = Tensor::Randn({3, 8}, rng_);
  ExpectClose(ops::Reshape(ops::Reshape(a, {4, 6}), {3, 8}), a);
}

TEST_P(OpsAlgebraTest, SliceConcatRoundTrip) {
  Tensor a = Tensor::Randn({5, 4}, rng_);
  Tensor left = ops::Slice(a, 1, 0, 2);
  Tensor right = ops::Slice(a, 1, 2, 4);
  ExpectClose(ops::Concat(left, right, 1), a);
}

TEST_P(OpsAlgebraTest, SumDimsAgreeWithSum) {
  Tensor a = Tensor::Randn({4, 5}, rng_);
  Tensor via_rows = ops::Sum(ops::SumDim(a, 0));
  Tensor via_cols = ops::Sum(ops::SumDim(a, 1));
  Tensor direct = ops::Sum(a);
  EXPECT_NEAR(via_rows.data()[0], direct.data()[0], 1e-3f);
  EXPECT_NEAR(via_cols.data()[0], direct.data()[0], 1e-3f);
}

TEST_P(OpsAlgebraTest, MinMaxSandwichMean) {
  Tensor a = Tensor::Randn({3, 9}, rng_);
  Tensor lo = -ops::MaxDim(-a, 1);
  Tensor mid = ops::SumDim(a, 1) * (1.0f / 9.0f);
  Tensor hi = ops::MaxDim(a, 1);
  for (int64_t i = 0; i < lo.numel(); ++i) {
    EXPECT_LE(lo.data()[i], mid.data()[i] + 1e-6f);
    EXPECT_LE(mid.data()[i], hi.data()[i] + 1e-6f);
  }
}

TEST_P(OpsAlgebraTest, LayerNormOutputIsStandardised) {
  Tensor x = Tensor::Randn({4, 16}, rng_, 3.0f);
  Tensor y = ops::LayerNorm(x, Tensor::Ones({16}), Tensor::Zeros({16}));
  for (int64_t r = 0; r < 4; ++r) {
    double mean = 0, var = 0;
    for (int64_t c = 0; c < 16; ++c) mean += y.at({r, c});
    mean /= 16.0;
    for (int64_t c = 0; c < 16; ++c) {
      var += (y.at({r, c}) - mean) * (y.at({r, c}) - mean);
    }
    var /= 16.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpsAlgebraTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace stisan
