#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.h"
#include "tensor/tensor.h"

// ASan and TSan bring their own allocator; glibc's heap statistics then
// describe a heap the program does not use.
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#include <malloc.h>
#define STISAN_GLIBC_HEAP 1
#endif

namespace stisan {
namespace {

TEST(TensorTest, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.shape(), (Shape{2, 3}));
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(TensorTest, FullAndOnes) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.data()[i], 2.5f);
  Tensor o = Tensor::Ones({2, 2});
  EXPECT_EQ(o.at({1, 1}), 1.0f);
}

TEST(TensorTest, FromVectorAndAt) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_EQ(t.at({0, 1}), 2.0f);
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  t.set({1, 1}, 9.0f);
  EXPECT_EQ(t.at({1, 1}), 9.0f);
}

TEST(TensorTest, NegativeSizeIndexing) {
  Tensor t = Tensor::Zeros({2, 3, 4});
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.size(-3), 2);
}

TEST(TensorTest, RandnStats) {
  Rng rng(1);
  Tensor t = Tensor::Randn({10000}, rng, 2.0f);
  double sum = 0, sq = 0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    sum += t.data()[i];
    sq += double(t.data()[i]) * t.data()[i];
  }
  EXPECT_NEAR(sum / t.numel(), 0.0, 0.1);
  EXPECT_NEAR(sq / t.numel(), 4.0, 0.3);
}

TEST(TensorTest, XavierBounds) {
  Rng rng(2);
  Tensor t = Tensor::XavierUniform(64, 64, rng);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t.data()[i], -bound);
    EXPECT_LE(t.data()[i], bound);
  }
  EXPECT_TRUE(t.requires_grad());
}

TEST(TensorTest, DetachSharesNothing) {
  Tensor a = Tensor::Ones({2}, /*requires_grad=*/true);
  Tensor d = a.Detach();
  EXPECT_FALSE(d.requires_grad());
  d.data()[0] = 5.0f;
  EXPECT_EQ(a.data()[0], 1.0f);
}

TEST(TensorTest, CopyIsShallow) {
  Tensor a = Tensor::Ones({2});
  Tensor b = a;
  b.data()[0] = 3.0f;
  EXPECT_EQ(a.data()[0], 3.0f);
}

// ---- Zero-copy views -----------------------------------------------------------

TEST(TensorView, ReshapeSharesStorage) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = ops::Reshape(a, {3, 2});
  EXPECT_EQ(r.storage_data(), a.storage_data());
  EXPECT_TRUE(r.IsContiguous());
  EXPECT_EQ(r.at({2, 1}), 6.0f);
}

TEST(TensorView, SliceDim0IsContiguousOffsetView) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor s = ops::Slice(a, 0, 1, 3);
  EXPECT_EQ(s.storage_data(), a.storage_data());
  EXPECT_TRUE(s.IsContiguous());
  EXPECT_EQ(s.data(), a.data() + 2);  // offset past the first row
  EXPECT_EQ(s.at({0, 0}), 3.0f);
}

TEST(TensorView, SliceInnerDimIsNonContiguousView) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = ops::Slice(a, 1, 1, 3);
  EXPECT_EQ(s.storage_data(), a.storage_data());
  EXPECT_FALSE(s.IsContiguous());
  EXPECT_EQ(s.ToVector(), (std::vector<float>{2, 3, 5, 6}));
}

TEST(TensorView, TransposeSharesStorageAndSwapsStrides) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = ops::TransposeLast2(a);
  EXPECT_EQ(t.storage_data(), a.storage_data());
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.strides(), (std::vector<int64_t>{1, 3}));
  EXPECT_FALSE(t.IsContiguous());
  EXPECT_EQ(t.ToVector(), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(TensorView, ContiguousOnContiguousIsIdentity) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor c = a.Contiguous();
  EXPECT_EQ(c.storage_data(), a.storage_data());
  // A non-contiguous view materialises into fresh storage.
  Tensor t = ops::TransposeLast2(a).Contiguous();
  EXPECT_NE(t.storage_data(), a.storage_data());
  EXPECT_TRUE(t.IsContiguous());
  EXPECT_EQ(t.ToVector(), (std::vector<float>{1, 3, 2, 4}));
}

TEST(TensorView, ViewReflectsBaseMutation) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor t = ops::TransposeLast2(a);
  a.set({0, 1}, 9.0f);
  EXPECT_EQ(t.at({1, 0}), 9.0f);
}

TEST(TensorView, ChainedViewsShareStorage) {
  Tensor a = Tensor::FromVector({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor v = ops::Slice(ops::TransposeLast2(ops::Reshape(a, {2, 4})), 0, 1, 3);
  EXPECT_EQ(v.storage_data(), a.storage_data());
  EXPECT_EQ(v.shape(), (Shape{2, 2}));
  EXPECT_EQ(v.ToVector(), (std::vector<float>{2, 6, 3, 7}));
}

TEST(TensorView, OverlappingSliceGradsAccumulateInBase) {
  // loss = sum(a[0:3]) + sum(a[1:4]) -> da = {1, 2, 2, 1}: the two views
  // write into the same storage-wide grad buffer.
  Tensor a = Tensor::FromVector({4}, {1, 2, 3, 4}, /*requires_grad=*/true);
  Tensor loss = ops::Sum(ops::Slice(a, 0, 0, 3)) + ops::Sum(ops::Slice(a, 0, 1, 4));
  loss.Backward();
  const float* g = a.grad_data();
  EXPECT_EQ(g[0], 1.0f);
  EXPECT_EQ(g[1], 2.0f);
  EXPECT_EQ(g[2], 2.0f);
  EXPECT_EQ(g[3], 1.0f);
}

TEST(TensorView, DataOnNonContiguousViewIsRejected) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor t = ops::TransposeLast2(a);
  EXPECT_DEATH((void)t.data(), "contiguous");
}

// ---- Forward values ------------------------------------------------------------

TEST(OpsForward, AddSameShape) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c = a + b;
  EXPECT_EQ(c.ToVector(), (std::vector<float>{11, 22, 33}));
}

TEST(OpsForward, BroadcastRowVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c = a + b;
  EXPECT_EQ(c.ToVector(), (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(OpsForward, BroadcastColumn) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({2, 1}, {100, 200});
  Tensor c = a + b;
  EXPECT_EQ(c.ToVector(), (std::vector<float>{101, 102, 103, 204, 205, 206}));
}

TEST(OpsForward, MulDivSub) {
  Tensor a = Tensor::FromVector({2}, {6, 8});
  Tensor b = Tensor::FromVector({2}, {2, 4});
  EXPECT_EQ((a * b).ToVector(), (std::vector<float>{12, 32}));
  EXPECT_EQ((a - b).ToVector(), (std::vector<float>{4, 4}));
}

TEST(OpsForward, ScalarOps) {
  Tensor a = Tensor::FromVector({2}, {1, -2});
  EXPECT_EQ((a + 1.0f).ToVector(), (std::vector<float>{2, -1}));
  EXPECT_EQ((a * 3.0f).ToVector(), (std::vector<float>{3, -6}));
  EXPECT_EQ((-a).ToVector(), (std::vector<float>{-1, 2}));
}

TEST(OpsForward, MatMul2D) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(OpsForward, MatMulBatched) {
  Tensor a = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2, 1}, {5, 6, 7, 8});
  Tensor c = ops::MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 1, 1}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{17, 53}));
}

TEST(OpsForward, MatMul3Dx2D) {
  Tensor a = Tensor::FromVector({2, 2, 2}, {1, 0, 0, 1, 2, 0, 0, 2});
  Tensor b = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor c = ops::MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{1, 2, 3, 4, 2, 4, 6, 8}));
}

TEST(OpsForward, TransposeLast2) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = ops::TransposeLast2(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.ToVector(), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(OpsForward, TransposeBatched) {
  Tensor a = Tensor::FromVector({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor t = ops::TransposeLast2(a);
  EXPECT_EQ(t.ToVector(), (std::vector<float>{1, 3, 2, 4, 5, 7, 6, 8}));
}

TEST(OpsForward, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor s = ops::Softmax(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) sum += s.at({r, c});
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  // Monotone in logits.
  EXPECT_LT(s.at({0, 0}), s.at({0, 2}));
}

TEST(OpsForward, SoftmaxStableWithLargeLogits) {
  Tensor a = Tensor::FromVector({1, 2}, {1000.0f, 1000.0f});
  Tensor s = ops::Softmax(a);
  EXPECT_NEAR(s.at({0, 0}), 0.5f, 1e-6f);
}

TEST(OpsForward, SoftmaxWithNegInfMask) {
  Tensor a = Tensor::FromVector({1, 3}, {0.0f, -1e9f, 0.0f});
  Tensor s = ops::Softmax(a);
  EXPECT_NEAR(s.at({0, 0}), 0.5f, 1e-6f);
  EXPECT_NEAR(s.at({0, 1}), 0.0f, 1e-9f);
}

TEST(OpsForward, UnaryValues) {
  Tensor a = Tensor::FromVector({3}, {-1, 0, 2});
  EXPECT_EQ(ops::Relu(a).ToVector(), (std::vector<float>{0, 0, 2}));
  EXPECT_NEAR(ops::Sigmoid(a).ToVector()[2], 1.0f / (1.0f + std::exp(-2.0f)),
              1e-6f);
  EXPECT_NEAR(ops::Tanh(a).ToVector()[0], std::tanh(-1.0f), 1e-6f);
}

TEST(OpsForward, LogSigmoidStable) {
  Tensor a = Tensor::FromVector({2}, {-100.0f, 100.0f});
  auto v = ops::LogSigmoid(a).ToVector();
  EXPECT_NEAR(v[0], -100.0f, 1e-4f);
  EXPECT_NEAR(v[1], 0.0f, 1e-6f);
}

TEST(OpsForward, SumMean) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(ops::Sum(a).ToVector()[0], 10.0f);
}

TEST(OpsForward, SumDim) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s0 = ops::SumDim(a, 0);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_EQ(s0.ToVector(), (std::vector<float>{5, 7, 9}));
  Tensor s1 = ops::SumDim(a, 1, /*keepdim=*/true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_EQ(s1.ToVector(), (std::vector<float>{6, 15}));
}

TEST(OpsForward, MaxDim) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 5, 3, 7, 2, 6});
  Tensor m = ops::MaxDim(a, 1);
  EXPECT_EQ(m.ToVector(), (std::vector<float>{5, 7}));
  Tensor m0 = ops::MaxDim(a, 0);
  EXPECT_EQ(m0.ToVector(), (std::vector<float>{7, 5, 6}));
}

TEST(OpsForward, Reshape) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = ops::Reshape(a, {3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_EQ(r.ToVector(), a.ToVector());
}

TEST(OpsForward, ConcatLastDim) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 1}, {9, 10});
  Tensor c = ops::Concat(a, b, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{1, 2, 9, 3, 4, 10}));
}

TEST(OpsForward, ConcatDim0) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = ops::Concat(a, b, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{1, 2, 3, 4, 5, 6}));
}

TEST(OpsForward, Slice) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor s = ops::Slice(a, 0, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.ToVector(), (std::vector<float>{3, 4, 5, 6}));
  Tensor c = ops::Slice(a, 1, 0, 1);
  EXPECT_EQ(c.ToVector(), (std::vector<float>{1, 3, 5}));
}

TEST(OpsForward, Stack0) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = Tensor::FromVector({2}, {3, 4});
  Tensor s = ops::Stack0({a, b});
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.ToVector(), (std::vector<float>{1, 2, 3, 4}));
}

TEST(OpsForward, Unfold1D) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor u = ops::Unfold1D(a, 2);
  EXPECT_EQ(u.shape(), (Shape{2, 4}));
  EXPECT_EQ(u.ToVector(), (std::vector<float>{1, 2, 3, 4, 3, 4, 5, 6}));
}

TEST(OpsForward, EmbeddingLookup) {
  Tensor w = Tensor::FromVector({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor e = ops::EmbeddingLookup(w, {2, 0, 2});
  EXPECT_EQ(e.shape(), (Shape{3, 2}));
  EXPECT_EQ(e.ToVector(), (std::vector<float>{20, 21, 0, 1, 20, 21}));
}

TEST(OpsForward, EmbeddingPaddingIsZero) {
  Tensor w = Tensor::FromVector({2, 2}, {5, 5, 7, 7});
  Tensor e = ops::EmbeddingLookup(w, {0, 1}, /*padding_idx=*/0);
  EXPECT_EQ(e.ToVector(), (std::vector<float>{0, 0, 7, 7}));
}

TEST(OpsForward, LayerNormNormalises) {
  Tensor x = Tensor::FromVector({2, 4}, {1, 2, 3, 4, 10, 10, 10, 10});
  Tensor gamma = Tensor::Ones({4});
  Tensor beta = Tensor::Zeros({4});
  Tensor y = ops::LayerNorm(x, gamma, beta);
  // Row 0: mean 2.5, normalized values sum to ~0.
  float sum = 0;
  for (int c = 0; c < 4; ++c) sum += y.at({0, c});
  EXPECT_NEAR(sum, 0.0f, 1e-5f);
  // Constant row maps to ~0 everywhere.
  for (int c = 0; c < 4; ++c) EXPECT_NEAR(y.at({1, c}), 0.0f, 1e-3f);
}

TEST(OpsForward, LayerNormAffine) {
  Tensor x = Tensor::FromVector({1, 2}, {0, 2});
  Tensor gamma = Tensor::FromVector({2}, {2, 2});
  Tensor beta = Tensor::FromVector({2}, {1, 1});
  Tensor y = ops::LayerNorm(x, gamma, beta);
  // Normalised row is {-1, +1}; affine -> {-1, 3}.
  EXPECT_NEAR(y.at({0, 0}), -1.0f, 1e-3f);
  EXPECT_NEAR(y.at({0, 1}), 3.0f, 1e-3f);
}

TEST(OpsForward, DropoutEvalIsIdentity) {
  Rng rng(3);
  Tensor a = Tensor::FromVector({4}, {1, 2, 3, 4});
  Tensor d = ops::Dropout(a, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(d.ToVector(), a.ToVector());
}

TEST(OpsForward, DropoutTrainZeroesAndScales) {
  Rng rng(3);
  Tensor a = Tensor::Ones({10000});
  Tensor d = ops::Dropout(a, 0.5f, rng, /*training=*/true);
  int zeros = 0;
  double sum = 0;
  for (int64_t i = 0; i < d.numel(); ++i) {
    if (d.data()[i] == 0.0f)
      ++zeros;
    else
      EXPECT_NEAR(d.data()[i], 2.0f, 1e-6f);
    sum += d.data()[i];
  }
  EXPECT_NEAR(zeros / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);  // expectation preserved
}

// ---- Backward basics (exact analytic cases) ---------------------------------------

TEST(Backward, AddGradIsOne) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3}, /*requires_grad=*/true);
  Tensor loss = ops::Sum(a + a);
  loss.Backward();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(a.grad_data()[i], 2.0f);
}

TEST(Backward, MulGradIsOtherOperand) {
  Tensor a = Tensor::FromVector({2}, {3, 4}, true);
  Tensor b = Tensor::FromVector({2}, {5, 6}, true);
  ops::Sum(a * b).Backward();
  EXPECT_EQ(a.grad_data()[0], 5.0f);
  EXPECT_EQ(a.grad_data()[1], 6.0f);
  EXPECT_EQ(b.grad_data()[0], 3.0f);
}

TEST(Backward, BroadcastGradReduces) {
  Tensor a = Tensor::Ones({2, 3}).SetRequiresGrad(true);
  Tensor b = Tensor::Ones({3}).SetRequiresGrad(true);
  ops::Sum(a + b).Backward();
  // b participates in 2 rows -> grad 2 per element.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(b.grad_data()[i], 2.0f);
}

TEST(Backward, MatMulGrad) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2}, true);
  Tensor b = Tensor::FromVector({2, 1}, {3, 4}, true);
  ops::Sum(ops::MatMul(a, b)).Backward();
  EXPECT_EQ(a.grad_data()[0], 3.0f);
  EXPECT_EQ(a.grad_data()[1], 4.0f);
  EXPECT_EQ(b.grad_data()[0], 1.0f);
  EXPECT_EQ(b.grad_data()[1], 2.0f);
}

TEST(Backward, DiamondGraphAccumulates) {
  // loss = sum(a*a) + sum(a) -> grad = 2a + 1
  Tensor a = Tensor::FromVector({2}, {3, -1}, true);
  Tensor loss = ops::Sum(a * a) + ops::Sum(a);
  loss.Backward();
  EXPECT_EQ(a.grad_data()[0], 7.0f);
  EXPECT_EQ(a.grad_data()[1], -1.0f);
}

TEST(Backward, ReusedTensorAccumulates) {
  Tensor a = Tensor::FromVector({1}, {2}, true);
  Tensor loss = ops::Sum(a * a * a);  // a^3 -> 3 a^2 = 12
  loss.Backward();
  EXPECT_NEAR(a.grad_data()[0], 12.0f, 1e-5f);
}

TEST(Backward, EmbeddingScatterAdd) {
  Tensor w = Tensor::FromVector({3, 1}, {1, 2, 3}, true);
  Tensor e = ops::EmbeddingLookup(w, {1, 1, 2});
  ops::Sum(e).Backward();
  EXPECT_EQ(w.grad_data()[0], 0.0f);
  EXPECT_EQ(w.grad_data()[1], 2.0f);
  EXPECT_EQ(w.grad_data()[2], 1.0f);
}

TEST(Backward, PaddingIdxReceivesNoGrad) {
  Tensor w = Tensor::FromVector({2, 1}, {1, 2}, true);
  Tensor e = ops::EmbeddingLookup(w, {0, 1}, /*padding_idx=*/0);
  ops::Sum(e).Backward();
  EXPECT_EQ(w.grad_data()[0], 0.0f);
  EXPECT_EQ(w.grad_data()[1], 1.0f);
}

TEST(Backward, NoGradGuardStopsRecording) {
  Tensor a = Tensor::FromVector({1}, {2}, true);
  Tensor out;
  {
    NoGradGuard guard;
    out = a * a;
  }
  EXPECT_FALSE(out.requires_grad());
}

TEST(Backward, DetachBlocksFlow) {
  Tensor a = Tensor::FromVector({1}, {2}, true);
  Tensor b = a * 3.0f;
  Tensor loss = ops::Sum(b.Detach() * a);
  loss.Backward();
  // d/da [6 * a] = 6 (no flow through detached factor).
  EXPECT_NEAR(a.grad_data()[0], 6.0f, 1e-6f);
}

TEST(Backward, ScalarChainRule) {
  Tensor a = Tensor::FromVector({1}, {0.5f}, true);
  Tensor loss = ops::Sum(ops::Sigmoid(a * 2.0f));
  loss.Backward();
  const float s = 1.0f / (1.0f + std::exp(-1.0f));
  EXPECT_NEAR(a.grad_data()[0], 2.0f * s * (1 - s), 1e-5f);
}

// A training window frees its whole tape at once. The buffers must come
// from the heap and stay there when freed, so the next window reuses them
// instead of faulting fresh pages in.
TEST(TensorHeap, FreedTapeBuffersStayInTheHeap) {
#if defined(STISAN_GLIBC_HEAP)
  const int64_t n = int64_t{4} << 20;  // 16 MiB, far above glibc's default mmap threshold
  const struct mallinfo2 before = mallinfo2();
  size_t live_arena = 0;
  {
    Tensor t = Tensor::Zeros({n});
    const struct mallinfo2 live = mallinfo2();
    EXPECT_EQ(live.hblks, before.hblks) << "the buffer was mmap'd";
    EXPECT_GE(live.arena, static_cast<size_t>(n) * sizeof(float));
    live_arena = live.arena;
  }
  EXPECT_EQ(mallinfo2().arena, live_arena) << "the freed buffer was trimmed from the heap";
#else
  GTEST_SKIP() << "needs glibc's own heap";
#endif
}

}  // namespace
}  // namespace stisan
