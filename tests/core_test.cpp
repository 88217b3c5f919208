// Tests for the paper's core components: TAPE (eq. 2-3), the relation
// matrix (eq. 4), IAAB (eq. 5-9), TAAD (eq. 10) and the geography encoder.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/geo_encoder.h"
#include "core/iaab.h"
#include "core/relation.h"
#include "core/stisan.h"
#include "core/taad.h"
#include "core/tape.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"

namespace stisan::core {
namespace {

// ---- TAPE ------------------------------------------------------------------

TEST(TapeTest, PaperRunningExample) {
  // Fig. 1 / §III-C: intervals 0.5h, 3h, 3h, 4h (mean 2.625h)... verify the
  // recurrence directly with easy numbers: dt = {1, 3} hours, mean = 2.
  std::vector<double> t = {0, 3600, 4 * 3600.0};
  auto pos = TimeAwarePositions(t);
  EXPECT_DOUBLE_EQ(pos[0], 1.0);
  EXPECT_DOUBLE_EQ(pos[1], 1.0 + 0.5 + 1.0);   // dt/mean = 1/2
  EXPECT_DOUBLE_EQ(pos[2], 2.5 + 1.5 + 1.0);   // dt/mean = 3/2
}

TEST(TapeTest, UniformIntervalsReduceToIntegerSpacing) {
  std::vector<double> t = {0, 100, 200, 300};
  auto pos = TimeAwarePositions(t);
  for (size_t k = 1; k < pos.size(); ++k) {
    EXPECT_NEAR(pos[k] - pos[k - 1], 2.0, 1e-12);  // dt/mean + 1 = 2
  }
}

TEST(TapeTest, ConstantTimestampsDegradeToVanilla) {
  std::vector<double> t = {5, 5, 5, 5};
  auto pos = TimeAwarePositions(t);
  for (size_t k = 0; k < pos.size(); ++k) {
    EXPECT_DOUBLE_EQ(pos[k], double(k + 1));
  }
}

TEST(TapeTest, PositionsStrictlyIncreasing) {
  std::vector<double> t = {0, 10, 10, 500, 501, 10000};
  auto pos = TimeAwarePositions(t);
  for (size_t k = 1; k < pos.size(); ++k) {
    EXPECT_GT(pos[k], pos[k - 1]);  // the "+1" guarantees monotonicity
  }
}

TEST(TapeTest, NonMonotoneTimestampsClampInsteadOfAborting) {
  // Real check-in logs contain clock skew and out-of-order records; pre-fix
  // a single negative gap hard-aborted the whole run via CHECK_GE(dt, 0).
  obs::Counter& clamped = obs::GetCounter("tape/negative_gaps_clamped");
  const uint64_t before = clamped.Get();
  std::vector<double> t = {0, 100, 50, 150};  // t[2] < t[1]
  auto pos = TimeAwarePositions(t);
  EXPECT_EQ(clamped.Get() - before, 1u);  // counted exactly once
  ASSERT_EQ(pos.size(), 4u);
  for (size_t k = 1; k < pos.size(); ++k) {
    EXPECT_GT(pos[k], pos[k - 1]);  // monotone positions survive the clamp
  }
  // Clamping the gap to zero in both the mean and the recurrence makes the
  // result bit-identical to the sequence rebuilt from the clamped gaps
  // {100, 0, 100}.
  auto expect = TimeAwarePositions({0, 100, 100, 200});
  for (size_t k = 0; k < pos.size(); ++k) {
    EXPECT_DOUBLE_EQ(pos[k], expect[k]);
  }
}

TEST(TapeTest, PaddingPrefixAdvancesByOne) {
  std::vector<double> t = {100, 100, 100, 200, 300};  // first_real = 2
  auto pos = TimeAwarePositions(t, /*first_real=*/2);
  EXPECT_DOUBLE_EQ(pos[1] - pos[0], 1.0);
  EXPECT_DOUBLE_EQ(pos[2] - pos[1], 1.0);
  EXPECT_GT(pos[4], pos[3]);
}

TEST(TapeTest, DistinguishesSameSequenceDifferentRhythm) {
  // The paper's motivating claim: same POIs, different intervals => different
  // positional encodings (and thus distinguishable representations).
  Tensor x = Tensor::Zeros({3, 8});
  Tensor a = ApplyTape(x, {0, 1000, 8000});
  Tensor b = ApplyTape(x, {0, 7000, 8000});
  float diff = 0;
  for (int64_t i = 0; i < a.numel(); ++i)
    diff += std::fabs(a.data()[i] - b.data()[i]);
  EXPECT_GT(diff, 0.1f);
}

TEST(TapeTest, AddsNoParameters) {
  // TAPE is a pure function of timestamps: the claim "no extra parameters".
  Tensor x = Tensor::Zeros({4, 8}, /*requires_grad=*/true);
  Tensor out = ApplyTape(x, {0, 10, 20, 40});
  ops::Sum(out).Backward();
  // Gradient wrt x is exactly 1 (additive encoding only).
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(x.grad_data()[i], 1.0f);
  }
}

// ---- Relation matrix ----------------------------------------------------------

class RelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pois_ = {1, 2, 3};
    // 1 day apart each; 0 km, ~11 km apart.
    t_ = {0.0, 86400.0, 2 * 86400.0};
    coords_ = {{43.0, 125.0}, {43.0, 125.0}, {43.1, 125.0}};
  }
  std::vector<int64_t> pois_;
  std::vector<double> t_;
  std::vector<geo::GeoPoint> coords_;
};

TEST_F(RelationTest, LowerTriangular) {
  Tensor r = BuildRelationMatrix(pois_, t_, coords_, 0, {});
  EXPECT_EQ(r.shape(), (Shape{3, 3}));
  EXPECT_EQ(r.at({0, 1}), 0.0f);
  EXPECT_EQ(r.at({0, 2}), 0.0f);
  EXPECT_EQ(r.at({1, 2}), 0.0f);
}

TEST_F(RelationTest, CloserPairsGetHigherRelation) {
  Tensor r = BuildRelationMatrix(pois_, t_, coords_, 0, {});
  // (1,0): 1 day + 0 km. (2,0): 2 days + ~11 km. So r_10 > r_20.
  EXPECT_GT(r.at({1, 0}), r.at({2, 0}));
  // Diagonal has interval zero -> max relation.
  EXPECT_GE(r.at({0, 0}), r.at({1, 0}));
  EXPECT_EQ(r.at({0, 0}), r.at({1, 1}));
}

TEST_F(RelationTest, ClippingCapsIntervals) {
  RelationOptions tight{.kt_days = 0.5, .kd_km = 1.0};
  Tensor r = BuildRelationMatrix(pois_, t_, coords_, 0, tight);
  // Both (1,0) and (2,0) are clipped to (0.5 + clip_d): (1,0) has 0 km,
  // (2,0) has 1 km (clipped from 11). Max r_hat = 1.5.
  EXPECT_NEAR(r.at({1, 0}), 1.0f, 1e-5f);   // 1.5 - 0.5
  EXPECT_NEAR(r.at({2, 0}), 0.0f, 1e-5f);   // 1.5 - 1.5
}

TEST_F(RelationTest, ZeroThresholdsGiveAllZeros) {
  // Fig. 9's degenerate case: k_t = k_d = 0 disables IAAB (uniform rows
  // after softmax).
  RelationOptions zero{.kt_days = 0.0, .kd_km = 0.0};
  Tensor r = BuildRelationMatrix(pois_, t_, coords_, 0, zero);
  for (int64_t i = 0; i < r.numel(); ++i) EXPECT_EQ(r.data()[i], 0.0f);
  Tensor scaled = SoftmaxScaleRelation(r, 0);
  // Row 2: three equal entries -> 1/3 each.
  EXPECT_NEAR(scaled.at({2, 0}), 1.0f / 3.0f, 1e-5f);
}

TEST_F(RelationTest, SoftmaxRowsSumToOne) {
  Tensor r = BuildRelationMatrix(pois_, t_, coords_, 0, {});
  Tensor s = SoftmaxScaleRelation(r, 0);
  for (int64_t i = 0; i < 3; ++i) {
    float sum = 0;
    for (int64_t j = 0; j < 3; ++j) {
      sum += s.at({i, j});
      if (j > i) {
        EXPECT_EQ(s.at({i, j}), 0.0f);
      }
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST_F(RelationTest, PaddingPairsExcluded) {
  Tensor r = BuildRelationMatrix({0, 1, 2}, {0, 0, 86400},
                                 {{0, 0}, {43, 125}, {43, 125}}, 1, {});
  EXPECT_EQ(r.at({1, 0}), 0.0f);
  EXPECT_EQ(r.at({2, 0}), 0.0f);
  Tensor s = SoftmaxScaleRelation(r, 1);
  // Padding row 0 attends itself only.
  EXPECT_NEAR(s.at({0, 0}), 1.0f, 1e-6f);
  EXPECT_EQ(s.at({1, 0}), 0.0f);  // padding key gets 0 weight
}

TEST(PaddedMaskTest, Structure) {
  Tensor m = BuildPaddedCausalMask(4, 2);
  // Row 3 can see columns 2 and 3 only.
  EXPECT_EQ(m.at({3, 0}), -1e9f);
  EXPECT_EQ(m.at({3, 1}), -1e9f);
  EXPECT_EQ(m.at({3, 2}), 0.0f);
  EXPECT_EQ(m.at({3, 3}), 0.0f);
  // Causal: row 2 cannot see column 3.
  EXPECT_EQ(m.at({2, 3}), -1e9f);
  // Padding row 0 keeps self visible (avoids NaN softmax rows).
  EXPECT_EQ(m.at({0, 0}), 0.0f);
  EXPECT_EQ(m.at({1, 0}), -1e9f);
  EXPECT_EQ(m.at({1, 1}), 0.0f);
}

// ---- IAAB ------------------------------------------------------------------------

class IaabTest : public ::testing::Test {
 protected:
  IaabTest() : rng_(42) {}
  Rng rng_;
};

TEST_F(IaabTest, ForwardShapesAllModes) {
  for (auto mode : {AttentionMode::kIntervalAware, AttentionMode::kVanilla,
                    AttentionMode::kRelationOnly}) {
    IaabOptions opts{.dim = 8, .ffn_hidden = 16, .dropout = 0.0f,
                     .mode = mode};
    IntervalAwareAttentionBlock block(opts, rng_);
    Tensor x = Tensor::Randn({4, 8}, rng_);
    Tensor rel = SoftmaxScaleRelation(Tensor::Zeros({4, 4}), 0);
    Tensor mask = BuildPaddedCausalMask(4, 0);
    EXPECT_EQ(block.Forward(x, rel, mask, rng_).shape(), (Shape{4, 8}));
  }
}

TEST_F(IaabTest, RelationBiasChangesAttention) {
  IaabOptions opts{.dim = 8, .ffn_hidden = 16, .dropout = 0.0f,
                   .mode = AttentionMode::kIntervalAware};
  IntervalAwareAttentionBlock block(opts, rng_);
  Tensor x = Tensor::Randn({4, 8}, rng_);
  Tensor mask = BuildPaddedCausalMask(4, 0);
  Tensor uniform = SoftmaxScaleRelation(Tensor::Zeros({4, 4}), 0);
  // A relation strongly favouring column 0.
  Tensor strong_raw = Tensor::Zeros({4, 4});
  for (int64_t i = 0; i < 4; ++i) strong_raw.set({i, 0}, 30.0f);
  Tensor strong = SoftmaxScaleRelation(strong_raw, 0);
  Tensor map_u = block.AttentionMap(x, uniform, mask);
  Tensor map_s = block.AttentionMap(x, strong, mask);
  EXPECT_GT(map_s.at({3, 0}), map_u.at({3, 0}));
}

TEST_F(IaabTest, RelationOnlyIgnoresQueries) {
  // In kRelationOnly mode the attention map IS the scaled relation.
  IaabOptions opts{.dim = 8, .ffn_hidden = 16, .dropout = 0.0f,
                   .mode = AttentionMode::kRelationOnly};
  IntervalAwareAttentionBlock block(opts, rng_);
  Tensor x = Tensor::Randn({4, 8}, rng_);
  Tensor rel = SoftmaxScaleRelation(Tensor::Zeros({4, 4}), 0);
  Tensor mask = BuildPaddedCausalMask(4, 0);
  Tensor map = block.AttentionMap(x, rel, mask);
  for (int64_t i = 0; i < map.numel(); ++i) {
    EXPECT_EQ(map.data()[i], rel.data()[i]);
  }
}

TEST_F(IaabTest, EncoderStacksAndNormalises) {
  IaabOptions opts{.dim = 8, .ffn_hidden = 16, .dropout = 0.0f,
                   .mode = AttentionMode::kIntervalAware};
  IaabEncoder encoder(opts, 3, rng_);
  EXPECT_EQ(encoder.num_blocks(), 3);
  Tensor x = Tensor::Randn({4, 8}, rng_);
  Tensor rel = SoftmaxScaleRelation(Tensor::Zeros({4, 4}), 0);
  Tensor mask = BuildPaddedCausalMask(4, 0);
  Tensor out = encoder.Forward(x, rel, mask, rng_);
  EXPECT_EQ(out.shape(), (Shape{4, 8}));
  auto maps = encoder.AttentionMaps(x, rel, mask, rng_);
  EXPECT_EQ(maps.size(), 3u);
}

TEST_F(IaabTest, GradientsReachAllParameters) {
  IaabOptions opts{.dim = 8, .ffn_hidden = 16, .dropout = 0.0f,
                   .mode = AttentionMode::kIntervalAware};
  IaabEncoder encoder(opts, 2, rng_);
  Tensor x = Tensor::Randn({4, 8}, rng_);
  Tensor rel = SoftmaxScaleRelation(Tensor::Zeros({4, 4}), 0);
  Tensor mask = BuildPaddedCausalMask(4, 0);
  Tensor out = encoder.Forward(x, rel, mask, rng_);
  ops::Sum(ops::Square(out)).Backward();
  int64_t with_grad = 0;
  for (auto& p : encoder.Parameters()) {
    if (p.has_grad()) {
      float norm = 0;
      for (int64_t i = 0; i < p.numel(); ++i)
        norm += std::fabs(p.grad_data()[i]);
      if (norm > 0) ++with_grad;
    }
  }
  // With ReZero gates at 0 the FFN branches are inert at initialisation,
  // so some parameters legitimately see zero gradient on the first pass;
  // still, a healthy share (attention path, norms, gates) must train.
  EXPECT_GE(with_grad,
            static_cast<int64_t>(encoder.Parameters().size()) / 3);
}

// ---- TAAD ----------------------------------------------------------------------

TEST(TaadTest, OutputShapeAndMasking) {
  Rng rng(3);
  Tensor f = Tensor::Randn({5, 8}, rng);
  Tensor c = Tensor::Randn({6, 8}, rng);
  std::vector<int64_t> steps = {0, 0, 2, 2, 4, 4};
  Tensor s = TaadDecode(c, f, steps, 0);
  EXPECT_EQ(s.shape(), (Shape{6, 8}));
}

TEST(TaadTest, StepZeroSeesOnlyFirstState) {
  Rng rng(4);
  Tensor f = Tensor::Randn({4, 8}, rng);
  Tensor c = Tensor::Randn({1, 8}, rng);
  Tensor s = TaadDecode(c, f, {0}, 0);
  // With only one visible key the output equals that key's state.
  for (int64_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(s.at({0, j}), f.at({0, j}), 1e-5f);
  }
}

TEST(TaadTest, DifferentCandidatesDifferentPreferences) {
  Rng rng(5);
  Tensor f = Tensor::Randn({4, 8}, rng);
  Tensor c = Tensor::Randn({2, 8}, rng);
  Tensor s = TaadDecode(c, f, {3, 3}, 0);
  float diff = 0;
  for (int64_t j = 0; j < 8; ++j)
    diff += std::fabs(s.at({0, j}) - s.at({1, j}));
  EXPECT_GT(diff, 1e-4f);  // target-aware: representation depends on target
}

TEST(TaadTest, MatchScoresAreRowDots) {
  Tensor s = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor c = Tensor::FromVector({2, 3}, {1, 0, 1, 0, 1, 0});
  Tensor y = MatchScores(s, c);
  EXPECT_EQ(y.shape(), (Shape{2}));
  EXPECT_EQ(y.ToVector(), (std::vector<float>{4, 5}));
}

// ---- Geography encoder ---------------------------------------------------------

class GeoEncoderTest : public ::testing::Test {
 protected:
  GeoEncoderTest()
      : ds_(data::GenerateSynthetic(data::GowallaLikeConfig(0.05))),
        rng_(9) {}
  data::Dataset ds_;
  Rng rng_;
};

TEST_F(GeoEncoderTest, ShapesAndPadding) {
  GeoEncoder enc(ds_, {.dim = 8, .quadkey_level = 17, .ngram = 6}, rng_);
  Tensor out = enc.Forward({data::kPaddingPoi, 1, 2});
  EXPECT_EQ(out.shape(), (Shape{3, 8}));
  for (int64_t j = 0; j < 8; ++j) EXPECT_EQ(out.at({0, j}), 0.0f);
}

TEST_F(GeoEncoderTest, NearbyPoisGetSimilarEncodings) {
  GeoEncoder enc(ds_, {.dim = 8, .quadkey_level = 17, .ngram = 6}, rng_);
  // Find the two nearest and two farthest POIs from POI 1.
  int64_t nearest = -1, farthest = -1;
  double dn = 1e18, df = -1;
  for (int64_t p = 2; p <= ds_.num_pois(); ++p) {
    const double d =
        geo::HaversineKm(ds_.poi_location(1), ds_.poi_location(p));
    if (d < dn) {
      dn = d;
      nearest = p;
    }
    if (d > df) {
      df = d;
      farthest = p;
    }
  }
  Tensor out = enc.Forward({1, nearest, farthest});
  float d_near = 0, d_far = 0;
  for (int64_t j = 0; j < 8; ++j) {
    d_near += std::fabs(out.at({0, j}) - out.at({1, j}));
    d_far += std::fabs(out.at({0, j}) - out.at({2, j}));
  }
  EXPECT_LT(d_near, d_far);  // shared n-grams -> similar encodings
}

TEST_F(GeoEncoderTest, GradientsReachTokenTable) {
  GeoEncoder enc(ds_, {.dim = 4, .quadkey_level = 12, .ngram = 4}, rng_);
  Tensor out = enc.Forward({1, 2, 3});
  ops::Sum(ops::Square(out)).Backward();
  auto params = enc.Parameters();
  ASSERT_EQ(params.size(), 1u);
  EXPECT_TRUE(params[0].has_grad());
}

// ---- Batched padded scoring: gradients -------------------------------------

// The batched eval path runs IAAB and TAAD on head-padded [B, n, d] inputs.
// These tests pin down its two gradient contracts: (a) analytic gradients of
// the whole encode->decode->match chain agree with finite differences, and
// (b) padded input rows receive *exactly* zero gradient — the -1e9 mask
// entries underflow to softmax weights of exactly 0, so padding must be
// invisible to optimisation, not merely attenuated.
class BatchedPaddingGradTest : public ::testing::Test {
 protected:
  static constexpr int64_t kBatch = 2;
  static constexpr int64_t kSeq = 4;
  static constexpr int64_t kDim = 8;
  static constexpr int64_t kCands = 3;

  void SetUp() override {
    IaabOptions opts;
    opts.dim = kDim;
    opts.ffn_hidden = 12;
    opts.dropout = 0.0f;
    encoder_ = std::make_unique<IaabEncoder>(opts, /*num_blocks=*/1, rng_);
    encoder_->SetTraining(false);  // dropout = identity, no rng draws
    first_real_ = {0, 2};          // sequence 1 is head-padded at rows 0..1
    std::vector<Tensor> masks, biases;
    for (int64_t fr : first_real_) {
      masks.push_back(BuildPaddedCausalMask(kSeq, fr));
      biases.push_back(Tensor::Randn({kSeq, kSeq}, rng_, 0.1f));
    }
    mask_ = ops::Stack0(masks);
    bias_ = ops::Stack0(biases);
  }

  Rng rng_{42};
  std::unique_ptr<IaabEncoder> encoder_;
  std::vector<int64_t> first_real_;
  Tensor mask_, bias_;
};

TEST_F(BatchedPaddingGradTest, BatchedScorePathPassesGradcheck) {
  Tensor x = Tensor::Randn({kBatch, kSeq, kDim}, rng_, 0.5f, true);
  Tensor c = Tensor::Randn({kBatch, kCands, kDim}, rng_, 0.5f, true);
  Status st = CheckGradients(
      [&] {
        Tensor f = encoder_->Forward(x, bias_, mask_, rng_);
        Tensor s = TaadDecodeBatch(c, f, first_real_);
        return ops::Sum(ops::Square(MatchScores(s, c)));
      },
      {x, c});
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_F(BatchedPaddingGradTest, PaddingRowsContributeExactlyZeroGradient) {
  Tensor x = Tensor::Randn({kBatch, kSeq, kDim}, rng_, 0.5f, true);
  Tensor c = Tensor::Randn({kBatch, kCands, kDim}, rng_, 0.5f, true);
  Tensor f = encoder_->Forward(x, bias_, mask_, rng_);
  Tensor s = TaadDecodeBatch(c, f, first_real_);
  ops::Sum(ops::Square(MatchScores(s, c))).Backward();

  ASSERT_TRUE(x.has_grad());
  const float* g = x.grad_data();
  int64_t nonzero_real = 0;
  for (int64_t b = 0; b < kBatch; ++b) {
    for (int64_t i = 0; i < kSeq; ++i) {
      for (int64_t j = 0; j < kDim; ++j) {
        const float v = g[(b * kSeq + i) * kDim + j];
        if (i < first_real_[static_cast<size_t>(b)]) {
          EXPECT_EQ(v, 0.0f) << "b=" << b << " row=" << i << " col=" << j;
        } else if (v != 0.0f) {
          ++nonzero_real;
        }
      }
    }
  }
  EXPECT_GT(nonzero_real, 0);  // the loss is not degenerate on real rows
}

TEST_F(BatchedPaddingGradTest, PaddedCandidateRowsStayIndependent) {
  // Padded candidate slots (kPaddingPoi rows appended to ragged candidate
  // lists) must not affect the gradients of real candidate rows: TAAD is
  // per-row, so zeroing a candidate row only changes that row's score.
  Tensor c = Tensor::Randn({kBatch, kCands, kDim}, rng_, 0.5f, true);
  Tensor x = Tensor::Randn({kBatch, kSeq, kDim}, rng_, 0.5f);
  Tensor f = encoder_->Forward(x, bias_, mask_, rng_);

  auto real_row_grads = [&](const Tensor& cands) {
    Tensor s = TaadDecodeBatch(cands, f, first_real_);
    ops::Sum(ops::Square(MatchScores(s, cands))).Backward();
    std::vector<float> out;
    const float* g = cands.grad_data();
    for (int64_t b = 0; b < kBatch; ++b) {
      for (int64_t m = 0; m + 1 < kCands; ++m) {  // skip the last ("pad") row
        for (int64_t j = 0; j < kDim; ++j) {
          out.push_back(g[(b * kCands + m) * kDim + j]);
        }
      }
    }
    return out;
  };

  Tensor with_pad = c.Detach().SetRequiresGrad(true);
  // Zero the final candidate row of every batch entry, as candidate padding
  // does for lists shorter than the batch-wide maximum.
  for (int64_t b = 0; b < kBatch; ++b) {
    for (int64_t j = 0; j < kDim; ++j) {
      with_pad.set({b, kCands - 1, j}, 0.0f);
    }
  }
  Tensor base = c.Detach().SetRequiresGrad(true);
  const auto grads_padded = real_row_grads(with_pad);
  const auto grads_base = real_row_grads(base);
  ASSERT_EQ(grads_padded.size(), grads_base.size());
  for (size_t i = 0; i < grads_base.size(); ++i) {
    EXPECT_EQ(grads_padded[i], grads_base[i]) << "flat index " << i;
  }
}

}  // namespace
}  // namespace stisan::core
