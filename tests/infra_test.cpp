// Tests for the supporting infrastructure added on top of the core
// reproduction: checkpoint serialization, early stopping, and the extended
// evaluation metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "eval/metrics.h"
#include "nn/layers.h"
#include "train/early_stopping.h"
#include "util/serialize.h"

namespace stisan {
namespace {

// ---- Serialization ------------------------------------------------------------

TEST(SerializeTest, RoundTripPrimitives) {
  const std::string path = "/tmp/stisan_ser_test.bin";
  {
    BinaryWriter w(path);
    w.WriteU64(42);
    w.WriteI64(-7);
    w.WriteF32(3.25f);
    w.WriteString("hello");
    w.WriteFloatVector({1.5f, -2.5f});
    w.WriteInt64Vector({10, 20, 30});
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path);
  EXPECT_EQ(r.ReadU64().value(), 42u);
  EXPECT_EQ(r.ReadI64().value(), -7);
  EXPECT_EQ(r.ReadF32().value(), 3.25f);
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_EQ(r.ReadFloatVector().value(), (std::vector<float>{1.5f, -2.5f}));
  EXPECT_EQ(r.ReadInt64Vector().value(), (std::vector<int64_t>{10, 20, 30}));
  // Reading past the end fails cleanly.
  EXPECT_FALSE(r.ReadU64().ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  BinaryReader r("/nonexistent/never.bin");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.ReadU64().ok());
}

TEST(SerializeTest, TruncatedVectorFails) {
  const std::string path = "/tmp/stisan_ser_trunc.bin";
  {
    BinaryWriter w(path);
    w.WriteU64(1000);  // claims 1000 floats but writes none
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path);
  EXPECT_FALSE(r.ReadFloatVector().ok());
  std::remove(path.c_str());
}

TEST(ModuleCheckpointTest, SaveLoadRestoresParameters) {
  const std::string path = "/tmp/stisan_ckpt_test.bin";
  Rng rng(3);
  nn::Linear a(4, 6, rng);
  nn::Linear b(4, 6, rng);  // different random init
  ASSERT_TRUE(a.SaveParameters(path).ok());
  ASSERT_TRUE(b.LoadParameters(path).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].ToVector(), pb[i].ToVector());
  }
  std::remove(path.c_str());
}

TEST(ModuleCheckpointTest, ShapeMismatchRejected) {
  const std::string path = "/tmp/stisan_ckpt_mismatch.bin";
  Rng rng(4);
  nn::Linear a(4, 6, rng);
  nn::Linear b(6, 4, rng);
  ASSERT_TRUE(a.SaveParameters(path).ok());
  Status st = b.LoadParameters(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ModuleCheckpointTest, GarbageFileRejected) {
  const std::string path = "/tmp/stisan_ckpt_garbage.bin";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("not a checkpoint at all, sorry", f);
    fclose(f);
  }
  Rng rng(5);
  nn::Linear a(2, 2, rng);
  EXPECT_FALSE(a.LoadParameters(path).ok());
  std::remove(path.c_str());
}

// ---- Early stopping ------------------------------------------------------------------

TEST(EarlyStoppingTest, StopsAfterPatience) {
  train::EarlyStopping es(2);
  EXPECT_FALSE(es.ShouldStop(0.5));   // best
  EXPECT_FALSE(es.ShouldStop(0.4));   // bad 1
  EXPECT_TRUE(es.ShouldStop(0.45));   // bad 2 -> stop
  EXPECT_EQ(es.best_epoch(), 0);
  EXPECT_DOUBLE_EQ(es.best_metric(), 0.5);
}

TEST(EarlyStoppingTest, ImprovementResetsPatience) {
  train::EarlyStopping es(2);
  EXPECT_FALSE(es.ShouldStop(0.5));
  EXPECT_FALSE(es.ShouldStop(0.4));
  EXPECT_FALSE(es.ShouldStop(0.6));  // new best
  EXPECT_FALSE(es.ShouldStop(0.5));
  EXPECT_TRUE(es.ShouldStop(0.5));
  EXPECT_EQ(es.best_epoch(), 2);
}

TEST(EarlyStoppingTest, MinDeltaIgnoresTinyGains) {
  train::EarlyStopping es(1, 0.1);
  EXPECT_FALSE(es.ShouldStop(0.5));
  EXPECT_TRUE(es.ShouldStop(0.55));  // +0.05 < min_delta -> bad epoch
}

TEST(ValidationSplitTest, PartitionsCompletely) {
  std::vector<data::TrainWindow> windows(20);
  for (size_t i = 0; i < windows.size(); ++i) windows[i].user = int64_t(i);
  Rng rng(6);
  auto split = train::SplitValidation(windows, 0.25, rng);
  EXPECT_EQ(split.train.size() + split.validation.size(), windows.size());
  EXPECT_EQ(split.validation.size(), 5u);
  // Every original window appears exactly once.
  std::vector<int64_t> seen;
  for (const auto& w : split.train) seen.push_back(w.user);
  for (const auto& w : split.validation) seen.push_back(w.user);
  std::sort(seen.begin(), seen.end());
  for (size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], static_cast<int64_t>(i));
}

TEST(ValidationSplitTest, TinyInputKeepsBothSidesNonEmpty) {
  std::vector<data::TrainWindow> windows(2);
  Rng rng(7);
  auto split = train::SplitValidation(windows, 0.01, rng);
  EXPECT_EQ(split.train.size(), 1u);
  EXPECT_EQ(split.validation.size(), 1u);
}

// ---- Metric extensions --------------------------------------------------------------

TEST(MetricExtensionsTest, MrrValues) {
  EXPECT_DOUBLE_EQ(eval::ReciprocalRank(0), 1.0);
  EXPECT_DOUBLE_EQ(eval::ReciprocalRank(3), 0.25);
  eval::MetricAccumulator acc;
  acc.Add(0);
  acc.Add(1);
  EXPECT_DOUBLE_EQ(acc.MeanReciprocalRank(), 0.75);
}

TEST(MetricExtensionsTest, MergeCombines) {
  eval::MetricAccumulator a({5, 10}), b({5, 10});
  a.Add(0);
  b.Add(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.HitRate(5), 0.5);
  EXPECT_EQ(a.ranks().size(), 2u);
}

TEST(MetricExtensionsTest, BootstrapCiBracketsPointEstimate) {
  Rng rng(8);
  std::vector<int64_t> ranks;
  for (int i = 0; i < 200; ++i) ranks.push_back(i % 2 == 0 ? 1 : 50);
  auto ci = eval::BootstrapHitRateCi(ranks, 5, 0.95, rng);
  EXPECT_LT(ci.lo, 0.5);
  EXPECT_GT(ci.hi, 0.5);
  EXPECT_GT(ci.lo, 0.35);
  EXPECT_LT(ci.hi, 0.65);
}

TEST(MetricExtensionsTest, PairedBootstrapDetectsDominance) {
  Rng rng(9);
  std::vector<int64_t> strong, weak;
  for (int i = 0; i < 150; ++i) {
    strong.push_back(i % 3 == 0 ? 1 : 3);   // always hits @5
    weak.push_back(i % 3 == 0 ? 8 : 30);    // rarely hits @5
  }
  EXPECT_LT(eval::PairedBootstrapPValue(strong, weak, 5, rng), 0.01);
  EXPECT_GT(eval::PairedBootstrapPValue(weak, strong, 5, rng), 0.99);
}

TEST(MetricExtensionsTest, PairedBootstrapNoDifference) {
  Rng rng(10);
  std::vector<int64_t> a, b;
  for (int i = 0; i < 100; ++i) {
    a.push_back(i % 2 == 0 ? 1 : 20);
    b.push_back(i % 2 == 1 ? 1 : 20);  // same marginal, different instances
  }
  const double p = eval::PairedBootstrapPValue(a, b, 5, rng);
  EXPECT_GT(p, 0.1);
  EXPECT_LT(p, 0.9);
}

}  // namespace
}  // namespace stisan
