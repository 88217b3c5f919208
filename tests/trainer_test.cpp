// Tests for the reusable train::Trainer: non-finite loss/gradient guards,
// graceful stop requests, checkpoint/resume determinism on a small
// synthetic problem, and serialization of the early-stopping monitor (same
// stop decisions after a round-trip).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "tensor/ops.h"
#include "train/early_stopping.h"
#include "train/signal.h"
#include "train/trainer.h"
#include "util/io_env.h"
#include "util/serialize.h"

namespace stisan::train {
namespace {

std::string MakeTempDir(const char* tag) {
  std::string tmpl = std::string("/tmp/stisan_") + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* dir = mkdtemp(buf.data());
  EXPECT_NE(dir, nullptr);
  return dir ? std::string(dir) : std::string();
}

void RemoveDirRecursive(const std::string& dir) {
  Env* env = Env::Default();
  auto names = env->ListDir(dir);
  if (names.ok()) {
    for (const auto& name : *names) env->DeleteFile(dir + "/" + name);
  }
  rmdir(dir.c_str());
}

// A small noisy least-squares problem. The loss for window idx depends on
// the parameter AND on the model rng (like dropout / negative sampling in
// the real models), so resume determinism requires restoring the rng.
struct Problem {
  Tensor w = Tensor::Zeros({4}, true);
  Tensor targets = Tensor::FromVector({4}, {1.0f, -2.0f, 3.0f, 0.5f});
  Rng rng{123};

  Trainer::WindowLossFn LossFn() {
    return [this](size_t idx) {
      const float jitter = rng.UniformFloat(-0.01f, 0.01f);
      Tensor shifted = ops::AddScalar(targets, jitter);
      Tensor diff = w - shifted;
      return ops::MulScalar(ops::Sum(ops::Square(diff)),
                            0.5f + 0.01f * float(idx % 3));
    };
  }
};

TrainConfig SmallConfig() {
  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 3;
  cfg.lr = 0.05f;
  return cfg;
}

class TrainerTest : public ::testing::Test {
 protected:
  void SetUp() override { ClearStopRequest(); }
  void TearDown() override { ClearStopRequest(); }
};

TEST_F(TrainerTest, ConvergesAndReportsEpochs) {
  Problem p;
  Trainer trainer({p.w}, SmallConfig(), &p.rng);
  TrainResult result = trainer.Run(12, p.LossFn());
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.epochs_completed, 4);
  EXPECT_EQ(result.nonfinite_skipped, 0);
  EXPECT_FALSE(result.interrupted);
  EXPECT_FALSE(result.resumed);
  EXPECT_GT(result.last_epoch_loss, 0.0f);
}

TEST_F(TrainerTest, DeterministicAcrossIdenticalRuns) {
  Problem a, b;
  Trainer ta({a.w}, SmallConfig(), &a.rng);
  Trainer tb({b.w}, SmallConfig(), &b.rng);
  ta.Run(12, a.LossFn());
  tb.Run(12, b.LossFn());
  EXPECT_EQ(a.w.ToVector(), b.w.ToVector());
}

TEST_F(TrainerTest, NonFiniteLossSkippedAndCounted) {
  Problem p;
  auto base = p.LossFn();
  int calls = 0;
  auto loss_fn = [&](size_t idx) {
    Tensor loss = base(idx);
    // Poison every 5th evaluated window with a NaN loss.
    if (++calls % 5 == 0) {
      return ops::MulScalar(loss, std::numeric_limits<float>::quiet_NaN());
    }
    return loss;
  };
  Trainer trainer({p.w}, SmallConfig(), &p.rng);
  TrainResult result = trainer.Run(12, loss_fn);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.nonfinite_skipped, 0);
  EXPECT_EQ(result.epochs_completed, 4);
  for (float v : p.w.ToVector()) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(TrainerTest, AbortsAfterConsecutiveNonFiniteLosses) {
  Problem p;
  auto loss_fn = [&](size_t idx) {
    return ops::MulScalar(p.LossFn()(idx),
                          std::numeric_limits<float>::infinity());
  };
  TrainConfig cfg = SmallConfig();
  cfg.max_consecutive_nonfinite = 4;
  Trainer trainer({p.w}, cfg, &p.rng);
  TrainResult result = trainer.Run(12, loss_fn);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  EXPECT_EQ(result.nonfinite_skipped, 4);
  // The guard fired before any poisoned gradient reached the weights.
  EXPECT_EQ(p.w.ToVector(), std::vector<float>(4, 0.0f));
}

TEST_F(TrainerTest, StopRequestInterruptsAndCheckpointResumeCompletes) {
  const std::string dir = MakeTempDir("trainer_stop");
  TrainConfig cfg = SmallConfig();
  cfg.checkpoint.dir = dir;

  Problem p;
  auto base = p.LossFn();
  int windows_seen = 0;
  auto stopping_loss = [&](size_t idx) {
    if (++windows_seen == 17) RequestStop();  // mid-epoch-2 stop
    return base(idx);
  };
  Trainer interrupted({p.w}, cfg, &p.rng, "toy");
  TrainResult r1 = interrupted.Run(12, stopping_loss);
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  EXPECT_TRUE(r1.interrupted);
  EXPECT_LT(r1.epochs_completed, cfg.epochs);

  ClearStopRequest();
  cfg.checkpoint.resume = true;
  Trainer resumed({p.w}, cfg, &p.rng, "toy");
  TrainResult r2 = resumed.Run(12, base);
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_TRUE(r2.resumed);
  EXPECT_FALSE(r2.interrupted);
  EXPECT_EQ(r2.epochs_completed, cfg.epochs);
  RemoveDirRecursive(dir);
}

// The headline contract at toy scale: kill mid-epoch, resume, and the final
// parameters are bit-identical to an uninterrupted run.
TEST_F(TrainerTest, KillAndResumeBitIdenticalToUninterrupted) {
  // Uninterrupted reference run.
  Problem ref;
  Trainer reference({ref.w}, SmallConfig(), &ref.rng);
  ASSERT_TRUE(reference.Run(12, ref.LossFn()).status.ok());

  const std::string dir = MakeTempDir("trainer_resume");
  TrainConfig cfg = SmallConfig();
  cfg.checkpoint.dir = dir;

  Problem p;
  auto base = p.LossFn();
  int windows_seen = 0;
  auto stopping_loss = [&](size_t idx) {
    if (++windows_seen == 20) RequestStop();
    return base(idx);
  };
  Trainer interrupted({p.w}, cfg, &p.rng, "toy");
  ASSERT_TRUE(interrupted.Run(12, stopping_loss).interrupted);

  // Fresh "process": new parameter tensor and rng, state comes from disk.
  Problem q;
  cfg.checkpoint.resume = true;
  ClearStopRequest();
  Trainer resumed({q.w}, cfg, &q.rng, "toy");
  TrainResult r = resumed.Run(12, q.LossFn());
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.resumed);
  EXPECT_EQ(q.w.ToVector(), ref.w.ToVector());
  RemoveDirRecursive(dir);
}

TEST_F(TrainerTest, ResumeIntoMismatchedShapesFails) {
  const std::string dir = MakeTempDir("trainer_shape");
  TrainConfig cfg = SmallConfig();
  cfg.checkpoint.dir = dir;
  Problem p;
  Trainer first({p.w}, cfg, &p.rng);
  ASSERT_TRUE(first.Run(12, p.LossFn()).status.ok());

  Tensor other = Tensor::Zeros({6}, true);
  Rng rng(9);
  cfg.checkpoint.resume = true;
  Trainer mismatched({other}, cfg, &rng);
  TrainResult r = mismatched.Run(12, [&](size_t) {
    return ops::Sum(ops::Square(other));
  });
  // The only checkpoint on disk has 4-element parameters; resuming a
  // 6-element model must surface a clean error, not restore garbage.
  ASSERT_FALSE(r.status.ok());
  RemoveDirRecursive(dir);
}

// ---- Early stopping serialization -------------------------------------------

TEST(EarlyStoppingSerializationTest, RestoredMonitorMakesSameDecisions) {
  const std::vector<double> metrics = {0.10, 0.15, 0.15, 0.151,
                                       0.14, 0.13, 0.12};
  // Feed the first three epochs, snapshot, then compare the remaining
  // decisions between the original and a restored copy.
  EarlyStopping original(2, 1e-3);
  for (int i = 0; i < 3; ++i) original.ShouldStop(metrics[size_t(i)]);

  std::string buffer;
  BinaryWriter w(&buffer);
  original.Save(w);
  ASSERT_TRUE(w.ok());
  EarlyStopping restored(99, 0.5);  // different config before Load
  BinaryReader r = BinaryReader::FromBuffer(buffer);
  ASSERT_TRUE(restored.Load(r).ok());

  EXPECT_EQ(original.best_metric(), restored.best_metric());
  EXPECT_EQ(original.best_epoch(), restored.best_epoch());
  EXPECT_EQ(original.epochs_seen(), restored.epochs_seen());
  for (size_t i = 3; i < metrics.size(); ++i) {
    EXPECT_EQ(original.ShouldStop(metrics[i]), restored.ShouldStop(metrics[i]))
        << "epoch " << i;
  }
}

TEST(EarlyStoppingSerializationTest, CorruptStateRejected) {
  std::string buffer;
  BinaryWriter w(&buffer);
  w.WriteI64(0);  // patience must be >= 1
  w.WriteF64(1e-4);
  w.WriteF64(0.5);
  w.WriteI64(0);
  w.WriteI64(1);
  w.WriteI64(0);
  EarlyStopping monitor(3);
  BinaryReader r = BinaryReader::FromBuffer(buffer);
  EXPECT_FALSE(monitor.Load(r).ok());
  EXPECT_EQ(monitor.epochs_seen(), 0);  // unchanged on failure

  BinaryReader truncated = BinaryReader::FromBuffer("abc");
  EXPECT_FALSE(monitor.Load(truncated).ok());
}

}  // namespace
}  // namespace stisan::train
