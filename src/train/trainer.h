// The reusable training loop shared by every neural recommender.
//
// Models supply a per-window loss function (their forward pass); the
// Trainer owns everything around it: epoch/shuffle bookkeeping, gradient
// accumulation, gradient clipping, Adam stepping at a constant learning
// rate, non-finite loss/gradient guards, graceful SIGINT/SIGTERM shutdown,
// and crash-safe checkpoint/resume (train/checkpoint.h).
//
// Resume determinism contract: checkpoints are captured at epoch
// boundaries (the state snapshot taken at the start of the current epoch
// is written when training is interrupted mid-epoch, so the interrupted
// epoch replays from its beginning). Because the RNG stream, parameters,
// Adam moments, the window-visit permutation and all cursors are restored
// exactly, a run that is killed and resumed produces bit-identical
// parameters to an uninterrupted run.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "tensor/optimizer.h"
#include "tensor/tensor.h"
#include "train/checkpoint.h"
#include "train/config.h"
#include "util/rng.h"
#include "util/status.h"

namespace stisan::train {

/// Outcome of a Trainer::Run.
struct TrainResult {
  /// OK unless checkpoint IO failed or the non-finite guard aborted.
  Status status;
  /// Epochs completed in total (including epochs restored from a resume).
  int64_t epochs_completed = 0;
  float last_epoch_loss = 0.0f;
  /// Windows whose loss (or batches whose gradient) was non-finite and
  /// therefore skipped.
  int64_t nonfinite_skipped = 0;
  /// True when a stop request (signal or RequestStop) ended the run early;
  /// a boundary checkpoint was written if checkpointing is enabled.
  bool interrupted = false;
  /// True when the run started from a restored checkpoint.
  bool resumed = false;
};

class Trainer {
 public:
  /// Computes the (scalar) loss tensor for training window `idx`. The
  /// Trainer scales it by 1/batch_size, backpropagates and accumulates.
  using WindowLossFn = std::function<Tensor(size_t idx)>;

  /// `params`: the model's trainable tensors (updated in place).
  /// `rng`: the model's RNG — shuffling, sampling and dropout must all
  /// draw from this one stream for checkpoint/resume to be exact.
  /// `fingerprint`: model-config fingerprint stamped into checkpoints and
  /// verified on resume.
  Trainer(std::vector<Tensor> params, const TrainConfig& config, Rng* rng,
          std::string name = "model", std::string fingerprint = "");

  /// Runs up to config.epochs epochs over `num_windows` windows. Safe to
  /// call once per Trainer instance.
  TrainResult Run(size_t num_windows, const WindowLossFn& loss_fn);

 private:
  TrainerState CaptureState(const Adam& optimizer, int64_t epoch,
                            int64_t opt_step, float last_loss,
                            const std::vector<size_t>& order) const;
  Status RestoreState(const TrainerState& state, Adam& optimizer);

  std::vector<Tensor> params_;
  TrainConfig config_;
  Rng* rng_;
  std::string name_;
  std::string fingerprint_;
};

}  // namespace stisan::train
