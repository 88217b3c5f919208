// Shared training configuration for all neural recommenders.

#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace stisan {
class Env;
}

namespace stisan::train {

/// Per-epoch statistics passed to the optional training callback.
struct EpochStats {
  int64_t epoch = 0;  // 0-based
  float loss = 0.0f;  // mean loss of this epoch
};

/// Crash-safe checkpointing knobs consumed by train::Trainer. Disabled by
/// default (`dir` empty): the paper-scale runs in tests do not pay any
/// checkpoint IO unless they opt in.
struct CheckpointConfig {
  /// Directory for rotating trainer checkpoints; empty disables them.
  std::string dir;
  /// Write a checkpoint every N completed epochs (plus one at the end of
  /// training and one on graceful shutdown).
  int64_t every_epochs = 1;
  /// Keep the newest K checkpoints; older ones are deleted after a new one
  /// is written successfully. Keeping more than one means a checkpoint
  /// corrupted on disk still leaves a valid older one to resume from.
  int64_t keep_last = 3;
  /// Resume from the newest valid checkpoint in `dir` when one exists.
  bool resume = false;
  /// Filesystem to write through; nullptr = Env::Default(). Tests inject a
  /// FaultInjectionEnv here.
  Env* env = nullptr;
};

struct TrainConfig {
  int64_t epochs = 10;
  /// Windows per optimizer step (gradient accumulation). Larger batches
  /// reduce gradient noise markedly at this data scale.
  int64_t batch_size = 8;
  float lr = 0.001f;          // paper: 0.001
  int64_t num_negatives = 15; // paper: L = 15
  float temperature = 1.0f;   // paper: T in {1, 100, 500} per dataset
  int64_t knn_neighborhood = 200;  // paper: 2000 nearest (scaled down)
  float grad_clip = 5.0f;
  uint64_t seed = 7;
  bool verbose = false;
  /// Optional cap on the number of training windows per epoch (0 = all);
  /// lets benches bound wall-clock on the larger synthetic datasets.
  int64_t max_train_windows = 0;
  /// A step whose loss (or accumulated gradient norm) is NaN/Inf is
  /// skipped and counted instead of poisoning the weights; after this many
  /// consecutive non-finite steps training aborts with an error status.
  int64_t max_consecutive_nonfinite = 8;
  /// Checkpoint / resume behaviour (train::Trainer).
  CheckpointConfig checkpoint;
  /// Path the trainer writes obs-registry JSON snapshots to (atomically,
  /// via the io_env temp+rename path). Empty disables emission. Strictly
  /// passive: the snapshot never feeds back into training.
  std::string metrics_json;
  /// Snapshot every N completed epochs (requires metrics_json; 0 = only at
  /// the end of the run).
  int64_t metrics_every = 0;
  /// Optional per-epoch hook (validation evaluation, checkpointing, ...).
  /// Returning false stops training early; the optimizer state is
  /// preserved across epochs either way.
  std::function<bool(const EpochStats&)> on_epoch;
};

}  // namespace stisan::train
