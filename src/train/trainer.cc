#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "obs/metrics.h"
#include "tensor/ops.h"
#include "train/signal.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace stisan::train {

namespace {

/// Epoch-granularity registry emission (EpochStats and friends). Purely
/// passive: gauges/counters record what already happened; nothing is read
/// back into the training computation.
void EmitEpochMetrics(const TrainConfig& cfg, int64_t completed_epochs,
                      float loss, int64_t nonfinite_skipped) {
  static obs::Counter& epochs = obs::GetCounter("train/epochs_completed");
  static obs::Gauge& loss_gauge = obs::GetGauge("train/loss");
  static obs::Gauge& lr_gauge = obs::GetGauge("train/lr");
  static obs::Gauge& nonfinite = obs::GetGauge("train/nonfinite_skipped");
  epochs.Inc();
  loss_gauge.Set(loss);
  lr_gauge.Set(cfg.lr);
  nonfinite.Set(double(nonfinite_skipped));
  const bool due = cfg.metrics_every > 0 &&
                   completed_epochs % cfg.metrics_every == 0;
  if (!cfg.metrics_json.empty() && due) {
    Status st = obs::WriteJsonAtomic(nullptr, cfg.metrics_json);
    if (!st.ok()) {
      STISAN_LOG(WARNING) << "metrics snapshot write failed: "
                          << st.ToString();
    }
  }
}

}  // namespace

Trainer::Trainer(std::vector<Tensor> params, const TrainConfig& config,
                 Rng* rng, std::string name, std::string fingerprint)
    : params_(std::move(params)),
      config_(config),
      rng_(rng),
      name_(std::move(name)),
      fingerprint_(std::move(fingerprint)) {
  STISAN_CHECK(rng_ != nullptr);
}

TrainerState Trainer::CaptureState(const Adam& optimizer, int64_t epoch,
                                   int64_t opt_step, float last_loss,
                                   const std::vector<size_t>& order) const {
  TrainerState state;
  state.order.assign(order.begin(), order.end());
  state.fingerprint = fingerprint_;
  state.epoch = epoch;
  state.opt_step = opt_step;
  state.window_cursor = 0;  // checkpoints always sit on epoch boundaries
  state.last_epoch_loss = last_loss;
  state.rng = rng_->GetState();
  state.adam_t = optimizer.step_count();
  state.shapes.reserve(params_.size());
  state.params.reserve(params_.size());
  for (const Tensor& p : params_) {
    state.shapes.push_back(p.shape());
    state.params.push_back(p.ToVector());
  }
  state.adam_m = optimizer.first_moments();
  state.adam_v = optimizer.second_moments();
  return state;
}

Status Trainer::RestoreState(const TrainerState& state, Adam& optimizer) {
  if (state.params.size() != params_.size()) {
    return Status::FailedPrecondition(StrFormat(
        "checkpoint has %zu parameters, model has %zu", state.params.size(),
        params_.size()));
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    if (state.shapes[i] != params_[i].shape() ||
        static_cast<int64_t>(state.params[i].size()) != params_[i].numel()) {
      return Status::FailedPrecondition(
          "checkpoint parameter " + std::to_string(i) +
          " shape mismatch: expected " + ShapeToString(params_[i].shape()) +
          " got " + ShapeToString(state.shapes[i]));
    }
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    std::copy(state.params[i].begin(), state.params[i].end(),
              params_[i].data());
  }
  optimizer.RestoreState(state.adam_t, state.adam_m, state.adam_v);
  rng_->SetState(state.rng);
  return Status::OK();
}

TrainResult Trainer::Run(size_t num_windows, const WindowLossFn& loss_fn) {
  OBS_SCOPED_TIMER("train/run");
  TrainResult result;
  const auto& cfg = config_;
  const int64_t bsz = std::max<int64_t>(1, cfg.batch_size);

  Adam optimizer(params_, {.lr = cfg.lr});
  int64_t opt_step = 0;
  int64_t start_epoch = 0;
  float last_epoch_loss = 0.0f;

  // The window-visit order: iota once, then re-shuffled in place at every
  // epoch start (matching the historical loop bit-for-bit). A resumed run
  // restores the checkpointed permutation so epoch k sees the same order
  // as an uninterrupted run.
  std::vector<size_t> order(num_windows);
  std::iota(order.begin(), order.end(), size_t{0});

  const bool ckpt_enabled = !cfg.checkpoint.dir.empty();
  std::optional<CheckpointManager> manager;
  if (ckpt_enabled) manager.emplace(cfg.checkpoint, fingerprint_);

  if (ckpt_enabled && cfg.checkpoint.resume) {
    auto state = manager->LoadLatest();
    if (state.ok()) {
      Status restore = RestoreState(*state, optimizer);
      if (!restore.ok()) {
        result.status = restore;
        return result;
      }
      if (!state->order.empty()) {
        if (state->order.size() != order.size()) {
          result.status = Status::FailedPrecondition(StrFormat(
              "checkpoint window order has %zu entries, dataset has %zu",
              state->order.size(), order.size()));
          return result;
        }
        std::copy(state->order.begin(), state->order.end(), order.begin());
      }
      start_epoch = state->epoch;
      opt_step = state->opt_step;
      last_epoch_loss = state->last_epoch_loss;
      result.resumed = true;
      if (cfg.verbose) {
        STISAN_LOG(INFO) << name_ << " resumed from checkpoint at epoch "
                         << start_epoch << " (opt step " << opt_step << ")";
      }
    } else if (state.status().code() != StatusCode::kNotFound) {
      result.status = state.status();
      return result;
    }
  }
  result.epochs_completed = start_epoch;
  result.last_epoch_loss = last_epoch_loss;

  int64_t nonfinite_losses = 0;  // consecutive, reset by a finite loss
  int64_t nonfinite_grads = 0;   // consecutive, reset by a clean step

  // Epoch-boundary snapshot, written on graceful shutdown: a run
  // interrupted mid-epoch resumes by replaying that epoch from its start.
  TrainerState snapshot;
  if (ckpt_enabled) {
    snapshot =
        CaptureState(optimizer, start_epoch, opt_step, last_epoch_loss, order);
  }
  auto record_checkpoint_error = [&result](const Status& st) {
    if (!st.ok()) {
      STISAN_LOG(WARNING) << "checkpoint write failed: " << st.ToString();
      if (result.status.ok()) result.status = st;
    }
  };

  Stopwatch watch;
  for (int64_t epoch = start_epoch; epoch < cfg.epochs; ++epoch) {
    if (StopRequested()) {
      if (ckpt_enabled) record_checkpoint_error(manager->Save(snapshot));
      result.interrupted = true;
      break;
    }
    OBS_SCOPED_TIMER("train/epoch");
    rng_->Shuffle(order);
    double epoch_loss = 0.0;
    int64_t seen = 0;
    int64_t finite_seen = 0;
    int64_t in_batch = 0;
    bool stop_pending = false;
    optimizer.ZeroGrad();
    static obs::Counter& windows_seen = obs::GetCounter("train/windows_seen");
    static obs::Counter& opt_steps = obs::GetCounter("train/opt_steps");
    for (size_t idx : order) {
      if (cfg.max_train_windows > 0 && seen >= cfg.max_train_windows) break;
      float loss_value;
      {
        // Scoped so the loss graph is torn down before the optimizer step.
        Tensor loss = loss_fn(idx);
        loss_value = loss.data()[0];
        if (std::isfinite(loss_value)) {
          ops::MulScalar(loss, 1.0f / float(bsz)).Backward();
        }
      }
      ++seen;
      windows_seen.Inc();
      if (!std::isfinite(loss_value)) {
        ++result.nonfinite_skipped;
        if (cfg.max_consecutive_nonfinite > 0 &&
            ++nonfinite_losses >= cfg.max_consecutive_nonfinite) {
          result.status = Status::Internal(StrFormat(
              "aborting after %lld consecutive non-finite losses",
              static_cast<long long>(nonfinite_losses)));
          result.last_epoch_loss = last_epoch_loss;
          return result;
        }
        continue;  // skip-and-count: the bad window contributes no gradient
      }
      nonfinite_losses = 0;
      epoch_loss += loss_value;
      ++finite_seen;
      if (++in_batch == bsz) {
        const float norm = optimizer.ClipGradNorm(cfg.grad_clip);
        if (!std::isfinite(norm)) {
          ++result.nonfinite_skipped;
          optimizer.ZeroGrad();
          in_batch = 0;
          if (cfg.max_consecutive_nonfinite > 0 &&
              ++nonfinite_grads >= cfg.max_consecutive_nonfinite) {
            result.status = Status::Internal(StrFormat(
                "aborting after %lld consecutive non-finite gradient steps",
                static_cast<long long>(nonfinite_grads)));
            result.last_epoch_loss = last_epoch_loss;
            return result;
          }
          continue;
        }
        nonfinite_grads = 0;
        ++opt_step;
        optimizer.Step();
        opt_steps.Inc();
        optimizer.ZeroGrad();
        in_batch = 0;
      }
      if (StopRequested()) {
        stop_pending = true;
        break;
      }
    }
    if (stop_pending) {
      // Graceful shutdown: the step in flight finished above; the partial
      // epoch is discarded and the boundary snapshot checkpointed, so a
      // resumed run replays this epoch from its start bit-identically.
      if (ckpt_enabled) record_checkpoint_error(manager->Save(snapshot));
      result.interrupted = true;
      break;
    }
    if (in_batch > 0) {
      const float norm = optimizer.ClipGradNorm(cfg.grad_clip);
      if (std::isfinite(norm)) {
        optimizer.Step();
        opt_steps.Inc();
      } else {
        ++result.nonfinite_skipped;
      }
      optimizer.ZeroGrad();
    }
    last_epoch_loss = finite_seen > 0
                          ? static_cast<float>(epoch_loss / double(finite_seen))
                          : 0.0f;
    result.epochs_completed = epoch + 1;
    EmitEpochMetrics(cfg, epoch + 1, last_epoch_loss,
                     result.nonfinite_skipped);
    const bool early_stop =
        cfg.on_epoch && !cfg.on_epoch({.epoch = epoch, .loss = last_epoch_loss});
    if (cfg.verbose) {
      STISAN_LOG(INFO) << name_ << " epoch " << (epoch + 1) << "/"
                       << cfg.epochs << " loss " << last_epoch_loss << " ("
                       << watch.ElapsedSeconds() << "s)";
    }
    if (ckpt_enabled) {
      const int64_t completed = epoch + 1;
      snapshot =
          CaptureState(optimizer, completed, opt_step, last_epoch_loss, order);
      const bool final_epoch = completed == cfg.epochs || early_stop;
      const bool due = cfg.checkpoint.every_epochs > 0 &&
                       completed % cfg.checkpoint.every_epochs == 0;
      if (final_epoch || due) record_checkpoint_error(manager->Save(snapshot));
    }
    if (early_stop) break;
  }
  result.last_epoch_loss = last_epoch_loss;
  // Final snapshot covers runs whose epoch count is not a multiple of
  // metrics_every (and the metrics_every == 0 "only at the end" mode).
  if (!cfg.metrics_json.empty()) {
    Status st = obs::WriteJsonAtomic(nullptr, cfg.metrics_json);
    if (!st.ok()) {
      STISAN_LOG(WARNING) << "metrics snapshot write failed: "
                          << st.ToString();
    }
  }
  return result;
}

}  // namespace stisan::train
