// Shared training/eval scaffolding for the neural sequential baselines
// (GRU4Rec, STGN, SASRec, TiSASRec, STAN). Subclasses provide the sequence
// encoder; this base runs the canonical next-POI training loop — per-step
// binary cross-entropy against uniformly sampled negatives, scored by inner
// product with the shared item embedding — and the matching eval scorer.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/types.h"
#include "models/recommender.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "train/config.h"
#include "train/negative_sampler.h"
#include "train/trainer.h"

namespace stisan::models {

struct NeuralOptions {
  int64_t dim = 32;
  float dropout = 0.2f;
  train::TrainConfig train;
};

class NeuralSeqModel : public SequentialRecommender, public nn::Module {
 public:
  NeuralSeqModel(const data::Dataset& dataset, const NeuralOptions& options,
                 std::string model_name);

  std::string name() const override { return name_; }
  int64_t num_pois() const override { return dataset_->num_pois(); }
  void Fit(const data::Dataset& dataset,
           const std::vector<data::TrainWindow>& train) override;
  std::vector<float> Score(const data::EvalInstance& instance,
                           const std::vector<int64_t>& candidates) override;

  /// Batched scoring: encodes the whole batch via EncodeSourceBatch, embeds
  /// all candidate lists in one lookup (padded to the widest list), and
  /// decodes preferences per instance. Per-instance scores match Score
  /// exactly. Falls back to per-instance Score when the instances do not
  /// share a padded sequence length.
  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<const data::EvalInstance*>& instances,
      const std::vector<std::vector<int64_t>>& candidates) override;

  float last_epoch_loss() const { return last_epoch_loss_; }

  /// Outcome of the most recent Fit (resume/interrupt/non-finite counters).
  const train::TrainResult& last_train_result() const {
    return last_train_result_;
  }

  /// Architecture fingerprint stamped into checkpoints and verified on
  /// load; covers the model name, item-vocabulary size and hidden dim.
  std::string ConfigFingerprint() const;

 protected:
  /// Encodes the source sequence into per-step preference states [n, dim].
  virtual Tensor EncodeSource(const std::vector<int64_t>& pois,
                              const std::vector<double>& timestamps,
                              int64_t first_real, int64_t user,
                              Rng& rng) = 0;

  /// Encodes a batch of instances sharing a padded length n into
  /// [B, n, dim]. The default stacks per-instance EncodeSource outputs;
  /// attention-based subclasses override it with one padded forward
  /// through their (rank-3 capable) encoder stack.
  virtual Tensor EncodeSourceBatch(
      const std::vector<const data::EvalInstance*>& instances, Rng& rng);

  /// Candidate representations [M, dim]; defaults to the item embedding.
  virtual Tensor CandidateEmbedding(const std::vector<int64_t>& candidates);

  /// Preference vectors per candidate row given encoder states; defaults to
  /// selecting the row's step state. STAN overrides this with its recall
  /// attention.
  virtual Tensor Preferences(const Tensor& candidate_emb,
                             const Tensor& encoder_out,
                             const std::vector<int64_t>& step_of_row,
                             int64_t first_real);

  const data::Dataset* dataset_;
  NeuralOptions options_;
  Rng rng_;
  nn::Embedding item_embedding_;
  std::unique_ptr<train::NegativeSampler> sampler_;
  std::string name_;
  float last_epoch_loss_ = 0.0f;
  train::TrainResult last_train_result_;
};

}  // namespace stisan::models
