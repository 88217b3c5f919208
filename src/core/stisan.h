// STiSAN — the end-to-end Spatial-Temporal Interval Aware sequential POI
// recommender (paper §III, Fig. 3).
//
// Pipeline: Embedding (POI embedding ⧺ geography encoding) -> TAPE ->
// N stacked IAABs -> TAAD -> inner-product matching, trained with the
// importance-weighted BCE loss over KNN negatives (eq. 12).
//
// Every component can be switched off independently, reproducing the
// ablation variants of Table IV.

#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/geo_encoder.h"
#include "core/iaab.h"
#include "core/relation.h"
#include "core/tape.h"
#include "data/types.h"
#include "models/recommender.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "train/config.h"
#include "train/negative_sampler.h"
#include "train/trainer.h"

namespace stisan::core {

class IncrementalScorer;

struct StisanOptions {
  /// POI embedding dimension (paper: 128).
  int64_t poi_dim = 24;
  /// Geography encoding dimension (paper: 128); d = poi_dim + geo_dim.
  GeoEncoderOptions geo = {.dim = 8, .quadkey_level = 17, .ngram = 6};
  /// Number of stacked IAABs N (paper: 4).
  int64_t num_blocks = 2;
  /// FFN hidden dim d_h (> d); 0 means 2 * d.
  int64_t ffn_hidden = 0;
  float dropout = 0.2f;
  RelationOptions relation;

  // ---- Ablation switches (paper Table IV) ----
  bool use_geo_encoder = true;  // variant I "Remove GE"
  bool use_tape = true;         // variant II "Remove TAPE" (vanilla PE)
  AttentionMode attention_mode =
      AttentionMode::kIntervalAware;  // III: kVanilla, IV: kRelationOnly
  bool use_taad = true;               // variant V "Remove TAAD"

  /// Use the KNN importance sampler (paper); false = uniform negatives.
  bool knn_negatives = true;

  train::TrainConfig train;
};

/// The full model. Construct per dataset (embeddings size with the POI set).
class StisanModel : public models::SequentialRecommender, public nn::Module {
 public:
  StisanModel(const data::Dataset& dataset, const StisanOptions& options);

  std::string name() const override;
  int64_t num_pois() const override { return dataset_->num_pois(); }
  void Fit(const data::Dataset& dataset,
           const std::vector<data::TrainWindow>& train) override;
  std::vector<float> Score(const data::EvalInstance& instance,
                           const std::vector<int64_t>& candidates) override;

  /// Batched scoring: the batch is cut into min(B, kernels::NumThreads())
  /// contiguous sub-batches, each one padded forward (shared padded
  /// length, per-instance relation bias / mask / TAPE stacked along a
  /// leading batch dim) run single-threaded as one task of the kernel
  /// pool. Per-instance scores match Score exactly, so the split and the
  /// thread count never move a score.
  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<const data::EvalInstance*>& instances,
      const std::vector<std::vector<int64_t>>& candidates) override;

  /// Mean training loss of the most recent epoch (for tests / logging).
  float last_epoch_loss() const { return last_epoch_loss_; }

  /// Outcome of the most recent Fit (resume/interrupt/non-finite counters).
  const train::TrainResult& last_train_result() const {
    return last_train_result_;
  }

  /// Architecture fingerprint stamped into checkpoints and verified on
  /// load: any option that changes parameter shapes or their meaning is
  /// included, so resuming into a differently-configured model fails with
  /// FailedPrecondition instead of silently mis-restoring.
  std::string ConfigFingerprint() const;

  int64_t model_dim() const { return dim_; }
  const StisanOptions& options() const { return options_; }

  // ---- Introspection for the visualisation benches (Fig. 5 / Fig. 7) ----

  /// Runs the embedding + position encoding + encoder stack on a source
  /// sequence and returns the post-softmax attention map of every block,
  /// averaged across blocks.
  Tensor AverageAttentionMap(const std::vector<int64_t>& pois,
                             const std::vector<double>& timestamps,
                             int64_t first_real);

 private:
  // The incremental serving engine caches this model's embedding rows and
  // eq.-4 relation rows per user and runs them through the same encoder
  // and decode stages as Score, so the two paths cannot drift apart
  // (bit-identity is pinned by the serve test label).
  friend class IncrementalScorer;

  // One sequence's timing inputs to the encoder stage.
  struct SequenceTimes {
    const std::vector<double>* timestamps;
    int64_t first_real;
  };

  /// Embeds a POI id sequence: POI embedding ⧺ geography encoding.
  Tensor Embed(const std::vector<int64_t>& pois) const;

  /// Whether the attention consumes the relation matrix (not kVanilla).
  bool UsesRelation() const {
    return options_.attention_mode != AttentionMode::kVanilla;
  }

  /// Relation bias (softmax-scaled R, built per forward) or undefined in
  /// kVanilla mode.
  Tensor RelationBias(const std::vector<int64_t>& pois,
                      const std::vector<double>& timestamps,
                      int64_t first_real) const;

  /// The encoder stage every forward shares. `rows` holds embedded rows
  /// (from Embed), [n, d] for one sequence or [B, n, d] for a batch with
  /// one SequenceTimes per instance. Adds each sequence's TAPE (or
  /// vanilla) position table, applies embedding dropout, and runs the
  /// IAAB stack under each sequence's padded causal mask with the given
  /// relation bias. Returns the encoder output; with `attention_maps` set
  /// it collects every block's attention map there instead and returns an
  /// undefined tensor.
  Tensor EncodeStage(const Tensor& rows, const std::vector<SequenceTimes>& seqs,
                     const Tensor& bias, Rng& rng,
                     std::vector<Tensor>* attention_maps = nullptr) const;

  /// Full encoder pass over a source sequence (no dropout when eval).
  Tensor Encode(const std::vector<int64_t>& pois,
                const std::vector<double>& timestamps, int64_t first_real,
                Rng& rng) const;

  /// Batched encoder pass over instances sharing a padded length n:
  /// returns [B, n, d]; slice b equals Encode on instance b.
  Tensor EncodeBatch(std::span<const data::EvalInstance* const> instances,
                     Rng& rng) const;

  /// One ScoreBatch sub-batch: a single padded forward when every instance
  /// has the same length, per-instance Score otherwise. The caller holds
  /// a NoGradGuard.
  std::vector<std::vector<float>> ScorePadded(
      std::span<const data::EvalInstance* const> instances,
      std::span<const std::vector<int64_t>> candidates);

  /// The decode stage: scores [M] of `candidates` against an encoded
  /// sequence f [n, d], row r decoded at step step_of_row[r] (TAAD over
  /// keys first_real..step, or the plain encoder state when TAAD is
  /// ablated), inner product scaled by 1/sqrt(d).
  Tensor Decode(const Tensor& f, const std::vector<int64_t>& candidates,
                const std::vector<int64_t>& step_of_row,
                int64_t first_real) const;

  const data::Dataset* dataset_;
  StisanOptions options_;
  int64_t dim_;
  float score_scale_;  // 1/sqrt(d): keeps match logits in a trainable range
  Rng rng_;

  nn::Embedding poi_embedding_;
  std::unique_ptr<GeoEncoder> geo_encoder_;
  nn::Dropout embed_dropout_;
  std::unique_ptr<IaabEncoder> encoder_;
  std::unique_ptr<train::NegativeSampler> sampler_;

  float last_epoch_loss_ = 0.0f;
  train::TrainResult last_train_result_;
};

}  // namespace stisan::core
