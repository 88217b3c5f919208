#include "models/san_models.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/relation.h"
#include "core/tape.h"
#include "train/loss.h"

namespace stisan::models {
namespace {

std::vector<geo::GeoPoint> WindowCoords(const data::Dataset& dataset,
                                        const std::vector<int64_t>& pois) {
  std::vector<geo::GeoPoint> coords(pois.size());
  for (size_t i = 0; i < pois.size(); ++i) {
    if (pois[i] != data::kPaddingPoi) coords[i] = dataset.poi_location(pois[i]);
  }
  return coords;
}

core::IaabOptions BlockOptions(const SanOptions& options,
                               core::AttentionMode mode) {
  core::IaabOptions block;
  block.dim = options.base.dim;
  block.ffn_hidden =
      options.ffn_hidden > 0 ? options.ffn_hidden : 2 * options.base.dim;
  block.dropout = options.base.dropout;
  block.mode = mode;
  return block;
}

// Flattens the instances' POI windows (shared padded length n) into one id
// list for a single batched embedding lookup.
std::vector<int64_t> FlatPois(
    const std::vector<const data::EvalInstance*>& instances, int64_t n) {
  std::vector<int64_t> flat;
  flat.reserve(instances.size() * static_cast<size_t>(n));
  for (const auto* inst : instances) {
    STISAN_CHECK_EQ(static_cast<int64_t>(inst->poi.size()), n);
    flat.insert(flat.end(), inst->poi.begin(), inst->poi.end());
  }
  return flat;
}

}  // namespace

// ---- SASRec ------------------------------------------------------------------

SasRecModel::SasRecModel(const data::Dataset& dataset,
                         const SanOptions& options,
                         const SasRecExtensions& extensions,
                         std::string model_name)
    : NeuralSeqModel(dataset, options.base, std::move(model_name)),
      san_options_(options),
      extensions_(extensions),
      positions_(options.max_seq_len, options.base.dim, rng_),
      dropout_(options.base.dropout) {
  const auto mode = extensions_.relation.has_value()
                        ? core::AttentionMode::kIntervalAware
                        : core::AttentionMode::kVanilla;
  encoder_ = std::make_unique<core::IaabEncoder>(
      BlockOptions(options, mode), options.num_blocks, rng_);
  RegisterModule(&positions_);
  RegisterModule(&dropout_);
  RegisterModule(encoder_.get());
}

Tensor SasRecModel::EncodeSource(const std::vector<int64_t>& pois,
                                 const std::vector<double>& timestamps,
                                 int64_t first_real, int64_t /*user*/,
                                 Rng& rng) {
  const int64_t n = static_cast<int64_t>(pois.size());
  Tensor e = item_embedding_.Forward(pois);
  if (extensions_.use_tape) {
    // Sinusoidal encodings are O(1) per component while the embeddings are
    // initialised at O(1/sqrt(d)); the standard x sqrt(d) embedding scaling
    // keeps TAPE from drowning the content signal.
    e = ops::MulScalar(e, std::sqrt(float(san_options_.base.dim)));
    e = core::ApplyTape(e, timestamps, first_real);
  } else {
    e = e + positions_.Forward(n);
  }
  e = dropout_.Forward(e, rng);
  Tensor bias;
  if (extensions_.relation.has_value()) {
    bias = core::ScaledRelation(pois, timestamps,
                                WindowCoords(*dataset_, pois), first_real,
                                *extensions_.relation);
  }
  Tensor mask = core::BuildPaddedCausalMask(n, first_real);
  return encoder_->Forward(e, bias, mask, rng);
}

Tensor SasRecModel::EncodeSourceBatch(
    const std::vector<const data::EvalInstance*>& instances, Rng& rng) {
  const int64_t bsz = static_cast<int64_t>(instances.size());
  const int64_t n = static_cast<int64_t>(instances[0]->poi.size());
  const int64_t d = san_options_.base.dim;
  Tensor e =
      ops::Reshape(item_embedding_.Forward(FlatPois(instances, n)),
                   {bsz, n, d});
  if (extensions_.use_tape) {
    e = ops::MulScalar(e, std::sqrt(float(d)));
    std::vector<Tensor> pe(static_cast<size_t>(bsz));
    for (int64_t b = 0; b < bsz; ++b) {
      const auto* inst = instances[static_cast<size_t>(b)];
      pe[static_cast<size_t>(b)] = nn::SinusoidalEncoding(
          core::TimeAwarePositions(inst->t, inst->first_real), d);
    }
    e = e + ops::Stack0(pe);
  } else {
    // The learned positions are shared: [n, d] broadcasts over the batch.
    e = e + positions_.Forward(n);
  }
  e = dropout_.Forward(e, rng);
  Tensor bias;
  if (extensions_.relation.has_value()) {
    std::vector<Tensor> biases(static_cast<size_t>(bsz));
    for (int64_t b = 0; b < bsz; ++b) {
      const auto* inst = instances[static_cast<size_t>(b)];
      biases[static_cast<size_t>(b)] = core::ScaledRelation(
          inst->poi, inst->t, WindowCoords(*dataset_, inst->poi),
          inst->first_real, *extensions_.relation);
    }
    bias = ops::Stack0(biases);
  }
  std::vector<Tensor> masks(static_cast<size_t>(bsz));
  for (int64_t b = 0; b < bsz; ++b) {
    masks[static_cast<size_t>(b)] = core::BuildPaddedCausalMask(
        n, instances[static_cast<size_t>(b)]->first_real);
  }
  return encoder_->Forward(e, bias, ops::Stack0(masks), rng);
}

// ---- TiSASRec ----------------------------------------------------------------

TiSasRecModel::TiSasRecModel(const data::Dataset& dataset,
                             const SanOptions& options, int64_t num_buckets,
                             double max_interval_days)
    : NeuralSeqModel(dataset, options.base, "TiSASRec"),
      san_options_(options),
      num_buckets_(num_buckets),
      max_interval_days_(max_interval_days),
      positions_(options.max_seq_len, options.base.dim, rng_),
      dropout_(options.base.dropout) {
  encoder_ = std::make_unique<core::IaabEncoder>(
      BlockOptions(options, core::AttentionMode::kIntervalAware),
      options.num_blocks, rng_);
  bucket_bias_ = RegisterParameter(Tensor::Zeros({num_buckets_, 1}));
  RegisterModule(&positions_);
  RegisterModule(&dropout_);
  RegisterModule(encoder_.get());
}

int64_t TiSasRecModel::Bucket(double interval_seconds) const {
  const double hours =
      std::min(interval_seconds / 3600.0, max_interval_days_ * 24.0);
  const int64_t b = static_cast<int64_t>(std::log2(1.0 + hours));
  return std::clamp<int64_t>(b, 0, num_buckets_ - 1);
}

Tensor TiSasRecModel::EncodeSource(const std::vector<int64_t>& pois,
                                   const std::vector<double>& timestamps,
                                   int64_t first_real, int64_t /*user*/,
                                   Rng& rng) {
  const int64_t n = static_cast<int64_t>(pois.size());
  Tensor e = item_embedding_.Forward(pois) + positions_.Forward(n);
  e = dropout_.Forward(e, rng);

  // Learned scalar bias per clipped time-interval bucket for every causal
  // pair; gradients flow into bucket_bias_ through the lookup.
  std::vector<int64_t> bucket_ids(static_cast<size_t>(n * n), 0);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      bucket_ids[static_cast<size_t>(i * n + j)] = Bucket(
          std::fabs(timestamps[size_t(i)] - timestamps[size_t(j)]));
    }
  }
  Tensor bias = ops::Reshape(
      ops::EmbeddingLookup(bucket_bias_, bucket_ids), {n, n});
  Tensor mask = core::BuildPaddedCausalMask(n, first_real);
  return encoder_->Forward(e, bias, mask, rng);
}

Tensor TiSasRecModel::EncodeSourceBatch(
    const std::vector<const data::EvalInstance*>& instances, Rng& rng) {
  const int64_t bsz = static_cast<int64_t>(instances.size());
  const int64_t n = static_cast<int64_t>(instances[0]->poi.size());
  const int64_t d = san_options_.base.dim;
  Tensor e =
      ops::Reshape(item_embedding_.Forward(FlatPois(instances, n)),
                   {bsz, n, d}) +
      positions_.Forward(n);
  e = dropout_.Forward(e, rng);

  std::vector<Tensor> biases(static_cast<size_t>(bsz));
  std::vector<Tensor> masks(static_cast<size_t>(bsz));
  for (int64_t b = 0; b < bsz; ++b) {
    const auto* inst = instances[static_cast<size_t>(b)];
    std::vector<int64_t> bucket_ids(static_cast<size_t>(n * n), 0);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j <= i; ++j) {
        bucket_ids[static_cast<size_t>(i * n + j)] = Bucket(
            std::fabs(inst->t[size_t(i)] - inst->t[size_t(j)]));
      }
    }
    biases[static_cast<size_t>(b)] = ops::Reshape(
        ops::EmbeddingLookup(bucket_bias_, bucket_ids), {n, n});
    masks[static_cast<size_t>(b)] =
        core::BuildPaddedCausalMask(n, inst->first_real);
  }
  return encoder_->Forward(e, ops::Stack0(biases), ops::Stack0(masks), rng);
}

// ---- Bert4Rec ----------------------------------------------------------------

Bert4RecModel::Bert4RecModel(const data::Dataset& dataset,
                             const SanOptions& options, float mask_prob)
    : NeuralSeqModel(dataset, options.base, "Bert4Rec"),
      san_options_(options),
      mask_prob_(mask_prob),
      mask_token_(dataset.num_pois() + 1),
      bert_embedding_(dataset.num_pois() + 2, options.base.dim, rng_,
                      /*padding_idx=*/data::kPaddingPoi),
      positions_(options.max_seq_len, options.base.dim, rng_),
      dropout_(options.base.dropout) {
  auto block = BlockOptions(options, core::AttentionMode::kVanilla);
  block.causal = false;  // bidirectional
  encoder_ = std::make_unique<core::IaabEncoder>(block, options.num_blocks,
                                                 rng_);
  RegisterModule(&bert_embedding_);
  RegisterModule(&positions_);
  RegisterModule(&dropout_);
  RegisterModule(encoder_.get());
}

Tensor Bert4RecModel::CandidateEmbedding(
    const std::vector<int64_t>& candidates) {
  return bert_embedding_.Forward(candidates);
}

Tensor Bert4RecModel::EncodeIds(const std::vector<int64_t>& ids,
                                int64_t first_real, Rng& rng) {
  const int64_t n = static_cast<int64_t>(ids.size());
  Tensor e = bert_embedding_.Forward(ids) + positions_.Forward(n);
  e = dropout_.Forward(e, rng);
  // Bidirectional: only padding keys are hidden (plus self for pad rows).
  Tensor mask = Tensor::Zeros({n, n});
  float* m = mask.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (j < first_real && j != i) m[i * n + j] = -1e9f;
    }
  }
  return encoder_->Forward(e, Tensor(), mask, rng);
}

void Bert4RecModel::Fit(const data::Dataset& dataset,
                        const std::vector<data::TrainWindow>& train) {
  STISAN_CHECK_EQ(&dataset, dataset_);
  const auto& cfg = options_.train;
  const int64_t num_negatives = std::max<int64_t>(1, cfg.num_negatives);

  SetTraining(true);
  // The cloze loss of one window; the shared train::Trainer owns the loop
  // (shuffling, accumulation, LR schedule, guards, checkpointing).
  auto loss_fn = [&](size_t idx) -> Tensor {
    const data::TrainWindow& w = train[idx];
    const int64_t n = static_cast<int64_t>(w.poi.size());
    const int64_t first_real = std::min<int64_t>(w.first_real, n - 1);

    // Cloze corruption: mask real positions with probability mask_prob;
    // always mask the final position (matches the eval usage pattern).
    std::vector<int64_t> ids = w.poi;
    std::vector<int64_t> masked_pos;
    std::vector<int64_t> masked_true;
    for (int64_t i = first_real; i < n; ++i) {
      const bool is_last = (i == n - 1);
      if (is_last || rng_.Bernoulli(mask_prob_)) {
        masked_pos.push_back(i);
        masked_true.push_back(w.poi[static_cast<size_t>(i)]);
        ids[static_cast<size_t>(i)] = mask_token_;
      }
    }
    Tensor f = EncodeIds(ids, first_real, rng_);

    std::vector<int64_t> cand_ids;
    std::vector<int64_t> step_of_row;
    for (size_t k = 0; k < masked_pos.size(); ++k) {
      cand_ids.push_back(masked_true[k]);
      step_of_row.push_back(masked_pos[k]);
      for (int64_t neg : sampler_->Sample(masked_true[k], num_negatives,
                                          {masked_true[k]}, rng_)) {
        cand_ids.push_back(neg);
        step_of_row.push_back(masked_pos[k]);
      }
    }
    const int64_t m = static_cast<int64_t>(masked_pos.size());
    Tensor c = CandidateEmbedding(cand_ids);
    Tensor s = NeuralSeqModel::Preferences(c, f, step_of_row, first_real);
    Tensor scores =
        ops::Reshape(ops::SumDim(s * c, 1), {m, num_negatives + 1});
    Tensor pos = ops::Reshape(ops::Slice(scores, 1, 0, 1), {m});
    Tensor neg = ops::Slice(scores, 1, 1, num_negatives + 1);
    return train::BceLoss(pos, neg);
  };

  train::Trainer trainer(Parameters(), cfg, &rng_, name(),
                         ConfigFingerprint());
  last_train_result_ = trainer.Run(train.size(), loss_fn);
  last_epoch_loss_ = last_train_result_.last_epoch_loss;
  SetTraining(false);
}

Tensor Bert4RecModel::EncodeSource(const std::vector<int64_t>& pois,
                                   const std::vector<double>& /*timestamps*/,
                                   int64_t first_real, int64_t /*user*/,
                                   Rng& rng) {
  // Next-POI inference: shift history left and append [MASK]; the state at
  // the final position predicts the next visit.
  std::vector<int64_t> ids(pois.begin() + 1, pois.end());
  ids.push_back(mask_token_);
  return EncodeIds(ids, std::max<int64_t>(0, first_real - 1), rng);
}

Tensor Bert4RecModel::EncodeSourceBatch(
    const std::vector<const data::EvalInstance*>& instances, Rng& rng) {
  const int64_t bsz = static_cast<int64_t>(instances.size());
  const int64_t n = static_cast<int64_t>(instances[0]->poi.size());
  const int64_t d = san_options_.base.dim;

  // Same query construction as EncodeSource: shift left, append [MASK].
  std::vector<int64_t> flat;
  flat.reserve(static_cast<size_t>(bsz * n));
  std::vector<int64_t> first_real(static_cast<size_t>(bsz));
  for (int64_t b = 0; b < bsz; ++b) {
    const auto* inst = instances[static_cast<size_t>(b)];
    STISAN_CHECK_EQ(static_cast<int64_t>(inst->poi.size()), n);
    flat.insert(flat.end(), inst->poi.begin() + 1, inst->poi.end());
    flat.push_back(mask_token_);
    first_real[static_cast<size_t>(b)] =
        std::max<int64_t>(0, inst->first_real - 1);
  }
  Tensor e = ops::Reshape(bert_embedding_.Forward(flat), {bsz, n, d}) +
             positions_.Forward(n);
  e = dropout_.Forward(e, rng);

  // Bidirectional: only padding keys are hidden (plus self for pad rows).
  std::vector<Tensor> masks(static_cast<size_t>(bsz));
  for (int64_t b = 0; b < bsz; ++b) {
    Tensor mask = Tensor::Zeros({n, n});
    float* m = mask.data();
    const int64_t fr = first_real[static_cast<size_t>(b)];
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        if (j < fr && j != i) m[i * n + j] = -1e9f;
      }
    }
    masks[static_cast<size_t>(b)] = mask;
  }
  return encoder_->Forward(e, Tensor(), ops::Stack0(masks), rng);
}

}  // namespace stisan::models
