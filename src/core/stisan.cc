#include "core/stisan.h"

#include <algorithm>
#include <cmath>

#include "core/taad.h"
#include "train/loss.h"
#include "train/trainer.h"
#include "tensor/kernels.h"
#include "tensor/optimizer.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace stisan::core {
namespace {

// Gathers coordinates for a POI window (padding POIs keep the origin; the
// relation builder never reads them).
std::vector<geo::GeoPoint> WindowCoords(const data::Dataset& dataset,
                                        const std::vector<int64_t>& pois) {
  std::vector<geo::GeoPoint> coords(pois.size());
  for (size_t i = 0; i < pois.size(); ++i) {
    if (pois[i] != data::kPaddingPoi) {
      coords[i] = dataset.poi_location(pois[i]);
    }
  }
  return coords;
}

// A constant [m, n] row-selection matrix mapping candidate rows to their
// encoder step (used when TAAD is ablated).
Tensor StepSelector(const std::vector<int64_t>& step_of_row, int64_t n) {
  const int64_t m = static_cast<int64_t>(step_of_row.size());
  Tensor sel = Tensor::Zeros({m, n});
  float* s = sel.data();
  for (int64_t r = 0; r < m; ++r) {
    s[r * n + step_of_row[static_cast<size_t>(r)]] = 1.0f;
  }
  return sel;
}

}  // namespace

StisanModel::StisanModel(const data::Dataset& dataset,
                         const StisanOptions& options)
    : dataset_(&dataset),
      options_(options),
      dim_(options.poi_dim + options.geo.dim),
      score_scale_(1.0f / std::sqrt(static_cast<float>(
          options.poi_dim + options.geo.dim))),
      rng_(options.train.seed),
      poi_embedding_(dataset.num_pois() + 1,
                     options.use_geo_encoder ? options.poi_dim : dim_, rng_,
                     /*padding_idx=*/data::kPaddingPoi),
      embed_dropout_(options.dropout) {
  STISAN_CHECK_GT(options.poi_dim, 0);
  STISAN_CHECK_GT(options.geo.dim, 0);
  RegisterModule(&poi_embedding_);
  RegisterModule(&embed_dropout_);
  if (options_.use_geo_encoder) {
    geo_encoder_ = std::make_unique<GeoEncoder>(dataset, options_.geo, rng_);
    RegisterModule(geo_encoder_.get());
  }
  IaabOptions block;
  block.dim = dim_;
  block.ffn_hidden =
      options_.ffn_hidden > 0 ? options_.ffn_hidden : 2 * dim_;
  block.dropout = options_.dropout;
  block.mode = options_.attention_mode;
  encoder_ = std::make_unique<IaabEncoder>(block, options_.num_blocks, rng_);
  RegisterModule(encoder_.get());

  if (options_.knn_negatives) {
    sampler_ = std::make_unique<train::KnnNegativeSampler>(
        dataset, options_.train.knn_neighborhood);
  } else {
    sampler_ =
        std::make_unique<train::UniformNegativeSampler>(dataset.num_pois());
  }
}

std::string StisanModel::name() const {
  if (!options_.use_geo_encoder) return "STiSAN-GE";
  if (!options_.use_tape) return "STiSAN-TAPE";
  if (options_.attention_mode == AttentionMode::kVanilla)
    return "STiSAN-IAAB";
  if (options_.attention_mode == AttentionMode::kRelationOnly)
    return "STiSAN-SA";
  if (!options_.use_taad) return "STiSAN-TAAD";
  return "STiSAN";
}

Tensor StisanModel::Embed(const std::vector<int64_t>& pois) const {
  Tensor poi_emb = poi_embedding_.Forward(pois);
  Tensor e = poi_emb;
  if (options_.use_geo_encoder) {
    Tensor geo_emb = geo_encoder_->Forward(pois);
    e = ops::Concat(poi_emb, geo_emb, /*dim=*/1);
  }
  // Standard Transformer embedding scaling (x sqrt(d)): keeps the additive
  // positional encoding from dominating the content signal.
  return ops::MulScalar(e, std::sqrt(static_cast<float>(dim_)));
}

Tensor StisanModel::RelationBias(const std::vector<int64_t>& pois,
                                 const std::vector<double>& timestamps,
                                 int64_t first_real) const {
  if (!UsesRelation()) return Tensor();
  return ScaledRelation(pois, timestamps, WindowCoords(*dataset_, pois),
                        first_real, options_.relation);
}

Tensor StisanModel::EncodeStage(const Tensor& rows,
                                const std::vector<SequenceTimes>& seqs,
                                const Tensor& bias, Rng& rng,
                                std::vector<Tensor>* attention_maps) const {
  const int64_t n = rows.size(-2);
  STISAN_CHECK_EQ(static_cast<int64_t>(seqs.size()),
                  rows.dim() == 3 ? rows.size(0) : 1);
  std::vector<Tensor> tables;
  std::vector<Tensor> masks;
  for (const SequenceTimes& seq : seqs) {
    STISAN_CHECK_EQ(static_cast<int64_t>(seq.timestamps->size()), n);
    // TAPE's time-stretched positions (eq. 2-3), or 1..n for the
    // vanilla-PE ablation.
    tables.push_back(
        options_.use_tape
            ? nn::SinusoidalEncoding(
                  TimeAwarePositions(*seq.timestamps, seq.first_real), dim_)
            : nn::VanillaPositionalEncoding(n, dim_));
    masks.push_back(BuildPaddedCausalMask(n, seq.first_real));
  }
  // Per-sequence inputs stack along the batch dim of a [B, n, d] input.
  auto join = [&rows](const std::vector<Tensor>& per_seq) {
    return rows.dim() == 3 ? ops::Stack0(per_seq) : per_seq[0];
  };
  Tensor e = embed_dropout_.Forward(rows + join(tables), rng);
  Tensor mask = join(masks);
  if (attention_maps != nullptr) {
    *attention_maps = encoder_->AttentionMaps(e, bias, mask, rng);
    return Tensor();
  }
  return encoder_->Forward(e, bias, mask, rng);
}

Tensor StisanModel::Encode(const std::vector<int64_t>& pois,
                           const std::vector<double>& timestamps,
                           int64_t first_real, Rng& rng) const {
  return EncodeStage(Embed(pois), {{&timestamps, first_real}},
                     RelationBias(pois, timestamps, first_real), rng);
}

Tensor StisanModel::EncodeBatch(
    std::span<const data::EvalInstance* const> instances, Rng& rng) const {
  const int64_t bsz = static_cast<int64_t>(instances.size());
  const int64_t n = static_cast<int64_t>(instances[0]->poi.size());

  // One embedding lookup over the flattened, deduplicated batch: the
  // per-row gathers are identical to the per-instance Embed calls, and
  // overlapping histories (shared users, padding) embed once.
  std::vector<int64_t> flat;
  flat.reserve(static_cast<size_t>(bsz * n));
  std::vector<SequenceTimes> seqs;
  std::vector<Tensor> biases;
  for (const auto* inst : instances) {
    STISAN_CHECK_EQ(static_cast<int64_t>(inst->poi.size()), n);
    flat.insert(flat.end(), inst->poi.begin(), inst->poi.end());
    seqs.push_back({&inst->t, inst->first_real});
    if (UsesRelation()) {
      biases.push_back(RelationBias(inst->poi, inst->t, inst->first_real));
    }
  }
  const auto [unique, local] = models::DedupIds(flat);
  Tensor e = ops::Reshape(
      ops::EmbeddingLookup(Embed(unique), local, /*padding_idx=*/-1),
      {bsz, n, dim_});
  return EncodeStage(e, seqs, UsesRelation() ? ops::Stack0(biases) : Tensor(),
                     rng);
}

Tensor StisanModel::Decode(const Tensor& f,
                           const std::vector<int64_t>& candidates,
                           const std::vector<int64_t>& step_of_row,
                           int64_t first_real) const {
  Tensor c = Embed(candidates);
  // Preference vectors: TAAD, or (variant V) the encoder state of each
  // row's step matched with the candidate directly (eq. 17).
  Tensor s = options_.use_taad
                 ? TaadDecode(c, f, step_of_row, first_real)
                 : ops::MatMul(StepSelector(step_of_row, f.size(0)), f);
  // 1/sqrt(d) keeps the logits in the sigmoid's sensitive range (the raw
  // inner products scale with the embedding dimension).
  return ops::MulScalar(MatchScores(s, c), score_scale_);
}

std::string StisanModel::ConfigFingerprint() const {
  return StrFormat(
      "stisan pois=%lld poi_dim=%lld geo_dim=%lld quadkey=%lld ngram=%lld "
      "blocks=%lld ffn=%lld ge=%d tape=%d attn=%d taad=%d",
      static_cast<long long>(dataset_->num_pois()),
      static_cast<long long>(options_.poi_dim),
      static_cast<long long>(options_.geo.dim),
      static_cast<long long>(options_.geo.quadkey_level),
      static_cast<long long>(options_.geo.ngram),
      static_cast<long long>(options_.num_blocks),
      static_cast<long long>(options_.ffn_hidden),
      options_.use_geo_encoder ? 1 : 0, options_.use_tape ? 1 : 0,
      static_cast<int>(options_.attention_mode), options_.use_taad ? 1 : 0);
}

void StisanModel::Fit(const data::Dataset& dataset,
                      const std::vector<data::TrainWindow>& train) {
  STISAN_CHECK_EQ(&dataset, dataset_);
  const auto& cfg = options_.train;
  const int64_t num_negatives = cfg.num_negatives;

  SetTraining(true);
  // The per-window forward pass: everything around it (shuffling, gradient
  // accumulation, LR schedule, clipping, non-finite guards, checkpointing)
  // lives in the shared train::Trainer.
  auto loss_fn = [&](size_t idx) -> Tensor {
    const data::TrainWindow& w = train[idx];
    const int64_t n = static_cast<int64_t>(w.poi.size()) - 1;
    const int64_t first_real = std::min<int64_t>(w.first_real, n - 1);

    // Source sequence is the window minus its last visit.
    std::vector<int64_t> src_poi(w.poi.begin(), w.poi.end() - 1);
    std::vector<double> src_t(w.t.begin(), w.t.end() - 1);
    Tensor f = Encode(src_poi, src_t, first_real, rng_);

    // Per-step candidates: target poi[i+1] plus L KNN negatives.
    std::vector<int64_t> cand_ids;
    std::vector<int64_t> step_of_row;
    for (int64_t i = first_real; i < n; ++i) {
      const int64_t target = w.poi[static_cast<size_t>(i + 1)];
      STISAN_CHECK_NE(target, data::kPaddingPoi);
      cand_ids.push_back(target);
      step_of_row.push_back(i);
      const auto negs =
          sampler_->Sample(target, num_negatives, {target}, rng_);
      for (int64_t neg : negs) {
        cand_ids.push_back(neg);
        step_of_row.push_back(i);
      }
    }
    const int64_t m = n - first_real;
    Tensor scores = ops::Reshape(Decode(f, cand_ids, step_of_row, first_real),
                                 {m, num_negatives + 1});
    Tensor pos = ops::Reshape(ops::Slice(scores, 1, 0, 1), {m});
    Tensor neg = ops::Slice(scores, 1, 1, num_negatives + 1);
    return train::WeightedBceLoss(pos, neg, cfg.temperature);
  };

  train::Trainer trainer(Parameters(), cfg, &rng_, name(),
                         ConfigFingerprint());
  last_train_result_ = trainer.Run(train.size(), loss_fn);
  last_epoch_loss_ = last_train_result_.last_epoch_loss;
  SetTraining(false);
}

std::vector<float> StisanModel::Score(const data::EvalInstance& instance,
                                      const std::vector<int64_t>& candidates) {
  NoGradGuard no_grad;
  SetTraining(false);
  const int64_t n = static_cast<int64_t>(instance.poi.size());
  Tensor f = Encode(instance.poi, instance.t, instance.first_real, rng_);
  const std::vector<int64_t> last(candidates.size(), n - 1);
  return Decode(f, candidates, last, instance.first_real).ToVector();
}

std::vector<std::vector<float>> StisanModel::ScoreBatch(
    const std::vector<const data::EvalInstance*>& instances,
    const std::vector<std::vector<int64_t>>& candidates) {
  STISAN_CHECK_EQ(candidates.size(), instances.size());
  SetTraining(false);
  const int64_t bsz = static_cast<int64_t>(instances.size());
  // One contiguous sub-batch per pool thread, each a padded forward run
  // single-threaded inside its Run task (a serial region). An instance's
  // scores never depend on its batch, so the split moves no score; Run
  // keeps B = 1, a one-thread pool and serial-region callers inline.
  const int64_t parts = std::min(bsz, kernels::NumThreads());
  std::vector<std::vector<float>> out(static_cast<size_t>(bsz));
  kernels::GlobalPool().Run(parts, [&](int64_t p) {
    NoGradGuard no_grad;  // grad mode is thread-local
    const auto begin = static_cast<size_t>(p * bsz / parts);
    const auto end = static_cast<size_t>((p + 1) * bsz / parts);
    std::vector<std::vector<float>> scores =
        ScorePadded(std::span(instances).subspan(begin, end - begin),
                    std::span(candidates).subspan(begin, end - begin));
    std::move(scores.begin(), scores.end(), out.begin() + begin);
  });
  return out;
}

std::vector<std::vector<float>> StisanModel::ScorePadded(
    std::span<const data::EvalInstance* const> instances,
    std::span<const std::vector<int64_t>> candidates) {
  const int64_t bsz = static_cast<int64_t>(instances.size());
  const int64_t n = static_cast<int64_t>(instances[0]->poi.size());
  // Mixed-length batches (ragged ad-hoc callers) cannot share one padded
  // forward; degrade to per-instance scoring instead of CHECK-failing
  // inside EncodeBatch.
  for (const auto* inst : instances) {
    if (static_cast<int64_t>(inst->poi.size()) != n) {
      return SequentialRecommender::ScoreBatch(
          {instances.begin(), instances.end()},
          {candidates.begin(), candidates.end()});
    }
  }

  Tensor f = EncodeBatch(instances, rng_);  // [B, n, d]

  // Candidate lists are padded to the widest list with the padding POI
  // (zero embedding row); padded rows are dropped after scoring.
  int64_t m = 0;
  for (const auto& cand : candidates) {
    m = std::max(m, static_cast<int64_t>(cand.size()));
  }
  std::vector<int64_t> flat;
  flat.reserve(static_cast<size_t>(bsz * m));
  std::vector<int64_t> first_real(static_cast<size_t>(bsz));
  for (int64_t b = 0; b < bsz; ++b) {
    const auto& cand = candidates[static_cast<size_t>(b)];
    flat.insert(flat.end(), cand.begin(), cand.end());
    flat.resize(static_cast<size_t>((b + 1) * m), data::kPaddingPoi);
    first_real[static_cast<size_t>(b)] =
        instances[static_cast<size_t>(b)]->first_real;
  }
  // Candidate pools of nearby targets overlap heavily: embed each unique
  // POI once and gather rows back into batch order (bit-identical, since
  // Embed is row-wise).
  const auto [unique, local] = models::DedupIds(flat);
  Tensor c = ops::Reshape(
      ops::EmbeddingLookup(Embed(unique), local, /*padding_idx=*/-1),
      {bsz, m, dim_});

  // Preference vectors: TAAD over each instance's encoder states, or (when
  // TAAD is ablated) the final-step state broadcast across candidates —
  // the batched equivalent of Decode at step n-1.
  Tensor s = options_.use_taad ? TaadDecodeBatch(c, f, first_real)
                               : ops::Slice(f, 1, n - 1, n);
  Tensor scores =
      ops::MulScalar(MatchScores(s, c), score_scale_);  // [B, m]
  const std::vector<float> values = scores.ToVector();

  std::vector<std::vector<float>> out(static_cast<size_t>(bsz));
  for (int64_t b = 0; b < bsz; ++b) {
    const auto& cand = candidates[static_cast<size_t>(b)];
    const float* row = values.data() + b * m;
    out[static_cast<size_t>(b)].assign(row, row + cand.size());
  }
  return out;
}

Tensor StisanModel::AverageAttentionMap(const std::vector<int64_t>& pois,
                                        const std::vector<double>& timestamps,
                                        int64_t first_real) {
  NoGradGuard no_grad;
  SetTraining(false);
  std::vector<Tensor> maps;
  EncodeStage(Embed(pois), {{&timestamps, first_real}},
              RelationBias(pois, timestamps, first_real), rng_, &maps);
  STISAN_CHECK(!maps.empty());
  Tensor avg = maps[0];
  for (size_t i = 1; i < maps.size(); ++i) avg = avg + maps[i];
  return ops::MulScalar(avg, 1.0f / static_cast<float>(maps.size()));
}

}  // namespace stisan::core
