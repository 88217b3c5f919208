// GeoSAN baseline (Lian et al., KDD 2020): geography-aware self-attention —
// POI embedding ⧺ quadkey n-gram geography encoding, a vanilla causal SAN,
// target-aware attention decoding, and importance-weighted KNN negatives.
//
// This is exactly STiSAN with TAPE and the relation matrix switched off, so
// the implementation delegates to a configured StisanModel (the paper builds
// STiSAN on top of GeoSAN's encoder/decoder/loss).

#pragma once

#include "core/stisan.h"
#include "models/recommender.h"

namespace stisan::models {

class GeoSanModel : public SequentialRecommender {
 public:
  GeoSanModel(const data::Dataset& dataset, core::StisanOptions options);

  std::string name() const override { return "GeoSAN"; }
  int64_t num_pois() const override { return inner_.num_pois(); }
  void Fit(const data::Dataset& dataset,
           const std::vector<data::TrainWindow>& train) override {
    inner_.Fit(dataset, train);
  }
  std::vector<float> Score(const data::EvalInstance& instance,
                           const std::vector<int64_t>& candidates) override {
    return inner_.Score(instance, candidates);
  }
  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<const data::EvalInstance*>& instances,
      const std::vector<std::vector<int64_t>>& candidates) override {
    return inner_.ScoreBatch(instances, candidates);
  }

  float last_epoch_loss() const { return inner_.last_epoch_loss(); }

 private:
  static core::StisanOptions MakeOptions(core::StisanOptions options);
  core::StisanModel inner_;
};

}  // namespace stisan::models
