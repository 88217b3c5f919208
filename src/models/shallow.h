// Non-neural baselines: POP, BPR matrix factorisation, FPMC-LR, PRME-G
// (paper §IV-B). These train with hand-rolled SGD (no autograd) — the
// update rules are closed-form and this keeps them fast.

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "data/types.h"
#include "models/recommender.h"
#include "util/rng.h"

namespace stisan::models {

/// Popularity baseline: recommends the most frequently visited POIs.
class PopModel : public SequentialRecommender {
 public:
  std::string name() const override { return "POP"; }
  /// Any id: one POP never counted scores as zero visits.
  int64_t num_pois() const override {
    return std::numeric_limits<int64_t>::max();
  }
  void Fit(const data::Dataset& dataset,
           const std::vector<data::TrainWindow>& train) override;
  std::vector<float> Score(const data::EvalInstance& instance,
                           const std::vector<int64_t>& candidates) override;

  int64_t count(int64_t poi) const {
    return poi < static_cast<int64_t>(counts_.size())
               ? counts_[static_cast<size_t>(poi)]
               : 0;
  }

 private:
  std::vector<int64_t> counts_;
};

struct BprOptions {
  int64_t dim = 32;
  int64_t epochs = 12;
  float lr = 0.05f;
  float reg = 0.01f;
  uint64_t seed = 11;
};

/// Bayesian personalized ranking over user/POI factors [8]:
/// score(u, p) = <U_u, V_p> + b_p, trained on (u, pos, neg) triples.
class BprMfModel : public SequentialRecommender {
 public:
  explicit BprMfModel(BprOptions options = {}) : options_(options) {}

  std::string name() const override { return "BPR"; }
  int64_t num_pois() const override { return num_pois_; }
  void Fit(const data::Dataset& dataset,
           const std::vector<data::TrainWindow>& train) override;
  std::vector<float> Score(const data::EvalInstance& instance,
                           const std::vector<int64_t>& candidates) override;

 private:
  float Predict(int64_t user, int64_t poi) const;

  BprOptions options_;
  int64_t num_users_ = 0;
  int64_t num_pois_ = 0;
  std::vector<float> user_factors_;  // [num_users, dim]
  std::vector<float> poi_factors_;   // [num_pois+1, dim]
  std::vector<float> poi_bias_;      // [num_pois+1]
};

struct FpmcOptions {
  int64_t dim = 32;
  int64_t epochs = 12;
  float lr = 0.05f;
  float reg = 0.01f;
  /// Localized-region constraint: negatives are drawn within this radius of
  /// the previous POI (the "LR" in FPMC-LR [19]).
  double region_km = 15.0;
  uint64_t seed = 13;
};

/// FPMC-LR: factorised personalised Markov chain with geography-localised
/// negative sampling:
///   score(u, prev, next) = <UI_u, IU_next> + <LI_prev, IL_next>
class FpmcLrModel : public SequentialRecommender {
 public:
  explicit FpmcLrModel(FpmcOptions options = {}) : options_(options) {}

  std::string name() const override { return "FPMC-LR"; }
  int64_t num_pois() const override { return num_pois_; }
  void Fit(const data::Dataset& dataset,
           const std::vector<data::TrainWindow>& train) override;
  std::vector<float> Score(const data::EvalInstance& instance,
                           const std::vector<int64_t>& candidates) override;

 private:
  float Predict(int64_t user, int64_t prev, int64_t next) const;

  FpmcOptions options_;
  int64_t num_users_ = 0;
  int64_t num_pois_ = 0;
  std::vector<float> ui_;  // user -> item preference factors
  std::vector<float> iu_;  // item factors matched against users
  std::vector<float> li_;  // previous-item transition factors
  std::vector<float> il_;  // next-item transition factors
};

struct PrmeOptions {
  int64_t dim = 32;
  int64_t epochs = 12;
  float lr = 0.05f;
  float reg = 0.01f;
  /// Component weight alpha between preference and sequential distances.
  float alpha = 0.5f;
  /// Travel-distance weighting strength (PRME-G's geography factor).
  float geo_weight = 0.05f;
  uint64_t seed = 17;
};

/// PRME-G: personalised ranking metric embedding with a travel-distance
/// weight [20]. Lower weighted distance = higher score:
///   D(u, prev, next) = alpha * |Xp_u - Xp_next|^2
///                    + (1-alpha) * |Xs_prev - Xs_next|^2
///   score = -(1 + geo_weight * d_km(prev, next)) * D
class PrmeGModel : public SequentialRecommender {
 public:
  explicit PrmeGModel(PrmeOptions options = {}) : options_(options) {}

  std::string name() const override { return "PRME-G"; }
  int64_t num_pois() const override { return num_pois_; }
  void Fit(const data::Dataset& dataset,
           const std::vector<data::TrainWindow>& train) override;
  std::vector<float> Score(const data::EvalInstance& instance,
                           const std::vector<int64_t>& candidates) override;

 private:
  float Predict(int64_t user, int64_t prev, int64_t next,
                double dist_km) const;

  PrmeOptions options_;
  const data::Dataset* dataset_ = nullptr;
  int64_t num_users_ = 0;
  int64_t num_pois_ = 0;
  std::vector<float> user_pref_;  // Xp for users
  std::vector<float> poi_pref_;   // Xp for POIs
  std::vector<float> poi_seq_;    // Xs for POIs
};

/// Extracts the (user, prev, next) transition triples with real POIs from
/// training windows; shared by the shallow sequential models.
struct Transition {
  int64_t user;
  int64_t prev;
  int64_t next;
};
std::vector<Transition> ExtractTransitions(
    const std::vector<data::TrainWindow>& train);

}  // namespace stisan::models
