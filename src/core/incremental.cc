#include "core/incremental.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/taad.h"
#include "data/types.h"
#include "util/check.h"

namespace stisan::core {

namespace {

constexpr double kSecondsPerDay = 86400.0;

// Copies one [1, d] row tensor into row i of a [max_len, d] buffer.
void WriteRow(Tensor& buffer, int64_t i, const Tensor& row) {
  const int64_t d = buffer.size(1);
  STISAN_CHECK_EQ(row.numel(), d);
  std::memcpy(buffer.data() + i * d, row.data(),
              static_cast<size_t>(d) * sizeof(float));
}

}  // namespace

void IncrementalState::Reset() {
  cached_len = 0;
  rhat_rows.clear();
  rhat_max = 0.0;
  embed_cache = Tensor();
}

IncrementalScorer::IncrementalScorer(StisanModel* model, int64_t max_seq_len)
    : model_(model),
      max_seq_len_(max_seq_len),
      dim_(model->model_dim()),
      rng_(0) {
  STISAN_CHECK_GE(max_seq_len_, 1);
}

std::unique_ptr<IncrementalState> IncrementalScorer::NewState() const {
  return std::make_unique<IncrementalState>();
}

bool IncrementalScorer::NeedsRelation() const {
  return model_->options_.attention_mode != AttentionMode::kVanilla;
}

void IncrementalScorer::AppendRhatRow(IncrementalState& state,
                                      const std::vector<int64_t>& pois,
                                      const std::vector<double>& timestamps,
                                      int64_t i) const {
  // Exactly BuildRelationMatrix's first pass for row i, first_real = 0:
  // clipped |dt| in days plus clipped Haversine, stored as float, with the
  // ceiling tracked in double.
  const RelationOptions& opt = model_->options_.relation;
  const data::Dataset& ds = *model_->dataset_;
  const geo::GeoPoint gi = ds.poi_location(pois[static_cast<size_t>(i)]);
  std::vector<float> row(static_cast<size_t>(i) + 1);
  for (int64_t j = 0; j <= i; ++j) {
    const double dt = std::min(
        opt.kt_days,
        std::fabs(timestamps[size_t(i)] - timestamps[size_t(j)]) /
            kSecondsPerDay);
    const double dd = std::min(
        opt.kd_km,
        geo::HaversineKm(gi, ds.poi_location(pois[static_cast<size_t>(j)])));
    const double r_hat = dt + dd;
    row[static_cast<size_t>(j)] = static_cast<float>(r_hat);
    state.rhat_max = std::max(state.rhat_max, r_hat);
  }
  state.rhat_rows.push_back(std::move(row));
}

Tensor IncrementalScorer::AssembleScaledRelation(const IncrementalState& state,
                                                 int64_t n) const {
  // Rebuilds BuildRelationMatrix's output from the cached raw rows (the
  // stored floats and the double ceiling are exactly its internals), then
  // runs the real softmax scaling.
  Tensor r = Tensor::Zeros({n, n});
  float* rd = r.data();
  const float cap = static_cast<float>(state.rhat_max);
  for (int64_t i = 0; i < n; ++i) {
    const std::vector<float>& raw = state.rhat_rows[static_cast<size_t>(i)];
    for (int64_t j = 0; j <= i; ++j) {
      rd[i * n + j] = cap - raw[static_cast<size_t>(j)];
    }
  }
  return SoftmaxScaleRelation(r, /*first_real=*/0);
}

int64_t IncrementalScorer::Sync(IncrementalState& state,
                                const std::vector<int64_t>& pois,
                                const std::vector<double>& timestamps) const {
  NoGradGuard no_grad;
  const int64_t n = static_cast<int64_t>(pois.size());
  // Entry guards throw instead of CHECK-aborting: the serving layer sits
  // directly above this call and must be able to fail one request
  // (util::Status kInternal through its exception barrier) without taking
  // the process down.
  if (n != static_cast<int64_t>(timestamps.size())) {
    throw std::invalid_argument(
        "IncrementalScorer::Sync: pois/timestamps length mismatch (" +
        std::to_string(n) + " vs " + std::to_string(timestamps.size()) +
        ")");
  }
  if (n > max_seq_len_) {
    throw std::length_error(
        "IncrementalScorer::Sync: history length " + std::to_string(n) +
        " exceeds max_seq_len " + std::to_string(max_seq_len_) +
        " (window before calling)");
  }
  if (state.cached_len < 0 || state.cached_len > n) {
    // The store only ever appends; a shrunk history means state reuse
    // across users, which Reset() guards against.
    throw std::logic_error(
        "IncrementalScorer::Sync: cached_len " +
        std::to_string(state.cached_len) +
        " inconsistent with history length " + std::to_string(n));
  }

  if (!state.embed_cache.defined()) {
    state.embed_cache = Tensor::Zeros({max_seq_len_, dim_});
  }

  // Raw interval rows extend monotonically under appends.
  if (NeedsRelation()) {
    for (int64_t i = static_cast<int64_t>(state.rhat_rows.size()); i < n;
         ++i) {
      AppendRhatRow(state, pois, timestamps, i);
    }
  }

  for (int64_t i = state.cached_len; i < n; ++i) {
    WriteRow(state.embed_cache, i,
             model_->Embed({pois[static_cast<size_t>(i)]}));
  }
  state.cached_len = n;
  return 0;
}

std::vector<float> IncrementalScorer::Score(
    IncrementalState& state, const std::vector<int64_t>& pois,
    const std::vector<double>& timestamps,
    const std::vector<int64_t>& candidates) const {
  NoGradGuard no_grad;
  model_->SetTraining(false);
  Sync(state, pois, timestamps);
  const int64_t n = static_cast<int64_t>(pois.size());
  if (n < 1) {
    throw std::invalid_argument(
        "IncrementalScorer::Score: empty history (cold starts are the "
        "caller's responsibility)");
  }

  // Encoder rerun over the cached preprocessing: same tensors, same op
  // order as StisanModel::Encode with first_real = 0.
  Tensor e = ops::Slice(state.embed_cache, 0, 0, n);
  e = model_->options_.use_tape ? ApplyTape(e, timestamps, 0)
                                : ApplyVanillaPe(e);
  e = model_->embed_dropout_.Forward(e, rng_);
  Tensor bias;
  if (NeedsRelation()) bias = AssembleScaledRelation(state, n);
  Tensor mask = BuildPaddedCausalMask(n, /*first_real=*/0);
  Tensor f = model_->encoder_->Forward(e, bias, mask, rng_);

  // Decode stage shared with StisanModel::Score verbatim.
  Tensor c = model_->Embed(candidates);
  std::vector<int64_t> step_of_row(candidates.size(), n - 1);
  Tensor s = model_->Preferences(c, f, step_of_row, /*first_real=*/0);
  return ops::MulScalar(MatchScores(s, c), model_->score_scale_).ToVector();
}

}  // namespace stisan::core
