#include "core/incremental.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "util/check.h"

namespace stisan::core {

namespace {

// Copies one [1, d] row tensor into row i of a [max_len, d] buffer.
void WriteRow(Tensor& buffer, int64_t i, const Tensor& row) {
  const int64_t d = buffer.size(1);
  STISAN_CHECK_EQ(row.numel(), d);
  std::memcpy(buffer.data() + i * d, row.data(),
              static_cast<size_t>(d) * sizeof(float));
}

}  // namespace

IncrementalScorer::IncrementalScorer(StisanModel* model, int64_t max_seq_len)
    : model_(model), max_seq_len_(max_seq_len), rng_(0) {
  STISAN_CHECK_GE(max_seq_len_, 1);
}

std::unique_ptr<IncrementalState> IncrementalScorer::NewState() const {
  auto state = std::make_unique<IncrementalState>();
  state->embed_cache = Tensor::Zeros({max_seq_len_, model_->model_dim()});
  return state;
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
    // across users.
    throw std::logic_error(
        "IncrementalScorer::Sync: cached_len " +
        std::to_string(state.cached_len) +
        " inconsistent with history length " + std::to_string(n));
  }
  if (!state.embed_cache.defined()) {
    throw std::logic_error(
        "IncrementalScorer::Sync: state not created by NewState");
  }

  // Embedding and raw interval rows extend monotonically under appends.
  for (int64_t i = state.cached_len; i < n; ++i) {
    const auto k = static_cast<size_t>(i);
    WriteRow(state.embed_cache, i, model_->Embed({pois[k]}));
    if (model_->UsesRelation()) {
      state.relation.Append(timestamps[k],
                            model_->dataset_->poi_location(pois[k]),
                            model_->options_.relation);
    }
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

  // The model's own stages over the cached rows, as Score runs them with
  // first_real = 0.
  Tensor bias;
  if (model_->UsesRelation()) {
    bias = SoftmaxScaleRelation(state.relation.Matrix(n), /*first_real=*/0);
  }
  const Tensor f =
      model_->EncodeStage(ops::Slice(state.embed_cache, 0, 0, n),
                          {{&timestamps, 0}}, bias, rng_);
  const std::vector<int64_t> last(candidates.size(), n - 1);
  return model_->Decode(f, candidates, last, /*first_real=*/0).ToVector();
}

}  // namespace stisan::core
