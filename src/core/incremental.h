// Incremental inference engine for a frozen StisanModel.
//
// Serving appends one check-in at a time to a user's history and rescores
// candidates after each append. TAPE's positions are normalised by the
// mean time gap of the *whole* sequence (paper eq. 2-3), so an append
// changes every position and every encoder row. The engine therefore
// caches only what an append leaves intact — the scaled embedding rows and
// eq. 4's raw interval rows (the Haversine work) — and runs the model's
// own encoder and decode stages over the cached inputs at Score time.
//
// Relation-matrix coupling: the paper's R is r_hat_max - r_hat with a
// *global* ceiling r_hat_max = max over all causal pairs. The raw r_hat
// rows (core::RelationRows) extend monotonically and never invalidate;
// the softmax-scaled matrix is assembled from them against the current
// ceiling at every Score, so nothing cached ever needs rebuilding.
//
// Bit-identity contract: Score() returns exactly the floats of
// model->Score({poi = history, t = timestamps, first_real = 0}, cands) —
// the same ops in the same order on the same values, pinned at every
// prefix length by tests/serve_test.cpp (the "serve" ctest label).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/relation.h"
#include "core/stisan.h"

namespace stisan::core {

/// Per-user cached state. Histories live with the caller (the session
/// store); this struct only holds derived caches over the prefix
/// [0, cached_len). Eviction drops the whole state and keeps the history,
/// so a returning user pays one cold build.
struct IncrementalState {
  // Number of history visits the caches cover.
  int64_t cached_len = 0;

  // Eq. 4's raw interval rows over the cached prefix (relation modes
  // only). Never invalidated: appends only add rows.
  RelationRows relation;

  // Scaled embedding rows (post sqrt(d), pre-PE), [max_len, d].
  Tensor embed_cache;
};

/// Scorer over a frozen model. The model must outlive the engine and stay
/// in eval mode while serving (Score() re-asserts it). One engine may drive
/// distinct states from several threads at once: the eval-mode forward
/// only reads the model (it builds its TAPE tables and relation matrices
/// into fresh tensors), and the dropout Rng below is never drawn from. One
/// state must not be used by two threads at once.
class IncrementalScorer {
 public:
  IncrementalScorer(StisanModel* model, int64_t max_seq_len);

  /// A fresh state with its [max_seq_len, d] embedding cache allocated.
  /// Sync and Score accept only states made here. A service that creates
  /// states on one thread and scores them on others thus keeps that
  /// long-lived buffer in the creating thread's malloc arena instead of
  /// spreading it over every scoring thread's arena.
  std::unique_ptr<IncrementalState> NewState() const;

  /// Advances the state's caches to cover the full history (pois.size()
  /// must be <= max_seq_len; the caller windows longer histories before
  /// calling). Always returns 0: no cached row ever needs rebuilding, and
  /// the count is kept for callers that sum it into serve/cache_rebuilds.
  int64_t Sync(IncrementalState& state, const std::vector<int64_t>& pois,
               const std::vector<double>& timestamps) const;

  /// Scores candidates at the final step of the history; bit-identical to
  /// model->Score on the equivalent unpadded instance. Syncs first.
  std::vector<float> Score(IncrementalState& state,
                           const std::vector<int64_t>& pois,
                           const std::vector<double>& timestamps,
                           const std::vector<int64_t>& candidates) const;

 private:
  StisanModel* model_;
  int64_t max_seq_len_;
  // Dropout layers take an Rng by reference; in eval mode they are
  // identity and never draw, so this stream stays untouched.
  mutable Rng rng_;
};

}  // namespace stisan::core
