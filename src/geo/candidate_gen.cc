#include "geo/candidate_gen.h"

#include <algorithm>

#include "util/check.h"

namespace stisan::geo {

CandidateGenerator::CandidateGenerator(const SpatialGridIndex& index,
                                       CandidatePoolOptions options)
    : index_(index), options_(options) {
  STISAN_CHECK_GT(options_.pool_size, 0);
}

void CandidateGenerator::Generate(
    const GeoPoint& query, const std::function<bool(int64_t)>& accept,
    SpatialGridIndex::QueryScratch* scratch,
    std::vector<int64_t>* out) const {
  index_.KNearestInto(query, options_.pool_size, accept, scratch, out);
}

void CandidateGenerator::GenerateBatch(
    const std::vector<GeoPoint>& queries, const BatchAcceptFn& accept,
    ThreadPool* pool, std::vector<std::vector<int64_t>>* pools) const {
  const int64_t n = static_cast<int64_t>(queries.size());
  pools->resize(static_cast<size_t>(n));
  if (n == 0) return;
  const int64_t workers =
      pool == nullptr ? 1
                      : std::clamp<int64_t>(pool->num_threads(), 1, n);
  while (static_cast<int64_t>(scratch_.size()) < workers) {
    scratch_.push_back(std::make_unique<SpatialGridIndex::QueryScratch>());
  }
  // Contiguous ranges, one scratch each; every pool slot is written by
  // exactly one worker, so the output is thread-count independent. The
  // per-query accept closure captures (accept*, i) only — small enough for
  // std::function's inline storage, so no per-query heap traffic.
  const int64_t chunk = (n + workers - 1) / workers;
  auto run_range = [this, &queries, &accept, pools](int64_t slot,
                                                    int64_t begin,
                                                    int64_t end) {
    SpatialGridIndex::QueryScratch* scratch =
        scratch_[static_cast<size_t>(slot)].get();
    for (int64_t i = begin; i < end; ++i) {
      std::function<bool(int64_t)> accept_i;
      if (accept) {
        const BatchAcceptFn* fn = &accept;
        accept_i = [fn, i](int64_t id) { return (*fn)(i, id); };
      }
      Generate(queries[static_cast<size_t>(i)], accept_i, scratch,
               &(*pools)[static_cast<size_t>(i)]);
    }
  };
  if (workers == 1) {
    run_range(0, 0, n);
    return;
  }
  pool->Run((n + chunk - 1) / chunk, [&run_range, n, chunk](int64_t slot) {
    run_range(slot, slot * chunk, std::min(n, (slot + 1) * chunk));
  });
}

}  // namespace stisan::geo
