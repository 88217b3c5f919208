// Stage one of the two-stage full-catalog ranker (DESIGN.md §17): a
// geo-pruned candidate generator over the sparse SpatialGridIndex.
//
// For each query location it retrieves a candidate pool — the pool_size
// nearest accepted points — that stage two (eval::BatchScorer) then
// re-ranks. Batches of queries are partitioned into contiguous ranges
// across a caller-supplied thread pool (the evaluators pass the kernel
// backend's global pool); each range reuses one QueryScratch and the
// caller's output vectors, so the per-query hot path performs no
// allocations at steady state.
//
// Determinism: each pool is a pure function of (index, query, accept), and
// every output slot is written by exactly one worker, so results are
// identical at any thread count.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "geo/spatial_index.h"
#include "util/thread_pool.h"

namespace stisan::geo {

struct CandidatePoolOptions {
  /// Each pool holds the pool_size nearest accepted points, ascending by
  /// distance.
  int64_t pool_size = 500;
};

class CandidateGenerator {
 public:
  /// Per-query accept filter for the batched variant: (query index in the
  /// batch, point id) -> keep? nullptr accepts everything.
  using BatchAcceptFn = std::function<bool(int64_t, int64_t)>;

  /// The index must outlive the generator.
  CandidateGenerator(const SpatialGridIndex& index,
                     CandidatePoolOptions options);

  /// Fills `out` with the pool for one query. `scratch` (and `out`) are
  /// caller-owned and reused across calls — the allocation-free path.
  void Generate(const GeoPoint& query,
                const std::function<bool(int64_t)>& accept,
                SpatialGridIndex::QueryScratch* scratch,
                std::vector<int64_t>* out) const;

  /// Batched stage one: fills (*pools)[i] with the pool for queries[i],
  /// thread-pooled over contiguous query ranges of `pool` (pass
  /// kernels::GlobalPool(); nullptr runs serially). `pools` is resized to
  /// the batch; existing vector capacity is reused. Not reentrant:
  /// concurrent GenerateBatch calls on the same generator must be
  /// externally serialised (the per-range scratch buffers are shared
  /// state).
  void GenerateBatch(const std::vector<GeoPoint>& queries,
                     const BatchAcceptFn& accept, ThreadPool* pool,
                     std::vector<std::vector<int64_t>>* pools) const;

  const SpatialGridIndex& index() const { return index_; }
  const CandidatePoolOptions& options() const { return options_; }

 private:
  const SpatialGridIndex& index_;
  CandidatePoolOptions options_;
  /// One scratch per worker range, grown lazily and reused across batches.
  mutable std::vector<std::unique_ptr<SpatialGridIndex::QueryScratch>>
      scratch_;
};

}  // namespace stisan::geo
