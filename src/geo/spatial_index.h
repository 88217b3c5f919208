// Sparse-grid spatial index over a set of points with k-nearest-neighbour
// and radius queries. Used for the paper's evaluation protocol (rank the
// target against its 100 nearest unvisited POIs), the importance-based
// negative sampler (L negatives from the target's nearest 2000 neighbours),
// and the two-stage full-catalog ranker (DESIGN.md §17).
//
// Cells are stored in a hash map keyed by cell index, so memory is
// O(points), not O(rows x cols): a continent-span catalog with km-scale
// cells addresses hundreds of millions of grid cells but only materialises
// the occupied ones. Point ids within a cell keep insertion order, so query
// results are deterministic and identical to the former dense-grid layout.

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geo/geo.h"

namespace stisan::geo {

/// Immutable grid index over points identified by their insertion index.
class SpatialGridIndex {
 public:
  /// Builds an index over `points`. `cell_km` controls grid resolution;
  /// smaller cells speed up small-k queries on dense data.
  explicit SpatialGridIndex(std::vector<GeoPoint> points,
                            double cell_km = 2.0);

  /// Reusable query scratch. The *Into query variants are allocation-free
  /// once the scratch (and the output vector) have grown to steady-state
  /// capacity, which is what makes the candidate-generation hot path
  /// malloc-free (geo::CandidateGenerator keeps one per worker range).
  struct QueryScratch {
    std::vector<std::pair<double, int64_t>> heap;  // max-heap of best k
  };

  /// Returns the ids of the `k` nearest points to `query`, ascending by
  /// Haversine distance. Points for which `accept` returns false are
  /// skipped (pass nullptr to accept everything). Returns fewer than k ids
  /// when not enough acceptable points exist.
  std::vector<int64_t> KNearest(
      const GeoPoint& query, int64_t k,
      const std::function<bool(int64_t)>& accept = nullptr) const;

  /// KNearest into caller-owned buffers: `out` is cleared and filled with
  /// the result; `scratch` carries the internal heap across calls.
  void KNearestInto(const GeoPoint& query, int64_t k,
                    const std::function<bool(int64_t)>& accept,
                    QueryScratch* scratch, std::vector<int64_t>* out) const;

  /// Returns all point ids within `radius_km` of `query` (unsorted).
  std::vector<int64_t> WithinRadius(const GeoPoint& query,
                                    double radius_km) const;

  int64_t size() const { return static_cast<int64_t>(points_.size()); }
  const GeoPoint& point(int64_t id) const {
    return points_[static_cast<size_t>(id)];
  }
  /// Number of materialised (occupied) cells.
  int64_t occupied_cells() const {
    return static_cast<int64_t>(cells_.size());
  }
  /// Total addressable grid cells (rows x cols) — the dense-layout cost.
  int64_t addressable_cells() const { return rows_ * cols_; }

 private:
  /// Contiguous slice of cell_point_ids_ belonging to one cell.
  struct CellSpan {
    const int64_t* begin = nullptr;
    const int64_t* end = nullptr;
  };

  int64_t CellRow(double lat) const;
  int64_t CellCol(double lon) const;
  int64_t CellIndex(int64_t row, int64_t col) const {
    return row * cols_ + col;
  }
  CellSpan Cell(int64_t row, int64_t col) const;
  /// Exact lower bound (km) on the distance from the query to any point in
  /// Chebyshev ring `ring` around the query's cell.
  double RingLowerBoundKm(int64_t ring) const;

  std::vector<GeoPoint> points_;
  BoundingBox bounds_;
  double cell_deg_lat_ = 0.0;
  double cell_deg_lon_ = 0.0;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  /// Smallest cosine of latitude over the grid's latitude range (the
  /// narrowest a cell gets, longitudinally). Not clamped: the early-exit
  /// bound must never overestimate how far the next ring is.
  double min_cos_lat_ = 1.0;
  double lon_span_deg_ = 0.0;
  /// Point ids grouped by cell (insertion order within a cell), plus the
  /// sparse map from cell index to the [offset, offset+count) slice.
  std::vector<int64_t> cell_point_ids_;
  std::unordered_map<int64_t, std::pair<int64_t, int64_t>> cells_;
};

}  // namespace stisan::geo
