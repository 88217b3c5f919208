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
// Coordinates are stored once, in cell order beside the ids, so a query
// reads each cell sequentially.
//
// Both searches skip a point before `accept` and before HaversineKm once
// its latitude or longitude gap to the query proves it farther than the
// current cut-off (the k-th best distance, or the radius). A skipped point
// is one the search would have rejected anyway, so results, ties and
// output order are those of testing every point (DESIGN.md §17).

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
  /// smaller cells speed up small-k queries on dense data. CHECK-fails on
  /// a coordinate that is not finite or lies outside lat [-90, 90],
  /// lon [-180, 180] (the CSV loader's rule).
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
  /// when not enough acceptable points exist. `accept` is called only on
  /// points that could still enter the result, a subset of the points the
  /// search visits, in an order that may change between versions; it must
  /// be pure (no side effects, the same answer for the same id).
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

  int64_t size() const { return static_cast<int64_t>(cell_point_ids_.size()); }
  /// Number of materialised (occupied) cells.
  int64_t occupied_cells() const {
    return static_cast<int64_t>(cells_.size());
  }
  /// Total addressable grid cells (rows x cols) — the dense-layout cost.
  int64_t addressable_cells() const { return rows_ * cols_; }

 private:
  /// [begin, end) positions of one cell in cell_point_ids_/cell_points_.
  struct CellSpan {
    size_t begin = 0;
    size_t end = 0;
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
  /// Point ids grouped by cell (insertion order within a cell), their
  /// coordinates at the same positions, and the sparse map from cell index
  /// to the [offset, end) slice.
  std::vector<int64_t> cell_point_ids_;
  std::vector<GeoPoint> cell_points_;
  std::unordered_map<int64_t, std::pair<int64_t, int64_t>> cells_;
};

}  // namespace stisan::geo
