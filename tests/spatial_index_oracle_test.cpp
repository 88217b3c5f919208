// Exact oracle for geo::SpatialGridIndex's two searches (DESIGN.md §17).
//
// ReferenceGrid below is the grid search as it ran before the index skipped
// points by their latitude and longitude gap: the same cell layout, ring
// order and early exit, with HaversineKm computed for every point `accept`
// lets through. The gap bound may only skip points that loop rejects, so
// the index must return exactly the oracle's ids in the oracle's order —
// ties at the k-th distance included, which a comparison by distance
// cannot see.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/synthetic.h"
#include "geo/geo.h"
#include "geo/spatial_index.h"
#include "util/rng.h"

namespace stisan {
namespace {

using geo::BoundingBox;
using geo::GeoPoint;
using geo::HaversineKm;
using geo::kEarthRadiusKm;
using geo::OffsetKm;
using geo::SpatialGridIndex;

using AcceptFn = std::function<bool(int64_t)>;

// The index's cell layout and both search loops over a plain point vector,
// with cells as id lists in insertion order.
class ReferenceGrid {
 public:
  ReferenceGrid(std::vector<GeoPoint> points, double cell_km)
      : points_(std::move(points)) {
    for (const auto& p : points_) bounds_.Extend(p);
    if (points_.empty()) {
      rows_ = cols_ = 1;
      cell_deg_lat_ = cell_deg_lon_ = 1.0;
      return;
    }
    const double mid_lat =
        0.5 * (bounds_.min_lat + bounds_.max_lat) * kDegToRad;
    cell_deg_lat_ = cell_km / kKmPerDegLat;
    cell_deg_lon_ =
        cell_km / (kKmPerDegLat * std::max(0.05, std::cos(mid_lat)));
    rows_ = std::max<int64_t>(
        1, static_cast<int64_t>((bounds_.max_lat - bounds_.min_lat) /
                                cell_deg_lat_) +
               1);
    cols_ = std::max<int64_t>(
        1, static_cast<int64_t>((bounds_.max_lon - bounds_.min_lon) /
                                cell_deg_lon_) +
               1);
    min_cos_lat_ =
        std::max(0.0, std::min(std::cos(bounds_.min_lat * kDegToRad),
                               std::cos(bounds_.max_lat * kDegToRad)));
    lon_span_deg_ = bounds_.max_lon - bounds_.min_lon;
    for (size_t i = 0; i < points_.size(); ++i) {
      cells_[CellRow(points_[i].lat) * cols_ + CellCol(points_[i].lon)]
          .push_back(static_cast<int64_t>(i));
    }
  }

  std::vector<int64_t> KNearest(const GeoPoint& query, int64_t k,
                                const AcceptFn& accept) const {
    std::vector<int64_t> out;
    if (k <= 0 || points_.empty()) return out;
    const int64_t qr = CellRow(query.lat);
    const int64_t qc = CellCol(query.lon);
    std::vector<std::pair<double, int64_t>> heap;
    const int64_t max_ring = std::max(rows_, cols_);
    for (int64_t ring = 0; ring <= max_ring; ++ring) {
      if (static_cast<int64_t>(heap.size()) == k &&
          heap.front().first < RingLowerBoundKm(ring)) {
        break;
      }
      bool ring_in_bounds = false;
      for (int64_t dr = -ring; dr <= ring; ++dr) {
        const int64_t r = qr + dr;
        if (r < 0 || r >= rows_) continue;
        const int64_t dc_step =
            (std::llabs(dr) == ring || ring == 0) ? 1 : 2 * ring;
        for (int64_t dc = -ring; dc <= ring; dc += dc_step) {
          const int64_t c = qc + dc;
          if (c < 0 || c >= cols_) continue;
          ring_in_bounds = true;
          for (const int64_t id : Cell(r, c)) {
            if (accept && !accept(id)) continue;
            const double dist =
                HaversineKm(query, points_[static_cast<size_t>(id)]);
            if (static_cast<int64_t>(heap.size()) < k) {
              heap.emplace_back(dist, id);
              std::push_heap(heap.begin(), heap.end());
            } else if (dist < heap.front().first) {
              std::pop_heap(heap.begin(), heap.end());
              heap.back() = {dist, id};
              std::push_heap(heap.begin(), heap.end());
            }
          }
        }
      }
      if (!ring_in_bounds && ring > 0 && qr - ring < 0 &&
          qr + ring >= rows_ && qc - ring < 0 && qc + ring >= cols_) {
        break;
      }
    }
    out.resize(heap.size());
    for (size_t i = heap.size(); i-- > 0;) {
      out[i] = heap.front().second;
      std::pop_heap(heap.begin(), heap.begin() + static_cast<int64_t>(i) + 1);
    }
    return out;
  }

  std::vector<int64_t> WithinRadius(const GeoPoint& query,
                                    double radius_km) const {
    std::vector<int64_t> out;
    if (points_.empty()) return out;
    const double cell_km_lat = cell_deg_lat_ * kKmPerDegArc;
    const double cell_km_lon =
        cell_deg_lon_ * kKmPerDegArc * std::max(min_cos_lat_, 1e-9);
    const auto scan_cells = [](double radius, double cell_km, int64_t limit) {
      const double cells = radius / cell_km;
      if (!(cells < static_cast<double>(limit))) return limit;
      return std::min(limit, static_cast<int64_t>(cells) + 2);
    };
    const int64_t ring_lat = scan_cells(radius_km, cell_km_lat, rows_);
    const int64_t ring_lon = scan_cells(radius_km, cell_km_lon, cols_);
    const int64_t qr = CellRow(query.lat);
    const int64_t qc = CellCol(query.lon);
    for (int64_t r = std::max<int64_t>(0, qr - ring_lat);
         r <= std::min(rows_ - 1, qr + ring_lat); ++r) {
      for (int64_t c = std::max<int64_t>(0, qc - ring_lon);
           c <= std::min(cols_ - 1, qc + ring_lon); ++c) {
        for (const int64_t id : Cell(r, c)) {
          if (HaversineKm(query, points_[static_cast<size_t>(id)]) <=
              radius_km) {
            out.push_back(id);
          }
        }
      }
    }
    return out;
  }

 private:
  static constexpr double kDegToRad = M_PI / 180.0;
  static constexpr double kKmPerDegLat = 111.32;
  static constexpr double kKmPerDegArc = kEarthRadiusKm * kDegToRad;

  int64_t CellRow(double lat) const {
    const int64_t r =
        static_cast<int64_t>((lat - bounds_.min_lat) / cell_deg_lat_);
    return std::clamp<int64_t>(r, 0, rows_ - 1);
  }
  int64_t CellCol(double lon) const {
    const int64_t c =
        static_cast<int64_t>((lon - bounds_.min_lon) / cell_deg_lon_);
    return std::clamp<int64_t>(c, 0, cols_ - 1);
  }
  const std::vector<int64_t>& Cell(int64_t row, int64_t col) const {
    static const std::vector<int64_t> kEmpty;
    const auto it = cells_.find(row * cols_ + col);
    return it == cells_.end() ? kEmpty : it->second;
  }
  double RingLowerBoundKm(int64_t ring) const {
    if (ring <= 1) return 0.0;
    const double cells = static_cast<double>(ring - 1);
    const double lat_bound_km = cells * cell_deg_lat_ * kKmPerDegArc;
    const double lon_sep_deg = std::min(cells * cell_deg_lon_, 360.0);
    double sin_half = std::sin(0.5 * lon_sep_deg * kDegToRad);
    sin_half = std::min(sin_half, std::sin(0.5 * lon_span_deg_ * kDegToRad));
    const double x = std::clamp(min_cos_lat_ * sin_half, 0.0, 1.0);
    const double lon_bound_km = 2.0 * kEarthRadiusKm * std::asin(x);
    return std::min(lat_bound_km, std::max(0.0, lon_bound_km));
  }

  std::vector<GeoPoint> points_;
  BoundingBox bounds_;
  double cell_deg_lat_ = 0.0;
  double cell_deg_lon_ = 0.0;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  double min_cos_lat_ = 1.0;
  double lon_span_deg_ = 0.0;
  std::map<int64_t, std::vector<int64_t>> cells_;
};

// Both searches on both implementations, compared id for id.
class OracleCheck {
 public:
  OracleCheck(const std::vector<GeoPoint>& points, double cell_km)
      : index_(points, cell_km), oracle_(points, cell_km) {}

  void Knn(const GeoPoint& q, int64_t k, const AcceptFn& accept,
           const std::string& context) {
    index_.KNearestInto(q, k, accept, &scratch_, &out_);
    EXPECT_EQ(out_, oracle_.KNearest(q, k, accept))
        << context << " q=" << geo::ToString(q) << " k=" << k;
  }

  void Radius(const GeoPoint& q, double radius_km,
              const std::string& context) {
    EXPECT_EQ(index_.WithinRadius(q, radius_km),
              oracle_.WithinRadius(q, radius_km))
        << context << " q=" << geo::ToString(q) << " r=" << radius_km;
  }

  const SpatialGridIndex& index() const { return index_; }
  const std::vector<int64_t>& last() const { return out_; }

 private:
  SpatialGridIndex index_;
  ReferenceGrid oracle_;
  SpatialGridIndex::QueryScratch scratch_;
  std::vector<int64_t> out_;
};

// Runs k-NN at each k, with and without `accept`, and the radius search
// at each radius, for every query.
void SweepQueries(OracleCheck& check, const std::vector<GeoPoint>& queries,
                  const std::vector<int64_t>& ks, const AcceptFn& accept,
                  const std::vector<double>& radii,
                  const std::string& context) {
  for (const GeoPoint& q : queries) {
    for (const int64_t k : ks) {
      check.Knn(q, k, nullptr, context);
      if (accept) check.Knn(q, k, accept, context + " filtered");
    }
    for (const double r : radii) check.Radius(q, r, context);
  }
}

// Mixes queries at data points with queries displaced from them.
std::vector<GeoPoint> QueriesNear(const std::vector<GeoPoint>& pts, int n,
                                  double jitter_km, Rng& rng) {
  std::vector<GeoPoint> queries;
  for (int i = 0; i < n; ++i) {
    const GeoPoint p =
        pts[rng.UniformInt(static_cast<uint64_t>(pts.size()))];
    queries.push_back(i % 2 == 0 ? p
                                 : OffsetKm(p, rng.Normal(0, jitter_km),
                                            rng.Normal(0, jitter_km)));
  }
  return queries;
}

// The property suite's four fuzzed families (ranking_test's MakePoints).
std::vector<GeoPoint> FuzzedSet(int config, Rng& rng) {
  std::vector<GeoPoint> pts;
  switch (config) {
    case 0: {  // clustered around a mid-latitude city
      const GeoPoint center{43.88, 125.35};
      for (int c = 0; c < 6; ++c) {
        const GeoPoint cc =
            OffsetKm(center, rng.Normal(0, 12), rng.Normal(0, 12));
        for (int i = 0; i < 60; ++i) {
          pts.push_back(OffsetKm(cc, rng.Normal(0, 1.0), rng.Normal(0, 1.0)));
        }
      }
      break;
    }
    case 1:  // collinear: all points on one parallel
      for (int i = 0; i < 250; ++i) pts.push_back({51.5, -0.5 + 0.004 * i});
      break;
    case 2:  // high latitude, tall latitude extent (anisotropic cells)
      for (int i = 0; i < 300; ++i) {
        pts.push_back({62.0 + 16.0 * rng.Uniform(),
                       10.0 + 2.0 * rng.Uniform()});
      }
      break;
    default:  // sparse uniform over a wide box
      for (int i = 0; i < 200; ++i) {
        pts.push_back({30.0 + 10.0 * rng.Uniform(),
                       100.0 + 10.0 * rng.Uniform()});
      }
      break;
  }
  return pts;
}

TEST(SpatialIndexOracleTest, FuzzedSets) {
  const AcceptFn every_third = [](int64_t id) { return id % 3 != 0; };
  for (int config = 0; config < 4; ++config) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(1000 * static_cast<uint64_t>(config) + seed);
      const auto pts = FuzzedSet(config, rng);
      // The tall high-latitude set and the sparse box span ~1,000 km:
      // coarser cells keep their wide queries off millions of empty cells.
      const double scale = config >= 2 ? 4.0 : 1.0;
      for (const double cell_km : {0.5 * scale, 2.0 * scale}) {
        OracleCheck check(pts, cell_km);
        SweepQueries(check, QueriesNear(pts, 6, 2.0, rng), {1, 7, 64, 120},
                     every_third, {0.3, 2.0, 15.0},
                     "config=" + std::to_string(config) +
                         " seed=" + std::to_string(seed) +
                         " cell=" + std::to_string(cell_km));
      }
    }
  }
}

TEST(SpatialIndexOracleTest, IdenticalCoordinatesTieAtTheKthDistance) {
  // 40 locations, each shared by 1-8 POIs whose ids are shuffled, so the
  // k-th distance falls inside a group of equal distances for most k.
  Rng rng(31);
  std::vector<GeoPoint> sites;
  for (int s = 0; s < 40; ++s) {
    sites.push_back(OffsetKm({48.85, 2.35}, rng.Normal(0, 1.5),
                             rng.Normal(0, 1.5)));
  }
  std::vector<GeoPoint> pts;
  for (const GeoPoint& site : sites) {
    const int64_t copies = rng.UniformInt(int64_t{1}, int64_t{8});
    for (int64_t c = 0; c < copies; ++c) pts.push_back(site);
  }
  rng.Shuffle(pts);
  std::vector<int64_t> ks;
  for (int64_t k = 1; k <= 60; ++k) ks.push_back(k);
  const AcceptFn odd = [](int64_t id) { return id % 2 == 1; };
  for (const double cell_km : {0.25, 2.0}) {
    OracleCheck check(pts, cell_km);
    SweepQueries(check, QueriesNear(sites, 8, 0.3, rng), ks, odd,
                 {0.0, 0.5, 1.5}, "cell=" + std::to_string(cell_km));
    // A query on a site: its copies all sit at distance 0.
    SweepQueries(check, {sites[0], sites[7]}, ks, odd, {0.0},
                 "on a site, cell=" + std::to_string(cell_km));
  }
}

TEST(SpatialIndexOracleTest, PointExactlyAtTheRadius) {
  // The clustered set, and a set on one meridian: there the distance is
  // the latitude gap alone, so the latitude threshold for a radius equal
  // to a point's distance lands on that point, and only the margins keep
  // rounding from skipping it.
  Rng rng(41);
  std::vector<GeoPoint> meridian;
  for (int i = 0; i < 200; ++i) {
    meridian.push_back({43.88 + rng.Normal(0, 0.05), 125.35});
  }
  for (const auto& pts : {FuzzedSet(0, rng), meridian}) {
    OracleCheck check(pts, 1.0);
    const auto pick = [&] {
      return static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(pts.size())));
    };
    for (int qi = 0; qi < 20; ++qi) {
      const GeoPoint q = pts[static_cast<size_t>(pick())];
      for (int pi = 0; pi < 10; ++pi) {
        const int64_t id = pick();
        const double r = HaversineKm(q, pts[static_cast<size_t>(id)]);
        const auto within = check.index().WithinRadius(q, r);
        EXPECT_NE(std::find(within.begin(), within.end(), id), within.end())
            << "a point exactly at the radius is inside";
        check.Radius(q, r, "exact radius");
        check.Radius(q, std::nextafter(r, 0.0), "radius one ulp short");
        check.Radius(q, std::nextafter(r, 1e9), "radius one ulp long");
      }
    }
  }
}

TEST(SpatialIndexOracleTest, SetSpanningTheAntimeridian) {
  // A band hugging +-180 deg at 64 deg, plus points exactly on the
  // antimeridian from both sides. The grid does not wrap, so neighbours
  // across the line sit at opposite ends of its columns; the folded
  // longitude gap must still keep them. (Cells stay coarse: with a 360 deg
  // extent the ring search never exits early, in either implementation.)
  Rng rng(53);
  std::vector<GeoPoint> pts;
  for (int i = 0; i < 300; ++i) {
    const double lon = 179.0 + rng.Uniform();
    pts.push_back({64.0 + rng.Normal(0, 0.3), i % 2 == 0 ? lon : -lon});
  }
  pts.push_back({64.0, 180.0});
  pts.push_back({64.0, -180.0});
  pts.push_back({64.01, 180.0});
  const AcceptFn filter = [](int64_t id) { return id % 5 != 2; };
  for (const double cell_km : {10.0, 40.0}) {
    OracleCheck check(pts, cell_km);
    std::vector<GeoPoint> queries = QueriesNear(pts, 10, 3.0, rng);
    queries.push_back({64.0, 180.0});
    queries.push_back({64.0, -180.0});
    queries.push_back({64.0, -179.9999});
    SweepQueries(check, queries, {1, 10, 50, 400}, filter,
                 {5.0, 50.0, 200.0}, "cell=" + std::to_string(cell_km));
  }
}

TEST(SpatialIndexOracleTest, PolarSets) {
  // |lat| >= 88 at every longitude, with points exactly on the pole: the
  // longitude test must drop out where a pole is within reach. The second
  // set spans both poles, so distances approach the antipodal limit.
  Rng rng(67);
  std::vector<GeoPoint> north;
  for (int i = 0; i < 240; ++i) {
    north.push_back({88.0 + 2.0 * rng.Uniform(),
                     -180.0 + 360.0 * rng.Uniform()});
  }
  north.push_back({90.0, 0.0});
  north.push_back({90.0, 135.0});
  north.push_back({89.9999999, 180.0});
  std::vector<GeoPoint> both = north;
  for (int i = 0; i < 80; ++i) {
    both.push_back({-88.0 - 2.0 * rng.Uniform(),
                    -180.0 + 360.0 * rng.Uniform()});
  }
  both.push_back({-90.0, -45.0});
  const AcceptFn filter = [](int64_t id) { return id % 4 != 0; };
  for (const auto& [pts, cell_km] :
       {std::pair{north, 5.0}, std::pair{north, 20.0},
        std::pair{both, 300.0}}) {
    OracleCheck check(pts, cell_km);
    std::vector<GeoPoint> queries = QueriesNear(pts, 8, 5.0, rng);
    queries.push_back({90.0, 0.0});
    queries.push_back({89.99, -170.0});
    queries.push_back({-90.0, 180.0});
    SweepQueries(check, queries, {1, 10, 100, 300}, filter,
                 {1.0, 30.0, 300.0, 19000.0, 25000.0},
                 "cell=" + std::to_string(cell_km));
  }
}

TEST(SpatialIndexOracleTest, KAtAndAboveTheAcceptedCount) {
  Rng rng(71);
  const auto pts = FuzzedSet(3, rng);  // 200 points
  // 200 / 9 rounded up: ids 0, 9, ..., 198.
  const AcceptFn ninth = [](int64_t id) { return id % 9 == 0; };
  const int64_t accepted = 23;
  // Coarse cells: a k the filter cannot fill scans the whole grid.
  OracleCheck check(pts, 5.0);
  for (const GeoPoint& q : QueriesNear(pts, 8, 1.0, rng)) {
    for (const int64_t k : {accepted - 1, accepted, accepted + 1,
                            int64_t{10} * accepted}) {
      check.Knn(q, k, ninth, "ninth");
      EXPECT_EQ(static_cast<int64_t>(check.last().size()),
                std::min(k, accepted));
    }
    for (const int64_t k : {int64_t{199}, int64_t{200}, int64_t{201}}) {
      check.Knn(q, k, nullptr, "all");
    }
  }
}

TEST(SpatialIndexOracleTest, FilterRejectingMostPoints) {
  Rng rng(83);
  const auto pts = FuzzedSet(2, rng);
  const AcceptFn rare = [](int64_t id) { return id % 29 == 0; };
  OracleCheck check(pts, 2.0);
  SweepQueries(check, QueriesNear(pts, 12, 1.0, rng), {1, 3, 8, 11, 100},
               rare, {}, "rare");
}

// Every serve-shaped stage-one query of the metro catalog (10^5 POIs, 64
// users): after every second check-in of each history, the 500 nearest
// POIs the user has not visited, around that check-in; plus the
// generator's 1.5 km radius around it.
TEST(SpatialIndexOracleTest, MetroServeQueries) {
  data::SyntheticConfig cfg = data::MetroScaleConfig(1.0);
  cfg.num_users = 64;
  const data::Dataset ds = data::GenerateSynthetic(cfg);
  const std::vector<GeoPoint> coords(ds.poi_coords.begin() + 1,
                                     ds.poi_coords.end());
  OracleCheck check(coords, 2.0);
  int64_t queries = 0;
  for (const auto& seq : ds.user_seqs) {
    std::unordered_set<int64_t> visited;
    for (size_t t = 0; t < seq.size(); ++t) {
      visited.insert(seq[t].poi);
      if (t % 2 == 0) continue;
      const GeoPoint& q = ds.poi_location(seq[t].poi);
      const AcceptFn unvisited = [&visited](int64_t id) {
        return !visited.contains(id + 1);
      };
      check.Knn(q, 500, unvisited, "metro user pool");
      ASSERT_EQ(check.last().size(), 500u);
      check.Radius(q, cfg.nearby_radius_km, "metro nearby");
      ++queries;
    }
  }
  EXPECT_GT(queries, 1500);
}

}  // namespace
}  // namespace stisan
