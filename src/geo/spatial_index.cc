#include "geo/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace stisan::geo {
namespace {
constexpr double kDegToRad = M_PI / 180.0;
// Cell-sizing scale (historical): one degree of latitude in km. Kept for
// grid-resolution choices only; distance *bounds* use the exact spherical
// arc (kEarthRadiusKm * kDegToRad per degree), which is slightly smaller —
// a bound computed with 111.32 would overestimate and could break the ring
// search before a true nearest neighbour is found.
constexpr double kKmPerDegLat = 111.32;
constexpr double kKmPerDegArc = kEarthRadiusKm * kDegToRad;

// Margins on both gap thresholds: relative for the rounding of the trig
// functions, absolute for the argument rounding of a longitude difference
// near +-360 deg. Both are orders of magnitude above either error.
constexpr double kRelMargin = 1e-9;
constexpr double kAbsMarginDeg = 1e-12;
// The bound applies only below 3 R (~19,100 km): closer to the antipode
// HaversineKm's arcsine is ill-conditioned and its rounding could exceed
// the margins.
constexpr double kBoundMaxKm = 3.0 * kEarthRadiusKm;
// The longitude threshold costs four transcendental calls, so k-NN
// recomputes it only once the cut-off has fallen below this fraction of
// the distance it was computed for (a threshold for a larger distance
// still holds).
constexpr double kLonRefresh = 0.97;

// Gap thresholds for "farther than d_km from the query" (DESIGN.md §17).
// Haversine's h is >= sin^2(dlat/2), so a point within d has
// |dlat| <= d/R; and h >= cos(lat_q) cos(lat_p) sin^2(dlon/2) with
// |lat_p| <= |lat_q| + d/R, which bounds the folded longitude gap. With
// the margins, a point beyond either threshold has HaversineKm > d, so
// both the k-NN test `dist < d` and the radius test `dist <= d` reject it:
// skipping it changes no result.
class GapBound {
 public:
  explicit GapBound(const GeoPoint& query)
      : query_(query), cos_query_(std::cos(query.lat * kDegToRad)) {}

  bool Excludes(const GeoPoint& p) const {
    if (std::fabs(p.lat - query_.lat) > max_dlat_deg_) return true;
    const double dlon = std::fabs(p.lon - query_.lon);
    return std::min(dlon, 360.0 - dlon) > max_dlon_deg_;
  }

  // One multiply: done whenever the cut-off changes.
  void SetLatitude(double d_km) {
    max_dlat_deg_ =
        d_km < kBoundMaxKm
            ? d_km / kKmPerDegArc * (1.0 + kRelMargin) + kAbsMarginDeg
            : kInf;
  }

  // Requires SetLatitude(d_km) first (or for a larger d_km).
  void SetLongitude(double d_km) {
    lon_d_km_ = d_km;
    max_dlon_deg_ = kInf;
    if (!(d_km < kBoundMaxKm)) return;
    // cos(lat_q) is computed exactly as HaversineKm computes it; the
    // farthest latitude a point within d can have carries the latitude
    // margins, which dominate the argument rounding of its cosine.
    const double far_lat =
        std::min(90.0, std::fabs(query_.lat) + max_dlat_deg_);
    const double cos_product = cos_query_ * std::cos(far_lat * kDegToRad);
    if (!(cos_product > 0.0)) return;  // a pole is within reach
    const double x =
        std::sin(0.5 * d_km / kEarthRadiusKm) / std::sqrt(cos_product);
    // Every longitude is within reach, or close enough to it that asin is
    // ill-conditioned.
    if (!(x < 1.0 - kRelMargin)) return;
    max_dlon_deg_ =
        2.0 * std::asin(x) / kDegToRad * (1.0 + kRelMargin) + kAbsMarginDeg;
  }

  // Distance the longitude threshold was last computed for.
  double longitude_km() const { return lon_d_km_; }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  GeoPoint query_;
  double cos_query_;
  double max_dlat_deg_ = kInf;
  double max_dlon_deg_ = kInf;
  double lon_d_km_ = kInf;
};
}  // namespace

SpatialGridIndex::SpatialGridIndex(std::vector<GeoPoint> points,
                                   double cell_km) {
  STISAN_CHECK_GT(cell_km, 0.0);
  for (size_t i = 0; i < points.size(); ++i) {
    const GeoPoint& p = points[i];
    // isfinite also rejects NaN, which slips through plain range compares.
    STISAN_CHECK_MSG(std::isfinite(p.lat) && std::isfinite(p.lon) &&
                         p.lat >= -90.0 && p.lat <= 90.0 &&
                         p.lon >= -180.0 && p.lon <= 180.0,
                     "SpatialGridIndex: point " << i << " at " << ToString(p)
                         << " needs a finite lat in [-90, 90] and lon in "
                            "[-180, 180]");
    bounds_.Extend(p);
  }
  if (points.empty()) {
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
  STISAN_CHECK_LE(rows_, std::numeric_limits<int64_t>::max() / cols_);
  // cos(|lat|) is smallest at whichever latitude extreme is farther from
  // the equator; cells are never wider (in km) than at that latitude.
  min_cos_lat_ =
      std::max(0.0, std::min(std::cos(bounds_.min_lat * kDegToRad),
                             std::cos(bounds_.max_lat * kDegToRad)));
  lon_span_deg_ = bounds_.max_lon - bounds_.min_lon;

  // Group points by cell without materialising the grid: count per
  // occupied cell, carve [offset, offset+count) slices out of flat arrays,
  // then fill in point order (so ids within a cell keep insertion order,
  // exactly as the former dense vector<vector> layout). Each id's
  // coordinates go to the same position, so a cell is one sequential read.
  std::vector<int64_t> cell_of(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    cell_of[i] = CellIndex(CellRow(points[i].lat), CellCol(points[i].lon));
    auto [it, inserted] = cells_.try_emplace(cell_of[i], 0, 0);
    ++it->second.second;
  }
  int64_t offset = 0;
  for (auto& [cell, span] : cells_) {
    span.first = offset;
    offset += span.second;
    span.second = span.first;  // reused as the fill cursor below
  }
  cell_point_ids_.resize(points.size());
  cell_points_.resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const size_t slot = static_cast<size_t>(cells_[cell_of[i]].second++);
    cell_point_ids_[slot] = static_cast<int64_t>(i);
    cell_points_[slot] = points[i];
  }
  // span.second now holds one-past-the-end, i.e. (offset, end) pairs.
}

int64_t SpatialGridIndex::CellRow(double lat) const {
  const int64_t r =
      static_cast<int64_t>((lat - bounds_.min_lat) / cell_deg_lat_);
  return std::clamp<int64_t>(r, 0, rows_ - 1);
}

int64_t SpatialGridIndex::CellCol(double lon) const {
  const int64_t c =
      static_cast<int64_t>((lon - bounds_.min_lon) / cell_deg_lon_);
  return std::clamp<int64_t>(c, 0, cols_ - 1);
}

SpatialGridIndex::CellSpan SpatialGridIndex::Cell(int64_t row,
                                                  int64_t col) const {
  const auto it = cells_.find(CellIndex(row, col));
  if (it == cells_.end()) return {};
  return {static_cast<size_t>(it->second.first),
          static_cast<size_t>(it->second.second)};
}

double SpatialGridIndex::RingLowerBoundKm(int64_t ring) const {
  if (ring <= 1) return 0.0;
  // A cell in Chebyshev ring r has |drow| == r or |dcol| == r, so the point
  // is separated from the query by at least (r-1) cell heights in latitude
  // OR (r-1) cell widths in longitude — the bound is the smaller of the two
  // (ISSUE: the former latitude-only bound overestimated wherever cells are
  // longitudinally narrower than cell_km, i.e. at latitudes beyond the
  // mid-latitude baked into cell_deg_lon_).
  const double cells = static_cast<double>(ring - 1);
  // Latitude: Haversine(a, b) >= R * |dlat| exactly.
  const double lat_bound_km = cells * cell_deg_lat_ * kKmPerDegArc;
  // Longitude: Haversine >= 2R asin(min cos(lat) * sin(|dlon| / 2)).
  // sin(x/2) is not monotone past x = 180deg, so take the minimum over the
  // feasible separation range [(r-1) * cell width, grid lon span].
  const double lon_sep_deg = std::min(cells * cell_deg_lon_, 360.0);
  double sin_half = std::sin(0.5 * lon_sep_deg * kDegToRad);
  sin_half = std::min(sin_half, std::sin(0.5 * lon_span_deg_ * kDegToRad));
  const double x = std::clamp(min_cos_lat_ * sin_half, 0.0, 1.0);
  const double lon_bound_km = 2.0 * kEarthRadiusKm * std::asin(x);
  return std::min(lat_bound_km, std::max(0.0, lon_bound_km));
}

std::vector<int64_t> SpatialGridIndex::KNearest(
    const GeoPoint& query, int64_t k,
    const std::function<bool(int64_t)>& accept) const {
  QueryScratch scratch;
  std::vector<int64_t> out;
  KNearestInto(query, k, accept, &scratch, &out);
  return out;
}

void SpatialGridIndex::KNearestInto(
    const GeoPoint& query, int64_t k,
    const std::function<bool(int64_t)>& accept, QueryScratch* scratch,
    std::vector<int64_t>* out) const {
  out->clear();
  if (k <= 0 || cell_points_.empty()) return;
  // Expanding ring search: examine cells in increasing Chebyshev ring order
  // around the query cell; stop when the found set is full and the next
  // ring cannot contain anything closer.
  const int64_t qr = CellRow(query.lat);
  const int64_t qc = CellCol(query.lon);

  auto& heap = scratch->heap;  // max-heap of the best k (distance, id)
  heap.clear();
  // Excludes nothing until the heap holds k points; from then on it skips
  // points that cannot beat the current k-th distance.
  GapBound bound(query);
  const auto tighten = [&bound, &heap] {
    const double top = heap.front().first;
    bound.SetLatitude(top);
    if (top < kLonRefresh * bound.longitude_km()) bound.SetLongitude(top);
  };

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
      // Interior rows visit only the two rim columns; the top and bottom
      // rows sweep the full [-ring, ring] span.
      const int64_t dc_step =
          (std::llabs(dr) == ring || ring == 0) ? 1 : 2 * ring;
      for (int64_t dc = -ring; dc <= ring; dc += dc_step) {
        const int64_t c = qc + dc;
        if (c < 0 || c >= cols_) continue;
        ring_in_bounds = true;
        const CellSpan span = Cell(r, c);
        for (size_t i = span.begin; i < span.end; ++i) {
          const GeoPoint& p = cell_points_[i];
          if (bound.Excludes(p)) continue;
          const int64_t id = cell_point_ids_[i];
          if (accept && !accept(id)) continue;
          const double dist = HaversineKm(query, p);
          if (static_cast<int64_t>(heap.size()) < k) {
            heap.emplace_back(dist, id);
            std::push_heap(heap.begin(), heap.end());
            if (static_cast<int64_t>(heap.size()) == k) tighten();
          } else if (dist < heap.front().first) {
            std::pop_heap(heap.begin(), heap.end());
            heap.back() = {dist, id};
            std::push_heap(heap.begin(), heap.end());
            tighten();
          }
        }
      }
    }
    if (!ring_in_bounds && ring > 0 && qr - ring < 0 && qr + ring >= rows_ &&
        qc - ring < 0 && qc + ring >= cols_) {
      break;  // ring fully outside the grid
    }
  }

  out->resize(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    (*out)[i] = heap.front().second;
    std::pop_heap(heap.begin(), heap.begin() + static_cast<int64_t>(i) + 1);
  }
  heap.clear();
}

std::vector<int64_t> SpatialGridIndex::WithinRadius(
    const GeoPoint& query, double radius_km) const {
  std::vector<int64_t> out;
  if (cell_points_.empty()) return out;
  // Cells are cell_km tall in latitude by construction; their longitudinal
  // width in km narrows toward the poles — size the scan with the minimum
  // width over the grid's latitude range plus a safety cell, clamped to the
  // grid (a polar extent degenerates to a full column sweep, never a
  // missed point).
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
  // Fixed cut-off: a point beyond either gap is farther than radius_km.
  GapBound bound(query);
  bound.SetLatitude(radius_km);
  bound.SetLongitude(radius_km);
  for (int64_t r = std::max<int64_t>(0, qr - ring_lat);
       r <= std::min(rows_ - 1, qr + ring_lat); ++r) {
    for (int64_t c = std::max<int64_t>(0, qc - ring_lon);
         c <= std::min(cols_ - 1, qc + ring_lon); ++c) {
      const CellSpan span = Cell(r, c);
      for (size_t i = span.begin; i < span.end; ++i) {
        const GeoPoint& p = cell_points_[i];
        if (!bound.Excludes(p) && HaversineKm(query, p) <= radius_km) {
          out.push_back(cell_point_ids_[i]);
        }
      }
    }
  }
  return out;
}

}  // namespace stisan::geo
