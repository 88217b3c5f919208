#include "geo/geo.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace stisan::geo {
namespace {
constexpr double kDegToRad = M_PI / 180.0;
}  // namespace

double HaversineKm(const GeoPoint& a, const GeoPoint& b) {
  const double lat1 = a.lat * kDegToRad;
  const double lat2 = b.lat * kDegToRad;
  const double dlat = (b.lat - a.lat) * kDegToRad;
  const double dlon = (b.lon - a.lon) * kDegToRad;
  const double s1 = std::sin(dlat / 2.0);
  const double s2 = std::sin(dlon / 2.0);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

GeoPoint OffsetKm(const GeoPoint& origin, double north_km, double east_km) {
  const double dlat = north_km / kEarthRadiusKm / kDegToRad;
  const double dlon = east_km /
                      (kEarthRadiusKm * std::cos(origin.lat * kDegToRad)) /
                      kDegToRad;
  return {origin.lat + dlat, origin.lon + dlon};
}

void BoundingBox::Extend(const GeoPoint& p) {
  min_lat = std::min(min_lat, p.lat);
  max_lat = std::max(max_lat, p.lat);
  min_lon = std::min(min_lon, p.lon);
  max_lon = std::max(max_lon, p.lon);
}

std::string ToString(const GeoPoint& p) {
  return StrFormat("(%.5f, %.5f)", p.lat, p.lon);
}

}  // namespace stisan::geo
