// Geographic primitives: GPS points, Haversine distance, bounding boxes.

#pragma once

#include <cstdint>
#include <string>

namespace stisan::geo {

/// Mean Earth radius in kilometres.
inline constexpr double kEarthRadiusKm = 6371.0088;

/// A WGS84 coordinate in degrees.
struct GeoPoint {
  double lat = 0.0;  // [-90, 90]
  double lon = 0.0;  // [-180, 180]

  bool operator==(const GeoPoint&) const = default;
};

/// Great-circle distance between two points, in kilometres (paper eq. 4).
double HaversineKm(const GeoPoint& a, const GeoPoint& b);

/// Returns a point displaced from `origin` by the given offsets (km) along
/// the north and east axes. Accurate for city-scale displacements.
GeoPoint OffsetKm(const GeoPoint& origin, double north_km, double east_km);

/// An axis-aligned lat/lon rectangle.
struct BoundingBox {
  double min_lat = 90.0;
  double max_lat = -90.0;
  double min_lon = 180.0;
  double max_lon = -180.0;

  void Extend(const GeoPoint& p);
  bool empty() const { return min_lat > max_lat; }
};

/// Formats a point as "(lat, lon)" with 5 decimals.
std::string ToString(const GeoPoint& p);

}  // namespace stisan::geo
