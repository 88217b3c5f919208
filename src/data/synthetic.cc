#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_set>
#include <vector>

#include "geo/spatial_index.h"
#include "util/check.h"
#include "util/rng.h"

namespace stisan::data {
namespace {

constexpr double kHour = 3600.0;

struct World {
  std::vector<geo::GeoPoint> cluster_centers;
  std::vector<int64_t> poi_cluster;       // cluster of each POI (1-based ids)
  /// Movement-sampling weight per POI: Zipf popularity raised to
  /// popularity_weight, computed once per world.
  std::vector<double> poi_weight;
  /// Sum of poi_weight[1..P] in id order (Rng::Categorical's order).
  double poi_weight_total = 0.0;
  std::vector<std::vector<int64_t>> cluster_pois;
};

World BuildWorld(const SyntheticConfig& cfg, Rng& rng,
                 std::vector<geo::GeoPoint>* poi_coords) {
  World world;
  // Activity centres uniform in the city disk.
  for (int64_t c = 0; c < cfg.num_clusters; ++c) {
    const double r = cfg.city_radius_km * std::sqrt(rng.Uniform());
    const double theta = rng.Uniform() * 2.0 * M_PI;
    world.cluster_centers.push_back(geo::OffsetKm(
        cfg.city_center, r * std::sin(theta), r * std::cos(theta)));
  }
  // POIs: cluster chosen by a skewed distribution, position gaussian around
  // the centre, popularity Zipf over a random permutation (so popularity is
  // not correlated with id order).
  poi_coords->clear();
  poi_coords->push_back({});  // padding POI 0
  world.poi_cluster.assign(static_cast<size_t>(cfg.num_pois) + 1, 0);
  world.poi_weight.assign(static_cast<size_t>(cfg.num_pois) + 1, 0.0);
  world.cluster_pois.resize(static_cast<size_t>(cfg.num_clusters));
  std::vector<int64_t> rank(static_cast<size_t>(cfg.num_pois));
  for (size_t i = 0; i < rank.size(); ++i) rank[i] = static_cast<int64_t>(i);
  rng.Shuffle(rank);
  const ZipfSampler cluster_zipf(static_cast<size_t>(cfg.num_clusters),
                                 cfg.cluster_zipf_alpha);
  for (int64_t p = 1; p <= cfg.num_pois; ++p) {
    const size_t cluster = cluster_zipf.Sample(rng);
    const geo::GeoPoint center = world.cluster_centers[cluster];
    poi_coords->push_back(geo::OffsetKm(
        center, rng.Normal(0.0, cfg.cluster_radius_km),
        rng.Normal(0.0, cfg.cluster_radius_km)));
    world.poi_cluster[static_cast<size_t>(p)] = static_cast<int64_t>(cluster);
    world.cluster_pois[cluster].push_back(p);
    const double popularity = std::pow(
        double(rank[static_cast<size_t>(p - 1)] + 1), -cfg.poi_zipf_alpha);
    world.poi_weight[static_cast<size_t>(p)] =
        std::pow(popularity, cfg.popularity_weight);
    world.poi_weight_total += world.poi_weight[static_cast<size_t>(p)];
  }
  return world;
}

// Samples a POI id from the whole catalog weighted by World::poi_weight,
// walking the weights in place against the total summed once per world.
int64_t SamplePopularPoi(const World& world, Rng& rng) {
  return 1 + static_cast<int64_t>(rng.Categorical(
                 std::span<const double>(world.poi_weight).subspan(1),
                 world.poi_weight_total));
}

// Samples weighted by World::poi_weight x exp(-distance / decay_km),
// optionally x exp(momentum * cos(angle between the previous move direction
// and the move to the candidate)).
int64_t SampleByPopularityAndDistance(const std::vector<int64_t>& candidates,
                                      const World& world,
                                      const std::vector<geo::GeoPoint>& coords,
                                      const geo::GeoPoint& origin,
                                      double decay_km, Rng& rng,
                                      const geo::GeoPoint* previous = nullptr,
                                      double momentum = 0.0) {
  STISAN_CHECK(!candidates.empty());
  // Previous move direction (km offsets), if meaningful.
  double dir_x = 0.0, dir_y = 0.0, dir_norm = 0.0;
  if (previous != nullptr && momentum > 0.0) {
    dir_y = origin.lat - previous->lat;
    dir_x = (origin.lon - previous->lon) *
            std::cos(origin.lat * M_PI / 180.0);
    dir_norm = std::sqrt(dir_x * dir_x + dir_y * dir_y);
  }
  std::vector<double> w(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const auto& c = coords[static_cast<size_t>(candidates[i])];
    const double dist = geo::HaversineKm(origin, c);
    double weight = world.poi_weight[static_cast<size_t>(candidates[i])] *
                    std::exp(-dist / decay_km);
    if (dir_norm > 1e-9) {
      double mx = (c.lon - origin.lon) * std::cos(origin.lat * M_PI / 180.0);
      double my = c.lat - origin.lat;
      const double mnorm = std::sqrt(mx * mx + my * my);
      if (mnorm > 1e-9) {
        const double cosine =
            (mx * dir_x + my * dir_y) / (mnorm * dir_norm);
        weight *= std::exp(momentum * cosine);
      }
    }
    w[i] = weight;
  }
  return candidates[rng.Categorical(w)];
}

}  // namespace

Dataset GenerateSynthetic(const SyntheticConfig& cfg) {
  STISAN_CHECK_GE(cfg.num_users, 1);
  STISAN_CHECK_GE(cfg.num_pois, 10);
  STISAN_CHECK_GE(cfg.num_clusters, 1);
  Rng rng(cfg.seed);

  Dataset ds;
  ds.name = cfg.name;
  World world = BuildWorld(cfg, rng, &ds.poi_coords);

  // Spatial index over real POIs (ids shifted by 1: index id = poi - 1).
  std::vector<geo::GeoPoint> real_coords(ds.poi_coords.begin() + 1,
                                         ds.poi_coords.end());
  geo::SpatialGridIndex index(real_coords, /*cell_km=*/2.0);

  std::vector<int64_t> all_pois(static_cast<size_t>(cfg.num_pois));
  for (int64_t p = 1; p <= cfg.num_pois; ++p)
    all_pois[static_cast<size_t>(p - 1)] = p;

  ds.user_seqs.resize(static_cast<size_t>(cfg.num_users));
  for (int64_t u = 0; u < cfg.num_users; ++u) {
    Rng user_rng = rng.Fork();
    // Anchor regions: a home cluster plus a few secondary clusters the user
    // frequents. Anchor weights decay geometrically (home dominates).
    const int64_t num_anchors =
        std::min<int64_t>(cfg.anchors, cfg.num_clusters);
    std::vector<geo::GeoPoint> anchor_centers;
    std::vector<std::vector<int64_t>> anchor_pools;
    std::vector<double> anchor_weights;
    for (int64_t a = 0; a < num_anchors; ++a) {
      const size_t cluster =
          user_rng.UniformInt(static_cast<uint64_t>(cfg.num_clusters));
      const geo::GeoPoint center = world.cluster_centers[cluster];
      auto pool_ids = index.WithinRadius(center, cfg.anchor_radius_km);
      std::vector<int64_t> pool;
      pool.reserve(pool_ids.size());
      for (int64_t id : pool_ids) pool.push_back(id + 1);
      if (pool.empty()) pool = all_pois;
      anchor_centers.push_back(center);
      anchor_pools.push_back(std::move(pool));
      anchor_weights.push_back(std::pow(0.45, double(a)));
    }
    // Personal favourites: habitual POIs near the home anchor.
    std::vector<int64_t> favorites;
    for (int64_t f = 0; f < cfg.favorites; ++f) {
      favorites.push_back(SampleByPopularityAndDistance(
          anchor_pools[0], world, ds.poi_coords, anchor_centers[0],
          cfg.anchor_decay_km, user_rng));
    }

    const int64_t length = user_rng.UniformInt(cfg.min_checkins,
                                               cfg.max_checkins);
    auto& seq = ds.user_seqs[static_cast<size_t>(u)];
    seq.reserve(static_cast<size_t>(length));

    // Day-session structure: each session starts near one of the user's
    // anchors (after an overnight/multi-day gap) and continues with a run
    // of short-gap moves that sharply prefer POIs close to the current one.
    // Session progress is readable from the PAST inter-check-in intervals,
    // so interval-aware models can anticipate whether the next move stays
    // local (mid-session) or jumps to an anchor (session boundary).
    double t = double(user_rng.UniformInt(int64_t{0}, int64_t{365})) * 24.0 *
                   kHour +
               user_rng.Normal(9.0, 1.5) * kHour;
    int64_t current = favorites[user_rng.UniformInt(
        static_cast<uint64_t>(favorites.size()))];
    int64_t previous = 0;  // padding = no previous move yet
    size_t routine_position =
        user_rng.UniformInt(static_cast<uint64_t>(anchor_centers.size()));
    seq.push_back({current, t});

    while (static_cast<int64_t>(seq.size()) < length) {
      // ---- Continue the current session with short-gap local moves. ----
      const int64_t session_moves = user_rng.UniformInt(int64_t{1}, int64_t{5});
      for (int64_t sidx = 0;
           sidx < session_moves &&
           static_cast<int64_t>(seq.size()) < length;
           ++sidx) {
        t += std::max(0.05, user_rng.Exponential(
                                1.0 / cfg.short_gap_hours_mean)) *
             kHour;
        int64_t next;
        if (user_rng.Bernoulli(cfg.p_nearby_after_short_gap)) {
          const auto& origin = ds.poi_coords[static_cast<size_t>(current)];
          auto near_ids = index.WithinRadius(origin, cfg.nearby_radius_km);
          if (near_ids.empty()) {
            next = SamplePopularPoi(world, user_rng);
          } else {
            std::vector<int64_t> near_pois(near_ids.size());
            for (size_t k = 0; k < near_ids.size(); ++k)
              near_pois[k] = near_ids[k] + 1;
            const geo::GeoPoint* prev_loc =
                previous != 0
                    ? &ds.poi_coords[static_cast<size_t>(previous)]
                    : nullptr;
            next = SampleByPopularityAndDistance(
                near_pois, world, ds.poi_coords, origin,
                cfg.distance_decay_km, user_rng, prev_loc, cfg.momentum);
          }
        } else if (user_rng.Bernoulli(cfg.p_favorite)) {
          next = favorites[user_rng.UniformInt(
              static_cast<uint64_t>(favorites.size()))];
        } else {
          next = SamplePopularPoi(world, user_rng);
        }
        seq.push_back({next, t});
        previous = current;
        current = next;
      }
      if (static_cast<int64_t>(seq.size()) >= length) break;

      // ---- Session boundary: overnight (or multi-day) gap, then the user
      // re-appears near one of their anchor regions. ----
      t += (10.0 + user_rng.Exponential(1.0 / cfg.long_gap_hours_mean) *
                       cfg.long_gap_hours_mean) *
           kHour;
      int64_t next;
      if (user_rng.Bernoulli(cfg.p_anchor_after_long_gap)) {
        // Personal routine: usually the next anchor in the cycle, sometimes
        // a weight-sampled one.
        if (user_rng.Bernoulli(cfg.p_cycle_anchor)) {
          routine_position = (routine_position + 1) % anchor_centers.size();
        } else {
          routine_position = user_rng.Categorical(anchor_weights);
        }
        const size_t a = routine_position;
        next = SampleByPopularityAndDistance(
            anchor_pools[a], world, ds.poi_coords, anchor_centers[a],
            cfg.anchor_decay_km, user_rng);
      } else {
        next = SamplePopularPoi(world, user_rng);
      }
      seq.push_back({next, t});
      previous = 0;  // a long gap resets the movement direction
      current = next;
    }
  }
  return ds;
}

namespace {
// Scales a base count, clamped below so the evaluation protocol keeps a
// usable number of test users and a non-degenerate POI universe at small
// bench scales.
int64_t Scaled(int64_t base, double scale, int64_t floor = 1) {
  return std::max<int64_t>(floor,
                           static_cast<int64_t>(double(base) * scale));
}
}  // namespace

SyntheticConfig GowallaLikeConfig(double scale) {
  // Gowalla: many users, very many POIs, short sequences (avg 53).
  SyntheticConfig cfg;
  cfg.name = "gowalla-like";
  cfg.seed = 1001;
  cfg.num_users = Scaled(400, scale, /*floor=*/120);
  cfg.num_pois = Scaled(2400, scale, /*floor=*/700);
  cfg.num_clusters = 16;
  cfg.city_radius_km = 25.0;
  cfg.min_checkins = 25;
  cfg.max_checkins = 80;  // avg ~53
  return cfg;
}

SyntheticConfig BrightkiteLikeConfig(double scale) {
  // Brightkite: medium size, longer sequences (avg 146).
  SyntheticConfig cfg;
  cfg.name = "brightkite-like";
  cfg.seed = 1002;
  cfg.num_users = Scaled(200, scale, /*floor=*/90);
  cfg.num_pois = Scaled(1600, scale, /*floor=*/500);
  cfg.num_clusters = 12;
  cfg.city_radius_km = 20.0;
  cfg.min_checkins = 90;
  cfg.max_checkins = 200;  // avg ~146
  return cfg;
}

SyntheticConfig WeeplacesLikeConfig(double scale) {
  // Weeplaces: few users, very long sequences (avg 325).
  SyntheticConfig cfg;
  cfg.name = "weeplaces-like";
  cfg.seed = 1003;
  cfg.num_users = Scaled(100, scale, /*floor=*/60);
  cfg.num_pois = Scaled(1200, scale, /*floor=*/400);
  cfg.num_clusters = 10;
  cfg.city_radius_km = 18.0;
  cfg.min_checkins = 250;
  cfg.max_checkins = 400;  // avg ~325
  return cfg;
}

SyntheticConfig ChangchunLikeConfig(double scale) {
  // Changchun: huge user base over a tiny POI set (city transport network),
  // short sequences (avg 43). We keep the POI set small and users numerous.
  SyntheticConfig cfg;
  cfg.name = "changchun-like";
  cfg.seed = 1004;
  cfg.num_users = Scaled(800, scale, /*floor=*/200);
  cfg.num_pois = Scaled(600, scale, /*floor=*/280);
  cfg.num_clusters = 8;
  cfg.city_radius_km = 12.0;
  cfg.cluster_radius_km = 0.8;
  cfg.min_checkins = 25;
  cfg.max_checkins = 60;  // avg ~43
  return cfg;
}

SyntheticConfig MetroScaleConfig(double scale) {
  // Metropolis catalog: 1e5 POIs at scale 1 across hundreds of small,
  // dense clusters. Movement radii shrink accordingly — with this POI
  // density a 1.5 km neighbourhood already holds hundreds of candidates,
  // which keeps generation cost bounded and makes geo pruning meaningful
  // (the true next POI is almost always spatially near the previous one).
  SyntheticConfig cfg;
  cfg.name = "metro-scale";
  cfg.seed = 1005;
  cfg.num_users = Scaled(240, std::sqrt(std::max(0.0, scale)),
                         /*floor=*/60);
  cfg.num_pois = Scaled(100000, scale, /*floor=*/20000);
  cfg.num_clusters = Scaled(400, scale, /*floor=*/120);
  cfg.city_radius_km = 40.0;
  cfg.cluster_radius_km = 0.5;
  cfg.anchor_radius_km = 1.5;
  cfg.nearby_radius_km = 1.5;
  cfg.distance_decay_km = 0.3;
  cfg.min_checkins = 30;
  cfg.max_checkins = 80;
  cfg.scale = scale;
  return cfg;
}

}  // namespace stisan::data
