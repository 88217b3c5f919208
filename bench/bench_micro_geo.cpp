// Microbenchmarks for the geographic substrate (google-benchmark).
//
// The BM_Metro* rows query the metro catalog the way its callers do
// (MetroScaleConfig(1.0) with 64 users: 10^5 POIs, 2 km cells): at every
// second check-in of each user's history, the pool nearest POIs the user
// has not visited (serving's catalog stage one at pool 500; pool 100 is
// the evaluation protocol's size), and the 1.5 km neighbourhood the
// generator draws local moves from. Each iteration is one query; the
// fixture takes about a second to generate.
//
//   ./build/bench/bench_micro_geo --benchmark_filter=Metro
//       --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
//   (one command line)

#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "data/synthetic.h"
#include "geo/geo.h"
#include "geo/quadkey.h"
#include "geo/spatial_index.h"
#include "util/rng.h"

namespace stisan::geo {
namespace {

std::vector<GeoPoint> RandomCity(int64_t n, uint64_t seed) {
  Rng rng(seed);
  GeoPoint center{43.88, 125.35};
  std::vector<GeoPoint> pts;
  pts.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    pts.push_back(OffsetKm(center, rng.Normal(0, 8), rng.Normal(0, 8)));
  }
  return pts;
}

void BM_Haversine(benchmark::State& state) {
  GeoPoint a{43.88, 125.35}, b{43.99, 125.11};
  for (auto _ : state) {
    benchmark::DoNotOptimize(HaversineKm(a, b));
  }
}
BENCHMARK(BM_Haversine);

void BM_QuadKeyEncode(benchmark::State& state) {
  GeoPoint p{43.88, 125.35};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ToQuadKey(p, 17));
  }
}
BENCHMARK(BM_QuadKeyEncode);

void BM_IndexBuild(benchmark::State& state) {
  auto pts = RandomCity(state.range(0), 11);
  for (auto _ : state) {
    SpatialGridIndex index(pts);
    benchmark::DoNotOptimize(index.size());
  }
}
BENCHMARK(BM_IndexBuild)->Arg(1000)->Arg(10000);

void BM_KNearest100(benchmark::State& state) {
  auto pts = RandomCity(state.range(0), 13);
  SpatialGridIndex index(pts);
  Rng rng(17);
  for (auto _ : state) {
    const auto& q = pts[rng.UniformInt(static_cast<uint64_t>(pts.size()))];
    benchmark::DoNotOptimize(index.KNearest(q, 100));
  }
}
BENCHMARK(BM_KNearest100)->Arg(1000)->Arg(10000);

void BM_WithinRadius(benchmark::State& state) {
  auto pts = RandomCity(5000, 19);
  SpatialGridIndex index(pts);
  Rng rng(23);
  for (auto _ : state) {
    const auto& q = pts[rng.UniformInt(static_cast<uint64_t>(pts.size()))];
    benchmark::DoNotOptimize(index.WithinRadius(q, 4.0));
  }
}
BENCHMARK(BM_WithinRadius);

struct MetroQueries {
  std::unique_ptr<SpatialGridIndex> index;
  std::vector<GeoPoint> points;
  std::vector<std::unordered_set<int64_t>> visited;  // POI ids, 1-based
};

const MetroQueries& Metro() {
  static const MetroQueries* const metro = [] {
    auto* m = new MetroQueries;
    data::SyntheticConfig cfg = data::MetroScaleConfig(1.0);
    cfg.num_users = 64;
    const data::Dataset ds = data::GenerateSynthetic(cfg);
    m->index = std::make_unique<SpatialGridIndex>(
        std::vector<GeoPoint>(ds.poi_coords.begin() + 1, ds.poi_coords.end()),
        2.0);
    for (const auto& seq : ds.user_seqs) {
      std::unordered_set<int64_t> visited;
      for (size_t t = 0; t < seq.size(); ++t) {
        visited.insert(seq[t].poi);
        if (t % 2 == 0) continue;
        m->points.push_back(ds.poi_location(seq[t].poi));
        m->visited.push_back(visited);
      }
    }
    return m;
  }();
  return *metro;
}

void BM_MetroKnnUnvisited(benchmark::State& state) {
  const MetroQueries& m = Metro();
  SpatialGridIndex::QueryScratch scratch;
  std::vector<int64_t> pool;
  size_t i = 0;
  for (auto _ : state) {
    const std::unordered_set<int64_t>& visited = m.visited[i];
    m.index->KNearestInto(
        m.points[i], state.range(0),
        [&visited](int64_t id) { return !visited.contains(id + 1); },
        &scratch, &pool);
    benchmark::DoNotOptimize(pool.data());
    i = (i + 1) % m.points.size();
  }
}
BENCHMARK(BM_MetroKnnUnvisited)
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMicrosecond);

void BM_MetroWithinRadius(benchmark::State& state) {
  const MetroQueries& m = Metro();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.index->WithinRadius(m.points[i], 1.5));
    i = (i + 1) % m.points.size();
  }
}
BENCHMARK(BM_MetroWithinRadius)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace stisan::geo

BENCHMARK_MAIN();
