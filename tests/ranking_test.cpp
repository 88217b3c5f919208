// Two-stage full-catalog ranking suite (DESIGN.md §17).
//
//  - Property tests: SpatialGridIndex KNearest / WithinRadius against
//    brute force over fuzzed point sets (clustered, collinear,
//    high-latitude, sparse-filter, k > accepted count).
//  - Regression: the KNearest early-exit lower bound must account for
//    longitudinal cell width. The former bound used only the latitude
//    cell height, which overestimates the distance to the next ring
//    wherever cells are longitudinally narrower than cell_km (latitudes
//    poleward of the grid's mid-latitude) — it broke off the ring search
//    before reaching a true nearest neighbour that sits to the east/west.
//  - Sparse cell storage: a continent-span extent must not materialise
//    rows x cols cells.
//  - geo::CandidateGenerator: batch = per-query results, thread-count
//    independent.
//  - eval: FullRankingEvaluate chunk_size = 1 (formerly rejected by an
//    off-by-one CHECK), BatchScorer/Scorer overload parity, and
//    FullRanking-vs-PrunedRanking rank parity when the pool provably
//    contains the target.
//  - serve: opt-in RankCatalog requests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>
#include <vector>

#include "data/preprocess.h"
#include "data/synthetic.h"
#include "eval/full_ranking.h"
#include "eval/pruned_ranking.h"
#include "eval/ranking_core.h"
#include "geo/candidate_gen.h"
#include "geo/spatial_index.h"
#include "models/shallow.h"
#include "serve/service.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace stisan {
namespace {

using geo::GeoPoint;
using geo::HaversineKm;
using geo::OffsetKm;
using geo::SpatialGridIndex;

// ---- Brute-force references ---------------------------------------------------

std::vector<int64_t> BruteKnn(const std::vector<GeoPoint>& points,
                              const GeoPoint& q, int64_t k,
                              const std::function<bool(int64_t)>& accept) {
  std::vector<std::pair<double, int64_t>> all;
  for (size_t i = 0; i < points.size(); ++i) {
    if (accept && !accept(static_cast<int64_t>(i))) continue;
    all.emplace_back(HaversineKm(q, points[i]), static_cast<int64_t>(i));
  }
  std::sort(all.begin(), all.end());
  std::vector<int64_t> out;
  for (int64_t i = 0; i < k && i < static_cast<int64_t>(all.size()); ++i) {
    out.push_back(all[static_cast<size_t>(i)].second);
  }
  return out;
}

std::set<int64_t> BruteRadius(const std::vector<GeoPoint>& points,
                              const GeoPoint& q, double radius_km) {
  std::set<int64_t> out;
  for (size_t i = 0; i < points.size(); ++i) {
    if (HaversineKm(q, points[i]) <= radius_km) {
      out.insert(static_cast<int64_t>(i));
    }
  }
  return out;
}

// Compares by distance (equidistant points may legitimately reorder).
void ExpectSameByDistance(const std::vector<GeoPoint>& points,
                          const GeoPoint& q,
                          const std::vector<int64_t>& fast,
                          const std::vector<int64_t>& brute,
                          const std::string& context) {
  ASSERT_EQ(fast.size(), brute.size()) << context;
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(HaversineKm(q, points[static_cast<size_t>(fast[i])]),
                HaversineKm(q, points[static_cast<size_t>(brute[i])]), 1e-9)
        << context << " i=" << i;
  }
}

// Fuzzed point-set generators. Each stresses a different failure mode of
// the ring search: anisotropic cells (high latitude), degenerate extents
// (collinear), cluster/void structure, and near-empty accept sets.
std::vector<GeoPoint> MakePoints(int config, Rng& rng) {
  std::vector<GeoPoint> pts;
  switch (config) {
    case 0: {  // clustered around a mid-latitude city
      GeoPoint center{43.88, 125.35};
      for (int c = 0; c < 6; ++c) {
        GeoPoint cc = OffsetKm(center, rng.Normal(0, 12), rng.Normal(0, 12));
        for (int i = 0; i < 60; ++i) {
          pts.push_back(OffsetKm(cc, rng.Normal(0, 1.0), rng.Normal(0, 1.0)));
        }
      }
      break;
    }
    case 1: {  // collinear: all points on one parallel
      for (int i = 0; i < 250; ++i) {
        pts.push_back({51.5, -0.5 + 0.004 * i});
      }
      break;
    }
    case 2: {  // high latitude, tall latitude extent (anisotropic cells)
      for (int i = 0; i < 300; ++i) {
        pts.push_back({62.0 + 16.0 * rng.Uniform(),
                       10.0 + 2.0 * rng.Uniform()});
      }
      break;
    }
    default: {  // sparse uniform over a wide box
      for (int i = 0; i < 200; ++i) {
        pts.push_back({30.0 + 10.0 * rng.Uniform(),
                       100.0 + 10.0 * rng.Uniform()});
      }
      break;
    }
  }
  return pts;
}

TEST(KnnPropertyTest, MatchesBruteForceOverFuzzedSets) {
  for (int config = 0; config < 4; ++config) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(1000 * static_cast<uint64_t>(config) + seed);
      const auto pts = MakePoints(config, rng);
      for (double cell_km : {0.5, 2.0}) {
        SpatialGridIndex index(pts, cell_km);
        for (int qi = 0; qi < 5; ++qi) {
          const GeoPoint q =
              pts[rng.UniformInt(static_cast<uint64_t>(pts.size()))];
          for (int64_t k : {1, 7, 64}) {
            const auto fast = index.KNearest(q, k);
            const auto brute = BruteKnn(pts, q, k, nullptr);
            ExpectSameByDistance(pts, q, fast, brute,
                                 "config=" + std::to_string(config) +
                                     " seed=" + std::to_string(seed) +
                                     " cell=" + std::to_string(cell_km) +
                                     " k=" + std::to_string(k));
          }
        }
      }
    }
  }
}

TEST(KnnPropertyTest, AcceptFilterRejectingMostPoints) {
  Rng rng(7);
  const auto pts = MakePoints(2, rng);
  SpatialGridIndex index(pts, 1.0);
  // Accepts ~1/13 of the points; k = 64 exceeds the accepted count for
  // some queries, k = 1000 always does.
  const auto accept = [](int64_t id) { return id % 13 == 0; };
  for (int qi = 0; qi < 8; ++qi) {
    const GeoPoint q = pts[rng.UniformInt(static_cast<uint64_t>(pts.size()))];
    for (int64_t k : {1, 8, 64, 1000}) {
      const auto fast = index.KNearest(q, k, accept);
      const auto brute = BruteKnn(pts, q, k, accept);
      ExpectSameByDistance(pts, q, fast, brute, "k=" + std::to_string(k));
      for (int64_t id : fast) EXPECT_EQ(id % 13, 0);
    }
  }
}

TEST(KnnRegressionTest, HighLatitudeEarlyExitBound) {
  // Deterministic configuration on which the former latitude-only early
  // exit returned the wrong nearest neighbour. Grid latitude range
  // [40, ~78] puts the longitudinal cell width at the 59deg mid-latitude
  // (~0.0349deg ~ 0.81 km at 78deg); the query sits at 78deg with a decoy
  // 4.5 km north (column ring ~2) and the true nearest 4.0 km east
  // (column ring ~5). The old bound (ring-1) * cell_km reached 6.0 km at
  // ring 4 and broke off before ring 5; the corrected longitude bound at
  // ring 4 is ~2.4 km, so the search continues and finds the east point.
  const GeoPoint query{78.0, 20.0};
  std::vector<GeoPoint> pts;
  pts.push_back(OffsetKm(query, 4.5, 0.0));  // id 0: decoy (north)
  pts.push_back(OffsetKm(query, 0.0, 4.0));  // id 1: true nearest (east)
  // Far filler stretching the grid's latitude range down to 40deg.
  for (int i = 0; i < 5; ++i) pts.push_back({40.0, 20.0 + 0.01 * i});

  SpatialGridIndex index(pts, 2.0);
  const auto ids = index.KNearest(query, 1);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 1) << "early exit must not stop before the ring that "
                          "holds the true (eastern) nearest neighbour";

  // And the full neighbourhood comes back in brute-force order.
  const auto all = index.KNearest(query, static_cast<int64_t>(pts.size()));
  const auto brute = BruteKnn(pts, query, static_cast<int64_t>(pts.size()),
                              nullptr);
  ExpectSameByDistance(pts, query, all, brute, "full sweep");
}

TEST(RadiusPropertyTest, MatchesBruteForceOverFuzzedSets) {
  for (int config = 0; config < 4; ++config) {
    Rng rng(77 + static_cast<uint64_t>(config));
    const auto pts = MakePoints(config, rng);
    SpatialGridIndex index(pts, 1.5);
    for (int qi = 0; qi < 5; ++qi) {
      const GeoPoint q =
          pts[rng.UniformInt(static_cast<uint64_t>(pts.size()))];
      for (double r : {0.3, 2.0, 15.0}) {
        const auto fast = index.WithinRadius(q, r);
        const std::set<int64_t> got(fast.begin(), fast.end());
        EXPECT_EQ(got, BruteRadius(pts, q, r))
            << "config=" << config << " r=" << r;
      }
    }
  }
}

TEST(RadiusPropertyTest, PolarLatitudesDoNotUnderScan) {
  // Beyond ~87deg the former implementation clamped cos(lat) to 0.05 when
  // sizing the column scan, which under-scanned and could drop points.
  std::vector<GeoPoint> pts;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    pts.push_back({88.0 + 1.5 * rng.Uniform(), 170.0 * rng.Uniform()});
  }
  SpatialGridIndex index(pts, 1.0);
  for (int qi = 0; qi < 6; ++qi) {
    const GeoPoint q = pts[rng.UniformInt(static_cast<uint64_t>(pts.size()))];
    for (double r : {1.0, 10.0, 80.0}) {
      const auto fast = index.WithinRadius(q, r);
      const std::set<int64_t> got(fast.begin(), fast.end());
      EXPECT_EQ(got, BruteRadius(pts, q, r)) << "r=" << r;
    }
  }
}

TEST(SparseIndexTest, ContinentSpanExtentStaysSparse) {
  // Two far-apart cities: a dense grid would address tens of millions of
  // cells; the sparse map must only materialise the occupied ones.
  std::vector<GeoPoint> pts;
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    pts.push_back(OffsetKm({40.0, -120.0}, rng.Normal(0, 3), rng.Normal(0, 3)));
    pts.push_back(OffsetKm({60.0, 140.0}, rng.Normal(0, 3), rng.Normal(0, 3)));
  }
  SpatialGridIndex index(pts, 1.0);
  EXPECT_GT(index.addressable_cells(), int64_t{1000000});
  EXPECT_LE(index.occupied_cells(), static_cast<int64_t>(pts.size()));
  // Queries still work across the void between the two blobs.
  const auto near_a = index.KNearest({40.0, -120.0}, 10);
  EXPECT_EQ(near_a.size(), 10u);
  const auto brute = BruteKnn(pts, {40.0, -120.0}, 10, nullptr);
  ExpectSameByDistance(pts, {40.0, -120.0}, near_a, brute, "city A");
}

TEST(SparseIndexTest, ScratchReuseIsStable) {
  Rng rng(5);
  const auto pts = MakePoints(0, rng);
  SpatialGridIndex index(pts, 1.0);
  SpatialGridIndex::QueryScratch scratch;
  std::vector<int64_t> out;
  const GeoPoint q = pts[17];
  index.KNearestInto(q, 25, nullptr, &scratch, &out);
  const auto first = out;
  for (int rep = 0; rep < 3; ++rep) {
    index.KNearestInto(q, 25, nullptr, &scratch, &out);
    EXPECT_EQ(out, first) << "rep=" << rep;
  }
}

// ---- Candidate generator ------------------------------------------------------

TEST(CandidateGenTest, BatchMatchesPerQueryAndIsThreadCountIndependent) {
  Rng rng(21);
  const auto pts = MakePoints(0, rng);
  SpatialGridIndex index(pts, 1.0);
  geo::CandidatePoolOptions options;
  options.pool_size = 40;
  geo::CandidateGenerator gen(index, options);

  std::vector<GeoPoint> queries;
  for (int i = 0; i < 37; ++i) {
    queries.push_back(pts[rng.UniformInt(static_cast<uint64_t>(pts.size()))]);
  }
  const geo::CandidateGenerator::BatchAcceptFn accept =
      [](int64_t qi, int64_t id) { return (id + qi) % 3 != 0; };

  std::vector<std::vector<int64_t>> serial;
  gen.GenerateBatch(queries, accept, nullptr, &serial);
  std::vector<std::vector<int64_t>> pooled;
  gen.GenerateBatch(queries, accept, &kernels::GlobalPool(), &pooled);
  EXPECT_EQ(serial, pooled);

  // And each slot matches the single-query path.
  SpatialGridIndex::QueryScratch scratch;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<int64_t> one;
    const int64_t qi = static_cast<int64_t>(i);
    gen.Generate(queries[i],
                 [&accept, qi](int64_t id) { return accept(qi, id); },
                 &scratch, &one);
    EXPECT_EQ(serial[i], one) << "query " << i;
  }
}

// ---- Full / pruned ranking ----------------------------------------------------

class RankingEvalTest : public ::testing::Test {
 protected:
  RankingEvalTest()
      : ds_(data::GenerateSynthetic(data::GowallaLikeConfig(0.05))),
        split_(data::TrainTestSplit(ds_, {.max_seq_len = 8})) {
    pop_.Fit(ds_, split_.train);
    scorer_ = [this](const data::EvalInstance& inst,
                     const std::vector<int64_t>& cands) {
      return pop_.Score(inst, cands);
    };
  }

  data::Dataset ds_;
  data::Split split_;
  models::PopModel pop_;
  eval::Scorer scorer_;
};

TEST_F(RankingEvalTest, ChunkSizeOneIsValidAndEquivalent) {
  // chunk_size = 1 is documented-valid (one candidate per scorer call)
  // but was rejected by an off-by-one CHECK (> 1 instead of >= 1).
  auto a = eval::FullRankingEvaluate(scorer_, split_.test, ds_,
                                     {.max_instances = 6, .chunk_size = 1});
  auto b = eval::FullRankingEvaluate(
      scorer_, split_.test, ds_, {.max_instances = 6, .chunk_size = 512});
  EXPECT_EQ(a.ranks(), b.ranks());
}

TEST_F(RankingEvalTest, BatchScorerOverloadMatchesScorerOverload) {
  auto direct = eval::FullRankingEvaluate(
      pop_, split_.test, ds_, {.max_instances = 12, .batch_size = 5});
  auto adapted = eval::FullRankingEvaluate(
      scorer_, split_.test, ds_, {.max_instances = 12, .batch_size = 32});
  EXPECT_EQ(direct.ranks(), adapted.ranks());
}

TEST_F(RankingEvalTest, PrunedEqualsFullWhenPoolCoversCatalog) {
  // pool_size >= P makes stage one lossless (every unvisited POI is
  // retrieved), so the two-stage rank must equal the exact rank
  // bit-for-bit, per instance.
  const auto index = eval::BuildCatalogIndex(ds_);
  geo::CandidatePoolOptions pool_options;
  pool_options.pool_size = ds_.num_pois();
  geo::CandidateGenerator gen(index, pool_options);

  eval::FullRankingOptions full_options;
  full_options.max_instances = 15;
  const auto full =
      eval::FullRankingEvaluate(pop_, split_.test, ds_, full_options);

  eval::PrunedRankingOptions pruned_options;
  pruned_options.max_instances = 15;
  const auto pruned = eval::PrunedRankingEvaluate(pop_, split_.test, ds_,
                                                  gen, pruned_options);
  EXPECT_DOUBLE_EQ(pruned.TargetInPoolRate(), 1.0);
  EXPECT_EQ(pruned.metrics.ranks(), full.ranks());
}

TEST_F(RankingEvalTest, PrunedRankLowerBoundsExactWhenTargetInPool) {
  const auto index = eval::BuildCatalogIndex(ds_);
  geo::CandidatePoolOptions pool_options;
  pool_options.pool_size = 50;  // genuinely pruned
  geo::CandidateGenerator gen(index, pool_options);

  const int64_t n = 25;
  const auto full = eval::FullRankingEvaluate(pop_, split_.test, ds_,
                                              {.max_instances = n});
  eval::PrunedRankingOptions pruned_options;
  pruned_options.max_instances = n;
  const auto pruned = eval::PrunedRankingEvaluate(pop_, split_.test, ds_,
                                                  gen, pruned_options);
  ASSERT_EQ(pruned.metrics.ranks().size(), full.ranks().size());
  ASSERT_EQ(pruned.target_in_pool.size(), static_cast<size_t>(n));
  EXPECT_EQ(pruned.instances, n);
  EXPECT_GT(pruned.mean_pool_size, 0.0);
  for (size_t i = 0; i < pruned.target_in_pool.size(); ++i) {
    if (pruned.target_in_pool[i] != 0) {
      // Ranking over a subset can only improve the target's rank.
      EXPECT_LE(pruned.metrics.ranks()[i], full.ranks()[i]) << "i=" << i;
    } else {
      EXPECT_EQ(pruned.metrics.ranks()[i], ds_.num_pois()) << "i=" << i;
    }
  }
}

TEST_F(RankingEvalTest, PerfectScorerHitRateEqualsPoolRate) {
  const auto index = eval::BuildCatalogIndex(ds_);
  geo::CandidatePoolOptions pool_options;
  pool_options.pool_size = 30;
  geo::CandidateGenerator gen(index, pool_options);
  eval::Scorer perfect = [](const data::EvalInstance& inst,
                            const std::vector<int64_t>& cands) {
    std::vector<float> s(cands.size());
    for (size_t i = 0; i < cands.size(); ++i) {
      s[i] = cands[i] == inst.target ? 1.0f : 0.0f;
    }
    return s;
  };
  eval::internal::SingleScorerAdapter adapter(perfect);
  eval::PrunedRankingOptions options;
  options.max_instances = 30;
  const auto pruned =
      eval::PrunedRankingEvaluate(adapter, split_.test, ds_, gen, options);
  // A perfect scorer ranks the target first whenever stage one kept it,
  // so HR@k is exactly the pruning recall proxy.
  EXPECT_DOUBLE_EQ(pruned.metrics.HitRate(5), pruned.TargetInPoolRate());
}

TEST_F(RankingEvalTest, TopKTrackingRespectsPoolMisses) {
  const auto index = eval::BuildCatalogIndex(ds_);
  geo::CandidatePoolOptions pool_options;
  pool_options.pool_size = 20;
  geo::CandidateGenerator gen(index, pool_options);
  std::vector<std::vector<int64_t>> top_k;
  eval::PrunedRankingOptions options;
  options.max_instances = 30;
  options.track_top_k = 10;
  options.top_k_out = &top_k;
  const auto pruned =
      eval::PrunedRankingEvaluate(pop_, split_.test, ds_, gen, options);
  ASSERT_EQ(top_k.size(), static_cast<size_t>(pruned.instances));
  for (size_t i = 0; i < top_k.size(); ++i) {
    EXPECT_LE(top_k[i].size(), 10u);
    if (pruned.target_in_pool[i] == 0) {
      // The two-stage ranker cannot return a POI stage one dropped.
      const int64_t target = split_.test[i].target;
      EXPECT_EQ(std::count(top_k[i].begin(), top_k[i].end(), target), 0)
          << "i=" << i;
    }
  }
}

// ---- Serving ------------------------------------------------------------------

TEST(ServeCatalogTest, RankCatalogReturnsModelTopK) {
  auto ds = data::GenerateSynthetic(data::GowallaLikeConfig(0.05));
  auto split = data::TrainTestSplit(ds, {.max_seq_len = 8});
  models::PopModel pop;
  pop.Fit(ds, split.train);

  serve::ServeOptions options;
  options.start_worker = false;
  options.num_pois = ds.num_pois();
  options.poi_coords = &ds.poi_coords;
  options.catalog_pool_size = 40;
  serve::RecommendService service(&pop, options);

  const int64_t user = 1;
  std::vector<int64_t> history = {1, 2, 3};
  for (size_t i = 0; i < history.size(); ++i) {
    ASSERT_TRUE(service.Append(user, history[i], 1000.0 * (i + 1)).ok());
  }
  const auto result = service.RankCatalog(user, 10);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  ASSERT_EQ(result.pois.size(), result.scores.size());
  ASSERT_LE(result.pois.size(), 10u);
  ASSERT_GE(result.pois.size(), 1u);
  // Descending scores, ties by ascending id; nothing already visited.
  const std::unordered_set<int64_t> visited(history.begin(), history.end());
  for (size_t i = 0; i < result.pois.size(); ++i) {
    EXPECT_FALSE(visited.contains(result.pois[i]));
    if (i > 0) {
      EXPECT_TRUE(result.scores[i - 1] > result.scores[i] ||
                  (result.scores[i - 1] == result.scores[i] &&
                   result.pois[i - 1] < result.pois[i]))
          << "i=" << i;
    }
  }

  // Cross-check against running the two stages by hand (PopModel scores
  // are history-independent, so the expected stage-two scores are just
  // pop.Score over the pool).
  const auto index = eval::BuildCatalogIndex(ds);
  geo::CandidatePoolOptions pool_options;
  pool_options.pool_size = options.catalog_pool_size;
  geo::CandidateGenerator gen(index, pool_options);
  geo::SpatialGridIndex::QueryScratch scratch;
  std::vector<int64_t> pool_ids;
  gen.Generate(ds.poi_location(history.back()),
               [&visited](int64_t id) { return !visited.contains(id + 1); },
               &scratch, &pool_ids);
  std::vector<int64_t> pool;
  for (int64_t id : pool_ids) pool.push_back(id + 1);
  data::EvalInstance dummy;
  const auto scores = pop.Score(dummy, pool);
  std::vector<std::pair<float, int64_t>> ranked;
  for (size_t i = 0; i < pool.size(); ++i) {
    ranked.emplace_back(scores[i], pool[i]);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  ASSERT_LE(result.pois.size(), ranked.size());
  for (size_t i = 0; i < result.pois.size(); ++i) {
    EXPECT_EQ(result.pois[i], ranked[i].second) << "i=" << i;
    EXPECT_EQ(result.scores[i], ranked[i].first) << "i=" << i;
  }
}

TEST(ServeCatalogTest, TypedErrorsForDisabledColdAndInvalid) {
  auto ds = data::GenerateSynthetic(data::GowallaLikeConfig(0.05));
  models::PopModel pop;

  {  // Disabled: poi_coords not set.
    serve::ServeOptions options;
    options.num_pois = ds.num_pois();
    options.start_worker = false;
    serve::RecommendService service(&pop, options);
    const auto r = service.RankCatalog(7, 5);
    EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  }
  {
    serve::ServeOptions options;
    options.start_worker = false;
    options.num_pois = ds.num_pois();
    options.poi_coords = &ds.poi_coords;
    serve::RecommendService service(&pop, options);
    // No history: no query location.
    const auto cold = service.RankCatalog(7, 5);
    EXPECT_EQ(cold.status.code(), StatusCode::kFailedPrecondition);
    // top_k must be >= 1.
    const auto bad = service.RankCatalog(7, 0);
    EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
    // Plain scoring still works alongside.
    ASSERT_TRUE(service.Append(7, 1, 100.0).ok());
    const auto ok = service.RankCatalog(7, 5);
    EXPECT_TRUE(ok.ok()) << ok.status.ToString();
  }
}

}  // namespace
}  // namespace stisan
