#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "geo/geo.h"
#include "geo/quadkey.h"
#include "geo/spatial_index.h"
#include "util/rng.h"

namespace stisan::geo {
namespace {

TEST(HaversineTest, ZeroDistance) {
  GeoPoint p{43.88, 125.35};
  EXPECT_DOUBLE_EQ(HaversineKm(p, p), 0.0);
}

TEST(HaversineTest, KnownDistances) {
  // Beijing <-> Shanghai: ~1068 km.
  GeoPoint beijing{39.9042, 116.4074};
  GeoPoint shanghai{31.2304, 121.4737};
  EXPECT_NEAR(HaversineKm(beijing, shanghai), 1068.0, 15.0);
  // One degree of latitude: ~111.2 km.
  EXPECT_NEAR(HaversineKm({0, 0}, {1, 0}), 111.2, 1.0);
}

TEST(HaversineTest, Symmetric) {
  GeoPoint a{10.5, 20.5}, b{-33.0, 151.0};
  EXPECT_DOUBLE_EQ(HaversineKm(a, b), HaversineKm(b, a));
}

TEST(OffsetKmTest, RoundTripDistance) {
  GeoPoint origin{43.88, 125.35};
  GeoPoint north = OffsetKm(origin, 5.0, 0.0);
  EXPECT_NEAR(HaversineKm(origin, north), 5.0, 0.05);
  GeoPoint east = OffsetKm(origin, 0.0, 3.0);
  EXPECT_NEAR(HaversineKm(origin, east), 3.0, 0.05);
  GeoPoint diag = OffsetKm(origin, 3.0, 4.0);
  EXPECT_NEAR(HaversineKm(origin, diag), 5.0, 0.1);
}

TEST(BoundingBoxTest, Extend) {
  BoundingBox box;
  EXPECT_TRUE(box.empty());
  box.Extend({10, 20});
  box.Extend({12, 18});
  EXPECT_FALSE(box.empty());
  EXPECT_EQ(box.min_lat, 10);
  EXPECT_EQ(box.max_lat, 12);
  EXPECT_EQ(box.min_lon, 18);
  EXPECT_EQ(box.max_lon, 20);
}

// ---- Quadkey ----------------------------------------------------------------

TEST(QuadKeyTest, LengthEqualsLevel) {
  GeoPoint p{43.88, 125.35};
  for (int level : {1, 5, 12, 17}) {
    EXPECT_EQ(ToQuadKey(p, level).size(), static_cast<size_t>(level));
  }
}

TEST(QuadKeyTest, PrefixPropertyAcrossLevels) {
  GeoPoint p{43.88, 125.35};
  std::string deep = ToQuadKey(p, 17);
  std::string shallow = ToQuadKey(p, 10);
  EXPECT_EQ(deep.substr(0, 10), shallow);
}

TEST(QuadKeyTest, NearbyPointsShareLongPrefix) {
  GeoPoint a{43.88, 125.35};
  GeoPoint b = OffsetKm(a, 0.05, 0.05);  // 70 m away
  std::string ka = ToQuadKey(a, 17);
  std::string kb = ToQuadKey(b, 17);
  size_t common = 0;
  while (common < ka.size() && ka[common] == kb[common]) ++common;
  EXPECT_GE(common, 10u);
}

TEST(QuadKeyTest, FarPointsDiverge) {
  std::string ka = ToQuadKey({43.88, 125.35}, 17);
  std::string kb = ToQuadKey({-33.0, 151.0}, 17);
  EXPECT_NE(ka[0], kb[0]);
}

TEST(QuadKeyTest, QuadrantsOfLevelOne) {
  // NW hemisphere tile is '0', NE '1', SW '2', SE '3'.
  EXPECT_EQ(ToQuadKey({45.0, -90.0}, 1), "0");
  EXPECT_EQ(ToQuadKey({45.0, 90.0}, 1), "1");
  EXPECT_EQ(ToQuadKey({-45.0, -90.0}, 1), "2");
  EXPECT_EQ(ToQuadKey({-45.0, 90.0}, 1), "3");
}

TEST(QuadKeyTest, NgramTokens) {
  auto tokens = QuadKeyNgramTokens("0123", 2);
  // "01" = 1, "12" = 6, "23" = 11 in base 4.
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], 1);
  EXPECT_EQ(tokens[1], 6);
  EXPECT_EQ(tokens[2], 11);
}

TEST(QuadKeyTest, NgramTokensInVocabRange) {
  GeoPoint p{43.88, 125.35};
  auto tokens = QuadKeyNgramTokens(ToQuadKey(p, 17), 6);
  EXPECT_EQ(tokens.size(), 12u);
  for (int64_t t : tokens) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, QuadKeyNgramVocabSize(6));
  }
}

TEST(QuadKeyTest, VocabSize) {
  EXPECT_EQ(QuadKeyNgramVocabSize(1), 4);
  EXPECT_EQ(QuadKeyNgramVocabSize(6), 4096);
}

// ---- Spatial index -------------------------------------------------------------

class SpatialIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    GeoPoint center{43.88, 125.35};
    for (int i = 0; i < 500; ++i) {
      points_.push_back(OffsetKm(center, rng.Normal(0, 5), rng.Normal(0, 5)));
    }
    index_ = std::make_unique<SpatialGridIndex>(points_, 1.0);
    query_ = center;
  }

  std::vector<int64_t> BruteForceKnn(const GeoPoint& q, int64_t k) const {
    std::vector<std::pair<double, int64_t>> all;
    for (size_t i = 0; i < points_.size(); ++i) {
      all.emplace_back(HaversineKm(q, points_[i]), static_cast<int64_t>(i));
    }
    std::sort(all.begin(), all.end());
    std::vector<int64_t> out;
    for (int64_t i = 0; i < k && i < static_cast<int64_t>(all.size()); ++i) {
      out.push_back(all[static_cast<size_t>(i)].second);
    }
    return out;
  }

  std::vector<GeoPoint> points_;
  std::unique_ptr<SpatialGridIndex> index_;
  GeoPoint query_;
};

TEST_F(SpatialIndexTest, KnnMatchesBruteForce) {
  for (int64_t k : {1, 5, 20, 100}) {
    auto fast = index_->KNearest(query_, k);
    auto brute = BruteForceKnn(query_, k);
    ASSERT_EQ(fast.size(), brute.size()) << "k=" << k;
    // Compare by distance (ties may reorder ids).
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(HaversineKm(query_, points_[size_t(fast[i])]),
                  HaversineKm(query_, points_[size_t(brute[i])]), 1e-9)
          << "k=" << k << " i=" << i;
    }
  }
}

TEST_F(SpatialIndexTest, KnnSortedAscending) {
  auto ids = index_->KNearest(query_, 50);
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LE(HaversineKm(query_, points_[size_t(ids[i - 1])]),
              HaversineKm(query_, points_[size_t(ids[i])]));
  }
}

TEST_F(SpatialIndexTest, KnnRespectsFilter) {
  auto ids = index_->KNearest(query_, 10,
                              [](int64_t id) { return id % 2 == 0; });
  EXPECT_EQ(ids.size(), 10u);
  for (int64_t id : ids) EXPECT_EQ(id % 2, 0);
}

TEST_F(SpatialIndexTest, KnnMoreThanAvailable) {
  auto ids = index_->KNearest(query_, 10000);
  EXPECT_EQ(ids.size(), points_.size());
}

TEST_F(SpatialIndexTest, WithinRadiusMatchesBruteForce) {
  for (double r : {0.5, 2.0, 8.0}) {
    auto ids = index_->WithinRadius(query_, r);
    int64_t brute = 0;
    for (const auto& p : points_) {
      if (HaversineKm(query_, p) <= r) ++brute;
    }
    EXPECT_EQ(static_cast<int64_t>(ids.size()), brute) << "r=" << r;
    for (int64_t id : ids) {
      EXPECT_LE(HaversineKm(query_, points_[size_t(id)]), r);
    }
  }
}

TEST(SpatialIndexEdge, EmptyIndex) {
  SpatialGridIndex index({});
  EXPECT_TRUE(index.KNearest({0, 0}, 5).empty());
  EXPECT_TRUE(index.WithinRadius({0, 0}, 10).empty());
}

TEST(SpatialIndexEdge, SinglePoint) {
  SpatialGridIndex index({GeoPoint{10, 10}});
  auto ids = index.KNearest({10.01, 10.01}, 3);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 0);
}

}  // namespace
}  // namespace stisan::geo
