// Tests for the analysis additions: dataset statistics, full-ranking
// (unsampled) evaluation, and explanations.

#include <gtest/gtest.h>

#include <cmath>

#include "core/explain.h"
#include "data/stats.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "eval/full_ranking.h"
#include "models/shallow.h"

namespace stisan {
namespace {

// ---- Distribution / Summarize -------------------------------------------------

TEST(DistributionTest, EmptyInput) {
  auto d = data::Summarize({});
  EXPECT_EQ(d.count, 0);
  EXPECT_EQ(d.mean, 0.0);
}

TEST(DistributionTest, KnownValues) {
  auto d = data::Summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(d.count, 5);
  EXPECT_DOUBLE_EQ(d.mean, 3.0);
  EXPECT_DOUBLE_EQ(d.median, 3.0);
  EXPECT_DOUBLE_EQ(d.min, 1.0);
  EXPECT_DOUBLE_EQ(d.max, 5.0);
  EXPECT_NEAR(d.stddev, std::sqrt(2.0), 1e-9);
  EXPECT_DOUBLE_EQ(d.p25, 2.0);
  EXPECT_DOUBLE_EQ(d.p75, 4.0);
}

TEST(DistributionTest, SingleValue) {
  auto d = data::Summarize({7.0});
  EXPECT_EQ(d.count, 1);
  EXPECT_DOUBLE_EQ(d.mean, 7.0);
  EXPECT_DOUBLE_EQ(d.median, 7.0);
  EXPECT_DOUBLE_EQ(d.stddev, 0.0);
}

TEST(DistributionTest, QuantilesOrdered) {
  Rng rng(5);
  std::vector<double> v(500);
  for (auto& x : v) x = rng.Normal(10, 3);
  auto d = data::Summarize(v);
  EXPECT_LE(d.min, d.p25);
  EXPECT_LE(d.p25, d.median);
  EXPECT_LE(d.median, d.p75);
  EXPECT_LE(d.p75, d.p95);
  EXPECT_LE(d.p95, d.max);
}

// ---- Dataset statistics ---------------------------------------------------------

class StatsTest : public ::testing::Test {
 protected:
  StatsTest() : ds_(data::GenerateSynthetic(data::GowallaLikeConfig(0.15))) {}
  data::Dataset ds_;
};

TEST_F(StatsTest, IntervalsPositive) {
  auto d = data::IntervalHoursDistribution(ds_);
  EXPECT_GT(d.count, 100);
  EXPECT_GT(d.min, 0.0);
  EXPECT_GT(d.p95, d.median);  // heavy tail of overnight gaps
}

TEST_F(StatsTest, SessionStructureVisible) {
  auto s = data::ComputeSessionStats(ds_, 8.0);
  EXPECT_GT(s.mean_session_length, 1.5);
  EXPECT_GT(s.mean_sessions_per_user, 2.0);
  // Planted structure: within-session moves are much shorter than
  // between-session jumps.
  EXPECT_LT(s.mean_within_session_km, 0.5 * s.mean_between_session_km);
}

TEST_F(StatsTest, GiniInRangeAndSkewed) {
  const double g = data::PopularityGini(ds_);
  EXPECT_GT(g, 0.2);  // power-law popularity
  EXPECT_LT(g, 1.0);
}

TEST(StatsGini, UniformIsZero) {
  // Every POI visited exactly once -> perfectly equal -> gini ~ 0.
  data::Dataset ds;
  ds.poi_coords.assign(5, geo::GeoPoint{});
  ds.user_seqs = {{{1, 1}, {2, 2}, {3, 3}, {4, 4}}};
  EXPECT_NEAR(data::PopularityGini(ds), 0.0, 1e-9);
}

TEST(StatsGini, ConcentratedIsHigh) {
  data::Dataset ds;
  ds.poi_coords.assign(11, geo::GeoPoint{});
  std::vector<data::Visit> seq;
  for (int i = 0; i < 100; ++i) seq.push_back({1, double(i)});  // all POI 1
  seq.push_back({2, 1000.0});
  ds.user_seqs = {seq};
  EXPECT_GT(data::PopularityGini(ds), 0.85);
}

TEST_F(StatsTest, RevisitRateInRange) {
  const double r = data::RevisitRate(ds_);
  EXPECT_GT(r, 0.05);  // favourites get revisited
  EXPECT_LT(r, 0.95);
}

TEST_F(StatsTest, RadiusOfGyrationPerUser) {
  auto d = data::RadiusOfGyrationDistribution(ds_);
  EXPECT_EQ(d.count, ds_.num_users());
  EXPECT_GT(d.mean, 1.0);   // users move
  EXPECT_LT(d.max, 100.0);  // within the city
}

// ---- Full-ranking evaluation -------------------------------------------------------

TEST(FullRankingTest, PerfectScorerRanksFirst) {
  auto ds = data::GenerateSynthetic(data::GowallaLikeConfig(0.05));
  auto split = data::TrainTestSplit(ds, {.max_seq_len = 8});
  eval::Scorer perfect = [&](const data::EvalInstance& inst,
                             const std::vector<int64_t>& cands) {
    std::vector<float> s(cands.size());
    for (size_t i = 0; i < cands.size(); ++i) {
      s[i] = cands[i] == inst.target ? 1.0f : 0.0f;
    }
    return s;
  };
  auto acc = eval::FullRankingEvaluate(perfect, split.test, ds,
                                       {.max_instances = 10});
  EXPECT_EQ(acc.count(), 10);
  EXPECT_EQ(acc.HitRate(5), 1.0);
}

TEST(FullRankingTest, MatchesSampledProtocolOnPerfectAndPop) {
  // Full ranking is strictly harder than the 100-candidate protocol for
  // any scorer: the sampled rank is a lower bound.
  auto ds = data::GenerateSynthetic(data::GowallaLikeConfig(0.05));
  auto split = data::TrainTestSplit(ds, {.max_seq_len = 8});
  eval::CandidateGenerator gen(ds);

  models::PopModel pop;
  pop.Fit(ds, split.train);
  eval::Scorer scorer = [&](const data::EvalInstance& inst,
                            const std::vector<int64_t>& cands) {
    return pop.Score(inst, cands);
  };
  auto sampled = eval::Evaluate(scorer, split.test, gen, {});
  auto full = eval::FullRankingEvaluate(scorer, split.test, ds, {});
  EXPECT_LE(full.HitRate(10), sampled.HitRate(10) + 1e-9);
}

TEST(FullRankingTest, ChunkSizeDoesNotChangeResults) {
  auto ds = data::GenerateSynthetic(data::GowallaLikeConfig(0.05));
  auto split = data::TrainTestSplit(ds, {.max_seq_len = 8});
  models::PopModel pop;
  pop.Fit(ds, split.train);
  eval::Scorer scorer = [&](const data::EvalInstance& inst,
                            const std::vector<int64_t>& cands) {
    return pop.Score(inst, cands);
  };
  auto a = eval::FullRankingEvaluate(scorer, split.test, ds,
                                     {.max_instances = 8, .chunk_size = 7});
  auto b = eval::FullRankingEvaluate(scorer, split.test, ds,
                                     {.max_instances = 8, .chunk_size = 512});
  EXPECT_EQ(a.ranks(), b.ranks());
}

// ---- Explanations ----------------------------------------------------------------

TEST(ExplainTest, WellFormedAndSorted) {
  auto ds = data::GenerateSynthetic(data::GowallaLikeConfig(0.05));
  auto split = data::TrainTestSplit(ds, {.max_seq_len = 8});
  core::StisanOptions opts;
  opts.poi_dim = 8;
  opts.geo.dim = 8;
  opts.num_blocks = 1;
  opts.train.epochs = 1;
  opts.train.max_train_windows = 10;
  opts.train.num_negatives = 4;
  opts.train.knn_neighborhood = 30;
  core::StisanModel model(ds, opts);
  model.Fit(ds, split.train);

  const auto& inst = split.test.front();
  const int64_t candidate = inst.target;
  auto e = core::ExplainRecommendation(model, ds, inst, candidate, 3);
  EXPECT_EQ(e.candidate, candidate);
  EXPECT_TRUE(std::isfinite(e.score));
  EXPECT_GE(e.km_from_current, 0.0);
  ASSERT_LE(e.attended.size(), 3u);
  ASSERT_GE(e.attended.size(), 1u);
  for (size_t i = 0; i < e.attended.size(); ++i) {
    const auto& s = e.attended[i];
    EXPECT_GE(s.attention, 0.0);
    EXPECT_LE(s.attention, 1.0);
    EXPECT_GE(s.hours_before, 0.0);
    EXPECT_GE(s.km_to_candidate, 0.0);
    if (i > 0) {
      EXPECT_LE(s.attention, e.attended[i - 1].attention);
    }
  }
  // Formatting includes the candidate id and at least one step line.
  const std::string text = core::FormatExplanation(e);
  EXPECT_NE(text.find("candidate POI"), std::string::npos);
  EXPECT_NE(text.find("step"), std::string::npos);
}

TEST(ExplainTest, ScoreMatchesModelScore) {
  auto ds = data::GenerateSynthetic(data::GowallaLikeConfig(0.05));
  auto split = data::TrainTestSplit(ds, {.max_seq_len = 8});
  core::StisanOptions opts;
  opts.poi_dim = 8;
  opts.geo.dim = 8;
  opts.num_blocks = 1;
  opts.train.epochs = 0;
  core::StisanModel model(ds, opts);
  const auto& inst = split.test.front();
  auto e = core::ExplainRecommendation(model, ds, inst, 3);
  EXPECT_EQ(e.score, model.Score(inst, {3})[0]);
}

}  // namespace
}  // namespace stisan
