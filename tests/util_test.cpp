#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace stisan {
namespace {

// ---- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kIoError, StatusCode::kUnimplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseMacros(int x, int* out) {
  STISAN_ASSIGN_OR_RETURN(int half, HalveEven(x));
  *out = half;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseMacros(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_FALSE(UseMacros(7, &out).ok());
}

// ---- Rng ---------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.NextU64() == b.NextU64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(uint64_t{10}));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(RngTest, SignedUniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(int64_t{-5}, int64_t{5});
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(19);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) counts[rng.Categorical(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 20000.0, 0.75, 0.02);
}

TEST(RngTest, ZipfIsSkewed) {
  Rng rng(23);
  const ZipfSampler zipf(100, 1.2);
  int first = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (zipf.Sample(rng) == 0) ++first;
  // Rank 0 must dominate a uniform draw (~1%).
  EXPECT_GT(first, n / 20);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIndependent) {
  Rng a(31);
  Rng b = a.Fork();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

// ---- Strings -----------------------------------------------------------------

TEST(StringTest, SplitBasic) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringTest, SplitEmpty) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringTest, ParseDouble) {
  auto r = ParseDouble(" 3.5 ");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 3.5);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.2x").ok());
}

TEST(StringTest, ParseInt64) {
  auto r = ParseInt64("-42");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), -42);
  EXPECT_FALSE(ParseInt64("12.5").ok());
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

}  // namespace
}  // namespace stisan
