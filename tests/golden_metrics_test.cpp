// Golden-metrics regression test: the pinned fixed-seed train+eval pipeline
// must reproduce tests/golden/golden_metrics.json EXACTLY (bit-equal doubles
// after a lossless %.17g round-trip). Any mismatch is a real numerics change;
// acknowledge intentional ones by re-running tools/refresh_golden_metrics and
// committing the updated JSON.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "tools/golden_pipeline.h"

namespace stisan::golden {
namespace {

std::map<std::string, double> LoadGolden() {
  std::ifstream in(STISAN_GOLDEN_JSON);
  EXPECT_TRUE(in.good())
      << "missing " << STISAN_GOLDEN_JSON
      << "; regenerate it with tools/refresh_golden_metrics";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseFlatJson(buffer.str());
}

void ExpectMatchesGolden(const std::map<std::string, double>& computed) {
  const auto golden = LoadGolden();
  ASSERT_FALSE(golden.empty()) << "golden file parsed to nothing";
  EXPECT_EQ(golden.size(), computed.size());
  for (const auto& [key, value] : computed) {
    ASSERT_TRUE(golden.contains(key)) << "metric missing from golden: " << key;
    EXPECT_EQ(golden.at(key), value) << key;
  }
  for (const auto& [key, value] : golden) {
    EXPECT_TRUE(computed.contains(key)) << "stale golden metric: " << key;
  }
}

TEST(GoldenJsonTest, RoundTripsExactly) {
  const std::map<std::string, double> metrics = {
      {"HR@5", 0.12345678901234567},
      {"NDCG@10", 1.0 / 3.0},
      {"MRR", 0.09999999999999998},
      {"count", 144.0},
      {"zero", 0.0},
  };
  const auto parsed = ParseFlatJson(ToJson(metrics));
  ASSERT_EQ(parsed.size(), metrics.size());
  for (const auto& [key, value] : metrics) {
    ASSERT_TRUE(parsed.contains(key)) << key;
    EXPECT_EQ(parsed.at(key), value) << key;  // bit-exact round-trip
  }
}

TEST(GoldenMetricsTest, PipelineMatchesCheckedInGolden) {
  // Exact keys, exact values: the whole chain (synthetic data, training,
  // candidate sampling, batched evaluation) is pinned-deterministic.
  ExpectMatchesGolden(ComputeGoldenMetrics());
}

}  // namespace
}  // namespace stisan::golden
