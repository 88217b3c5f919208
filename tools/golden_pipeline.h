// The golden-metrics regression pipeline, shared by the CI test
// (tests/golden_metrics_test.cpp) and the refresh tool
// (tools/refresh_golden_metrics.cc).
//
// A tiny fixed-seed synthetic train+eval run whose HR@{5,10} / NDCG@{5,10}
// are checked into tests/golden/golden_metrics.json and compared EXACTLY in
// CI. Every quantity in the chain is deterministic: data generation, training
// and candidate sampling are seeded, the kernel backend is pinned to one
// thread AND to the scalar fp32 reference path (the AVX2 kernels round
// differently, so kernel selection drift must not perturb this harness —
// SIMD scoring is validated by tolerance in tests/simd_kernels_test
// instead), and the batched evaluator is bit-identical to sequential
// scoring at any batch size. Doubles are serialised with %.17g, which round-trips
// exactly, so the comparison is EXPECT_EQ, not EXPECT_NEAR — any drift in
// metrics is a real behaviour change and must be acknowledged by re-running
// the refresh tool.

#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "core/stisan.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "tensor/kernels.h"

namespace stisan::golden {

/// Runs the pinned pipeline: generate a small Gowalla-like dataset, train a
/// 1-block STiSAN for two epochs, evaluate through the batched pipeline.
/// Takes a few seconds on one core.
inline std::map<std::string, double> ComputeGoldenMetrics() {
  kernels::SetNumThreads(1);
  // Pin the scalar reference kernels (equivalent to STISAN_SIMD=0) for the
  // whole process — the exact %.17g comparison must see one backend only.
  kernels::SetSimdEnabledForTesting(0);

  auto dataset = data::GenerateSynthetic(data::GowallaLikeConfig(0.08));
  auto split = data::TrainTestSplit(dataset, {.max_seq_len = 12});

  core::StisanOptions options;
  options.poi_dim = 8;
  options.geo.dim = 8;
  options.geo.fourier_dim = 4;
  options.num_blocks = 1;
  options.train.epochs = 2;
  options.train.seed = 20220501;
  options.train.max_train_windows = 60;
  core::StisanModel model(dataset, options);
  model.Fit(dataset, split.train);

  eval::CandidateGenerator generator(dataset);
  eval::EvalOptions eval_options;
  eval_options.num_negatives = 50;
  eval_options.batch_size = 8;
  auto acc = eval::Evaluate(static_cast<eval::BatchScorer&>(model), split.test,
                            generator, eval_options);

  std::map<std::string, double> metrics = acc.Means();
  metrics["MRR"] = acc.MeanReciprocalRank();
  metrics["count"] = static_cast<double>(acc.count());
  return metrics;
}

/// Serialises metrics as a flat JSON object, keys sorted (std::map order),
/// doubles at 17 significant digits (lossless round-trip).
inline std::string ToJson(const std::map<std::string, double>& metrics) {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [key, value] : metrics) {
    if (!first) out += ",\n";
    first = false;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "  \"%s\": %.17g", key.c_str(), value);
    out += buf;
  }
  out += "\n}\n";
  return out;
}

/// Parses the flat JSON objects ToJson produces (string keys, numeric
/// values; no nesting, no escapes). Malformed entries are skipped.
inline std::map<std::string, double> ParseFlatJson(const std::string& text) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const size_t key_end = text.find('"', pos + 1);
    if (key_end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, key_end - pos - 1);
    size_t cursor = key_end + 1;
    while (cursor < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[cursor])) ||
            text[cursor] == ':')) {
      ++cursor;
    }
    if (cursor < text.size() &&
        (text[cursor] == '-' || text[cursor] == '+' ||
         std::isdigit(static_cast<unsigned char>(text[cursor])))) {
      out[key] = std::strtod(text.c_str() + cursor, nullptr);
    }
    pos = key_end + 1;
  }
  return out;
}

}  // namespace stisan::golden
