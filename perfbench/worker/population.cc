#include "population.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "data/preprocess.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

using namespace stisan;

namespace {

constexpr double kDay = 86400.0;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  // SplitMix64 finaliser: distinct, well-spread streams per (seed, salt).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

WorkloadSpec SpecFor(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "serve_rerank") {
    spec.kind = Workload::kServeRerank;
    spec.synth = data::GowallaLikeConfig(1.0);
    return spec;
  }
  if (name == "serve_city") {
    spec.kind = Workload::kServeCity;
    spec.synth = data::MetroScaleConfig(1.0);
    // Fewer users than the preset's 240: generating a metro check-in costs
    // ~0.7 ms (hundreds of POIs per movement choice), set-up runs three
    // times per benchmark run, and every trial serves the whole stream.
    spec.synth.num_users = 64;
    spec.knn_negatives = false;
    // Histories of 30..80 visits, warmed to half: a 44-visit serving
    // window sends about half of the timed requests to the fallback.
    spec.max_seq_len = 44;
    spec.batch_window_us = 300;
    spec.resident_share = 0.25;
    spec.appends_per_request = 2;
    spec.catalog_share = 0.5;
    return spec;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

Population BuildPopulation(const WorkloadSpec& spec, uint64_t seed,
                           double* generate_s) {
  Population pop;
  data::SyntheticConfig synth = spec.synth;
  synth.seed = Mix(seed, static_cast<uint64_t>(spec.kind));
  {
    ScopedSpan span("data.generate");
    const double t0 = NowS();
    pop.dataset = data::GenerateSynthetic(synth);
    if (generate_s != nullptr) *generate_s = NowS() - t0;
  }

  // The generator starts users uniformly over a year, so a replay in
  // global time order would interleave only the few users active in the
  // same weeks. Shift each user's clock (intervals unchanged) so every
  // user starts within the same day and the stream interleaves them all.
  Rng align(Mix(seed, 101));
  for (auto& seq : pop.dataset.user_seqs) {
    if (seq.empty()) continue;
    const double shift = kDay + align.Uniform() * kDay - seq.front().timestamp;
    for (auto& visit : seq) visit.timestamp += shift;
  }
  pop.split = data::TrainTestSplit(pop.dataset, {.max_seq_len = 100});

  Rng rng(Mix(seed, 202));
  const int64_t num_pois = pop.dataset.num_pois();
  std::unordered_set<int64_t> chosen;
  while (static_cast<int64_t>(pop.candidates.size()) <
         std::min(spec.score_candidates, num_pois)) {
    const int64_t poi = rng.UniformInt(int64_t{1}, num_pois);
    if (chosen.insert(poi).second) pop.candidates.push_back(poi);
  }

  struct Keyed {
    double time;
    int64_t user;
    size_t order;
  };
  std::vector<Keyed> keys;
  std::vector<Request> requests;
  const auto& seqs = pop.dataset.user_seqs;
  pop.prewarm_len.resize(seqs.size());
  for (size_t u = 0; u < seqs.size(); ++u) {
    const auto len = static_cast<int64_t>(seqs[u].size());
    const int64_t pre = std::max<int64_t>(1, len / 2);
    pop.prewarm_len[u] = pre;
    for (int64_t i = pre; i < len; i += spec.appends_per_request) {
      Request r;
      r.user = static_cast<int64_t>(u);
      const int64_t end = std::min(len, i + spec.appends_per_request);
      r.appends.assign(seqs[u].begin() + i, seqs[u].begin() + end);
      keys.push_back({r.appends.back().timestamp, r.user, requests.size()});
      requests.push_back(std::move(r));
    }
  }
  std::sort(keys.begin(), keys.end(), [](const Keyed& a, const Keyed& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.user != b.user) return a.user < b.user;
    return a.order < b.order;
  });
  pop.stream.reserve(requests.size());
  for (const Keyed& k : keys) pop.stream.push_back(std::move(requests[k.order]));
  // Catalog requests are spread evenly through the stream (every second
  // request at a share of one half), so each seed serves the same mix.
  if (spec.catalog_share > 0.0) {
    const auto every = static_cast<size_t>(std::lround(1.0 / spec.catalog_share));
    for (size_t i = 0; i < pop.stream.size(); i += every) pop.stream[i].catalog = true;
  }
  return pop;
}

std::unique_ptr<core::StisanModel> BuildModel(
    const WorkloadSpec& spec, const Population& pop,
    std::function<bool(const train::EpochStats&)> on_epoch) {
  core::StisanOptions options;
  options.knn_negatives = spec.knn_negatives;
  options.train.epochs = spec.fit_epochs;
  options.train.max_train_windows = spec.fit_windows_per_epoch;
  options.train.on_epoch = std::move(on_epoch);
  return std::make_unique<core::StisanModel>(pop.dataset, options);
}

serve::ServeOptions ServeOptionsFor(const WorkloadSpec& spec,
                                    const Population& pop) {
  serve::ServeOptions so;
  so.max_sessions = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(
             spec.resident_share *
             static_cast<double>(pop.dataset.num_users()))));
  so.max_seq_len = spec.max_seq_len;
  so.batch_window_us = spec.batch_window_us;
  so.num_pois = pop.dataset.num_pois();
  if (spec.catalog_share > 0.0) {
    so.poi_coords = &pop.dataset.poi_coords;
    so.catalog_pool_size = spec.catalog_pool;
  }
  return so;
}

void Prewarm(serve::RecommendService& service, const Population& pop) {
  const auto& seqs = pop.dataset.user_seqs;
  for (size_t u = 0; u < seqs.size(); ++u) {
    for (int64_t i = 0; i < pop.prewarm_len[u]; ++i) {
      const auto& v = seqs[u][static_cast<size_t>(i)];
      Status st = service.Append(static_cast<int64_t>(u), v.poi, v.timestamp);
      if (!st.ok()) throw std::runtime_error("prewarm append: " + st.ToString());
    }
  }
  std::vector<std::future<serve::ScoreResult>> warm;
  for (size_t u = 0; u < seqs.size(); ++u) {
    warm.push_back(service.ScoreAsync(static_cast<int64_t>(u), pop.candidates));
  }
  for (auto& f : warm) {
    serve::ScoreResult r = f.get();
    if (!r.ok()) throw std::runtime_error("prewarm score: " + r.status.ToString());
  }
  service.Drain();
}

HistoryTracker::HistoryTracker(const Population& pop) {
  const auto& seqs = pop.dataset.user_seqs;
  pois_.resize(seqs.size());
  times_.resize(seqs.size());
  for (size_t u = 0; u < seqs.size(); ++u) {
    for (int64_t i = 0; i < pop.prewarm_len[u]; ++i) {
      pois_[u].push_back(seqs[u][static_cast<size_t>(i)].poi);
      times_[u].push_back(seqs[u][static_cast<size_t>(i)].timestamp);
    }
  }
}

void HistoryTracker::Apply(const Request& request) {
  const auto u = static_cast<size_t>(request.user);
  for (const auto& v : request.appends) {
    pois_[u].push_back(v.poi);
    times_[u].push_back(v.timestamp);
  }
}

data::EvalInstance TrailingWindow(const std::vector<int64_t>& pois,
                                  const std::vector<double>& times,
                                  int64_t max_len) {
  const auto n = std::min<int64_t>(static_cast<int64_t>(pois.size()), max_len);
  data::EvalInstance inst;
  inst.poi.assign(pois.end() - n, pois.end());
  inst.t.assign(times.end() - n, times.end());
  inst.first_real = 0;
  return inst;
}

}  // namespace perfbench
