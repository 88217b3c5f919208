// Serving-layer contracts.
//
// 1. Incremental-vs-full bit-identity: appending check-ins one at a time
//    through the service (or the engine directly) produces scores
//    bit-identical to a cold full forward at EVERY prefix length — across
//    model configs (TAPE and vanilla PE, every attention mode), thread
//    counts {1, 4}, forced mid-sequence evictions, and a relation ceiling
//    that moves on almost every append.
// 2. Micro-batching determinism: per-user scores and the serve obs
//    counter totals are independent of arrival interleaving and of the
//    batching (Pump(), and the worker thread with a coalescing window at
//    caps {1, 4, 32}); metric accumulation reuses the
//    MetricAccumulator::Merge rank-replay pattern from
//    eval_pipeline_test.cpp.
// 3. Concurrent-vs-sequential serving: one batch of many users scored as
//    per-user pool tasks at 1 and 4 threads answers, fails and counts
//    exactly as a sequential SessionStore + IncrementalScorer replay, with
//    evictions, window overflow, catalog requests and injected faults.
// 4. Session-store property/fuzz: randomized append/evict/lookup/resident
//    interleavings against a naive map-of-vectors + LRU-deque reference.
// 5. Batched inference: StisanModel::ScoreBatch equals Score bit for bit
//    at pool sizes {1, 4} and batch sizes {1, 3, 7, 32} (one sub-batch per
//    pool thread, uneven splits included), and the single-token /
//    mixed-length regressions (StisanModel::ScoreBatch used to CHECK-fail
//    on ragged inputs).

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/stisan.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "geo/candidate_gen.h"
#include "geo/spatial_index.h"
#include "models/san_models.h"
#include "obs/metrics.h"
#include "serve/fault_injector.h"
#include "serve/service.h"
#include "serve/session_store.h"
#include "tensor/kernels.h"
#include "util/rng.h"
#include "util/status.h"

namespace stisan {
namespace {

core::StisanOptions TinyStisanOptions() {
  core::StisanOptions opts;
  opts.poi_dim = 8;
  opts.geo.dim = 8;
  opts.geo.fourier_dim = 4;
  opts.num_blocks = 2;
  opts.train.seed = 7;
  opts.knn_negatives = false;  // no Fit in these tests; skip KNN setup
  return opts;
}

models::SanOptions TinySanOptions() {
  models::SanOptions opts;
  opts.base.dim = 16;
  opts.num_blocks = 2;
  opts.max_seq_len = 32;
  opts.base.train.seed = 11;
  return opts;
}

struct StisanConfig {
  const char* label;
  core::StisanOptions opts;
};

// Positional encoding x attention mode combinations.
std::vector<StisanConfig> ServingConfigs() {
  std::vector<StisanConfig> configs;
  {
    auto o = TinyStisanOptions();
    o.use_tape = false;  // vanilla PE, interval-aware attention
    configs.push_back({"pe_interval", o});
  }
  {
    auto o = TinyStisanOptions();
    o.use_tape = false;
    o.attention_mode = core::AttentionMode::kVanilla;
    configs.push_back({"pe_vanilla", o});
  }
  {
    auto o = TinyStisanOptions();
    o.use_tape = false;
    o.attention_mode = core::AttentionMode::kRelationOnly;
    o.use_taad = false;  // also covers the non-TAAD decode
    configs.push_back({"pe_relation_only", o});
  }
  {
    auto o = TinyStisanOptions();  // full STiSAN
    configs.push_back({"tape_interval", o});
  }
  {
    auto o = TinyStisanOptions();
    o.attention_mode = core::AttentionMode::kVanilla;
    configs.push_back({"tape_vanilla", o});
  }
  return configs;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = data::GenerateSynthetic(data::GowallaLikeConfig(0.08));
    obs::ResetAllForTesting();
  }

  void TearDown() override { kernels::SetNumThreads(1); }

  // User ids whose synthetic history has at least min_len visits.
  std::vector<int64_t> PickUsers(size_t min_len, size_t max_users) const {
    std::vector<int64_t> users;
    for (size_t u = 0; u < ds_.user_seqs.size(); ++u) {
      if (ds_.user_seqs[u].size() >= min_len) {
        users.push_back(static_cast<int64_t>(u));
        if (users.size() == max_users) break;
      }
    }
    return users;
  }

  // Deterministic candidate list: `target` first, then distinct POIs.
  std::vector<int64_t> Candidates(int64_t target, size_t count,
                                  uint64_t seed) const {
    Rng rng(seed);
    std::vector<int64_t> cands{target};
    while (cands.size() < count) {
      const int64_t poi =
          1 + static_cast<int64_t>(rng.UniformInt(
                  static_cast<uint64_t>(ds_.num_pois())));
      if (std::find(cands.begin(), cands.end(), poi) == cands.end()) {
        cands.push_back(poi);
      }
    }
    return cands;
  }

  // Cold reference: full forward over the unpadded prefix.
  static std::vector<float> ColdScore(models::SequentialRecommender& model,
                                      const std::vector<data::Visit>& seq,
                                      size_t prefix,
                                      const std::vector<int64_t>& cands) {
    data::EvalInstance inst;
    inst.first_real = 0;
    for (size_t i = 0; i < prefix; ++i) {
      inst.poi.push_back(seq[i].poi);
      inst.t.push_back(seq[i].timestamp);
    }
    return model.Score(inst, cands);
  }

  data::Dataset ds_;
};

// ---------------------------------------------------------------------------
// Incremental-vs-full bit-identity through the service, every prefix
// length, threads {1, 4}, with mid-sequence evictions forced two ways:
// explicitly (EvictSession) and by capacity (max_sessions = 1 with two
// users alternating, so each user's score evicts the other's state).
// ---------------------------------------------------------------------------

TEST_F(ServeTest, IncrementalBitIdenticalAtEveryPrefix) {
  const auto users = PickUsers(/*min_len=*/10, /*max_users=*/2);
  ASSERT_EQ(users.size(), 2u);
  for (const auto& config : ServingConfigs()) {
    core::StisanModel model(ds_, config.opts);
    for (int64_t threads : {1, 4}) {
      kernels::SetNumThreads(threads);
      serve::ServeOptions so;
      so.num_pois = ds_.num_pois();
      so.max_sessions = 1;  // two alternating users -> capacity evictions
      so.max_seq_len = 32;
      so.start_worker = false;
      serve::RecommendService service(&model, so);
      ASSERT_TRUE(service.incremental());

      const size_t len =
          std::min<size_t>(12, std::min(ds_.user_seqs[users[0]].size(),
                                        ds_.user_seqs[users[1]].size()));
      for (size_t k = 1; k <= len; ++k) {
        for (int64_t user : users) {
          const auto& seq = ds_.user_seqs[static_cast<size_t>(user)];
          service.Append(user, seq[k - 1].poi, seq[k - 1].timestamp);
          if (k == len / 2) service.EvictSession(user);  // forced eviction
          const auto cands = Candidates(seq[k - 1].poi, 20, 99 + user);
          const auto got = service.Score(user, cands).scores;
          const auto want = ColdScore(model, seq, k, cands);
          ASSERT_EQ(got, want)
              << config.label << " threads=" << threads << " user=" << user
              << " prefix=" << k;
        }
      }
    }
  }
  // Two users under a one-slot cap: every alternation evicts.
  EXPECT_GT(obs::GetCounter("serve/evictions").Get(), 0u);
  EXPECT_GT(obs::GetCounter("serve/cold_builds").Get(), 0u);
  EXPECT_GT(obs::GetCounter("serve/incremental_scored").Get(), 0u);
  EXPECT_EQ(obs::GetCounter("serve/fallback_scored").Get(), 0u);
}

// Direct engine coverage across relation-ceiling moves: the same POI
// repeated with growing gaps raises r_hat_max on almost every append until
// the kt clip, so every score's scaled relation differs from the previous
// one's in every row. Run through the full model and the no-TAPE ablation.
TEST_F(ServeTest, EngineBitIdenticalAsRelationCeilingMoves) {
  // Growing gaps: 0s, 1h, 6h, 1d, 3d, ... each new max pair raises the
  // ceiling.
  std::vector<data::Visit> seq;
  double t = 1000.0;
  const double gaps[] = {0,      3600,    21600,   86400,  259200,
                         604800, 1209600, 2592000, 5184000};
  const int64_t poi = 1 + static_cast<int64_t>(ds_.num_pois()) / 2;
  for (double gap : gaps) {
    t += gap;
    seq.push_back({poi, t});
  }
  const auto cands = Candidates(poi, 15, 4242);
  auto no_tape = TinyStisanOptions();
  no_tape.use_tape = false;
  for (const auto& opts : {TinyStisanOptions(), no_tape}) {
    core::StisanModel model(ds_, opts);
    core::IncrementalScorer engine(&model, 32);
    auto state = engine.NewState();
    std::vector<int64_t> pois;
    std::vector<double> times;
    for (size_t k = 0; k < seq.size(); ++k) {
      pois.push_back(seq[k].poi);
      times.push_back(seq[k].timestamp);
      const auto got = engine.Score(*state, pois, times, cands);
      const auto want = ColdScore(model, seq, k + 1, cands);
      ASSERT_EQ(got, want) << "use_tape=" << opts.use_tape
                           << " prefix=" << k + 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Overflow past the serving window: the service scores the trailing
// window with a cold forward, transparently and bit-identically.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, OverflowFallsBackToWindowedBatchPath) {
  auto opts = TinyStisanOptions();
  opts.use_tape = false;
  core::StisanModel model(ds_, opts);
  const auto users = PickUsers(/*min_len=*/14, /*max_users=*/1);
  ASSERT_EQ(users.size(), 1u);
  const auto& seq = ds_.user_seqs[static_cast<size_t>(users[0])];

  serve::ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.max_seq_len = 8;
  so.start_worker = false;
  serve::RecommendService service(&model, so);

  const size_t len = std::min<size_t>(14, seq.size());
  for (size_t k = 1; k <= len; ++k) {
    service.Append(users[0], seq[k - 1].poi, seq[k - 1].timestamp);
    const auto cands = Candidates(seq[k - 1].poi, 20, 7);
    const auto got = service.Score(users[0], cands).scores;
    // Reference: cold forward on the trailing window of max_seq_len.
    const size_t window = std::min<size_t>(k, 8);
    std::vector<data::Visit> tail(seq.begin() + (k - window),
                                  seq.begin() + k);
    const auto want = ColdScore(model, tail, window, cands);
    ASSERT_EQ(got, want) << "prefix=" << k;
  }
  EXPECT_GT(obs::GetCounter("serve/overflows").Get(), 0u);
  EXPECT_GT(obs::GetCounter("serve/fallback_scored").Get(), 0u);
  EXPECT_GT(obs::GetCounter("serve/incremental_scored").Get(), 0u);
}

// Cold start: a score before any append resolves to all-zero scores.
TEST_F(ServeTest, ColdStartScoresZero) {
  auto opts = TinyStisanOptions();
  opts.use_tape = false;
  core::StisanModel model(ds_, opts);
  serve::ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.start_worker = false;
  serve::RecommendService service(&model, so);
  const auto result = service.Score(77, {1, 2, 3});
  EXPECT_EQ(result.scores, std::vector<float>(3, 0.0f));
  EXPECT_EQ(obs::GetCounter("serve/cold_starts").Get(), 1u);
}

// ---------------------------------------------------------------------------
// Non-incremental models serve through their own cold Score over the
// trailing window, with the same bit-identity contract.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, FallbackModelBitIdenticalThroughService) {
  models::SasRecModel model(ds_, TinySanOptions());
  const auto users = PickUsers(/*min_len=*/8, /*max_users=*/3);
  ASSERT_GE(users.size(), 2u);

  for (int64_t threads : {1, 4}) {
    kernels::SetNumThreads(threads);
    serve::ServeOptions so;
    so.num_pois = ds_.num_pois();
    so.start_worker = false;
    serve::RecommendService service(&model, so);
    EXPECT_FALSE(service.incremental());

    // Interleave appends, then send all score requests into one pump, so
    // users with differing history lengths score side by side.
    std::vector<std::future<serve::ScoreResult>> futures;
    std::vector<std::vector<float>> want;
    for (size_t i = 0; i < users.size(); ++i) {
      const auto& seq = ds_.user_seqs[static_cast<size_t>(users[i])];
      const size_t prefix = 5 + i;  // distinct lengths -> distinct groups
      for (size_t k = 0; k < prefix; ++k) {
        service.Append(users[i], seq[k].poi, seq[k].timestamp);
      }
      const auto cands = Candidates(seq[prefix - 1].poi, 20, 11 + i);
      futures.push_back(service.ScoreAsync(users[i], cands));
      want.push_back(ColdScore(model, seq, prefix, cands));
    }
    service.Pump();
    for (size_t i = 0; i < users.size(); ++i) {
      EXPECT_EQ(futures[i].get().scores, want[i])
          << "threads=" << threads << " user=" << users[i];
    }
  }
}

// ---------------------------------------------------------------------------
// Micro-batching determinism: per-user scores and serve counter totals do
// not depend on arrival interleaving or on how the worker batches. Each
// arrival order runs once through Pump(), which takes the whole queue as
// one batch whatever max_batch is, and three times through the worker
// thread with a coalescing window, which max_batch cuts short. Rank
// metrics are accumulated shard-by-shard and merged (the
// MetricAccumulator::Merge rank-replay pattern from
// eval_pipeline_test.cpp).
// ---------------------------------------------------------------------------

TEST_F(ServeTest, MicroBatchingDeterminism) {
  models::SasRecModel model(ds_, TinySanOptions());
  const auto users = PickUsers(/*min_len=*/7, /*max_users=*/8);
  ASSERT_GE(users.size(), 4u);
  const size_t prefix = 6;

  // Per-user candidates: target = the (prefix+1)-th visit, index 0.
  std::vector<std::vector<int64_t>> cands(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    const auto& seq = ds_.user_seqs[static_cast<size_t>(users[i])];
    cands[i] = Candidates(seq[prefix].poi, 25, 1000 + i);
  }

  // Reference: cold per-instance scores, ranks accumulated in user order.
  eval::MetricAccumulator reference;
  std::vector<std::vector<float>> ref_scores(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    const auto& seq = ds_.user_seqs[static_cast<size_t>(users[i])];
    ref_scores[i] = ColdScore(model, seq, prefix, cands[i]);
    reference.Add(eval::RankOfTarget(ref_scores[i], 0));
  }

  // (append order seed, leg) grid; order 0 = user-major order. max_batch
  // 0 is the Pump() leg.
  std::map<std::string, uint64_t> counter_baseline;
  for (uint64_t order_seed : {0u, 1u, 2u}) {
    for (int64_t max_batch : {0, 1, 4, 32}) {
      const bool worker = max_batch > 0;
      obs::ResetAllForTesting();
      serve::ServeOptions so;
      so.num_pois = ds_.num_pois();
      so.start_worker = worker;
      if (worker) {
        so.batch_window_us = 1000;
        so.max_batch = max_batch;
      }
      serve::RecommendService service(&model, so);

      // Build the op stream: every (user, visit-k) append plus one score
      // per user, shuffled by order_seed but FIFO per user (appends keep
      // their relative order; the score comes after the last append).
      std::vector<std::pair<size_t, size_t>> stream;  // (user idx, step)
      for (size_t i = 0; i < users.size(); ++i) {
        for (size_t k = 0; k < prefix; ++k) stream.push_back({i, k});
      }
      if (order_seed != 0) {
        // Deterministic interleave: rotate user blocks then round-robin.
        Rng rng(order_seed);
        std::stable_sort(stream.begin(), stream.end(),
                         [](const auto& a, const auto& b) {
                           return a.second < b.second;
                         });
        if (order_seed == 2) {
          std::reverse(stream.begin(), stream.end());
          std::stable_sort(stream.begin(), stream.end(),
                           [](const auto& a, const auto& b) {
                             return a.second < b.second;
                           });
        }
      }
      for (const auto& [i, k] : stream) {
        const auto& seq = ds_.user_seqs[static_cast<size_t>(users[i])];
        service.Append(users[i], seq[k].poi, seq[k].timestamp);
      }
      std::vector<std::future<serve::ScoreResult>> futures(users.size());
      for (size_t i = 0; i < users.size(); ++i) {
        const size_t j = order_seed == 2 ? users.size() - 1 - i : i;
        futures[j] = service.ScoreAsync(users[j], cands[j]);
      }
      // Without a worker Drain() pumps the queue as one batch; with one
      // it waits until every op is processed, so the counters below are
      // final.
      service.Drain();

      // Scores invariant to arrival order and batching; ranks merged
      // from two shards replay to the reference accumulator exactly.
      eval::MetricAccumulator lo, hi;
      for (size_t i = 0; i < users.size(); ++i) {
        const auto scores = futures[i].get().scores;
        EXPECT_EQ(scores, ref_scores[i])
            << "order=" << order_seed << " batch=" << max_batch
            << " user=" << users[i];
        (i < users.size() / 2 ? lo : hi)
            .Add(eval::RankOfTarget(scores, 0));
      }
      eval::MetricAccumulator merged;
      merged.Merge(lo);
      merged.Merge(hi);
      EXPECT_EQ(merged.ranks(), reference.ranks());
      EXPECT_EQ(merged.MeanReciprocalRank(), reference.MeanReciprocalRank());
      for (const auto& [key, value] : reference.Means()) {
        EXPECT_EQ(merged.Means().at(key), value) << key;
      }

      // Counter totals depend only on the op multiset, not the batching.
      std::map<std::string, uint64_t> counters{
          {"serve/appends", obs::GetCounter("serve/appends").Get()},
          {"serve/requests", obs::GetCounter("serve/requests").Get()},
          {"serve/fallback_scored",
           obs::GetCounter("serve/fallback_scored").Get()},
          {"serve/incremental_scored",
           obs::GetCounter("serve/incremental_scored").Get()},
          {"serve/cold_starts", obs::GetCounter("serve/cold_starts").Get()},
      };
      EXPECT_EQ(obs::GetHistogram("time/serve/request").TotalCount(),
                counters["serve/requests"]);
      if (counter_baseline.empty()) {
        counter_baseline = counters;
      } else {
        EXPECT_EQ(counters, counter_baseline)
            << "order=" << order_seed << " batch=" << max_batch;
      }
    }
  }
}

// Same contract with the worker thread + a coalescing window: whatever
// the wall-clock batching, scores match the cold reference.
TEST_F(ServeTest, WorkerThreadWithCoalescingWindowMatches) {
  auto opts = TinyStisanOptions();
  opts.use_tape = false;
  core::StisanModel model(ds_, opts);
  const auto users = PickUsers(/*min_len=*/6, /*max_users=*/4);
  ASSERT_GE(users.size(), 2u);

  serve::ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.batch_window_us = 200;
  so.start_worker = true;
  serve::RecommendService service(&model, so);

  std::vector<std::future<serve::ScoreResult>> futures;
  std::vector<std::vector<float>> want;
  for (size_t i = 0; i < users.size(); ++i) {
    const auto& seq = ds_.user_seqs[static_cast<size_t>(users[i])];
    for (size_t k = 0; k < 5; ++k) {
      service.Append(users[i], seq[k].poi, seq[k].timestamp);
    }
    const auto cands = Candidates(seq[4].poi, 20, 31 + i);
    futures.push_back(service.ScoreAsync(users[i], cands));
    want.push_back(ColdScore(model, seq, 5, cands));
  }
  service.Drain();
  for (size_t i = 0; i < users.size(); ++i) {
    auto result = futures[i].get();
    EXPECT_EQ(result.scores, want[i]) << "user=" << users[i];
    EXPECT_GE(result.latency_s, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Concurrent serving equals sequential serving: one Pump() batch with many
// users (each user's scores run as one pool task), capacity evictions that
// land mid-batch, a user crossing the serving window, catalog requests and
// injected scorer throws and evictions. At pool sizes 1 and 4, every OK
// answer equals a cold model->Score on its arrival-time window, and the
// failed requests and every serve/* counter equal a sequential replay
// through SessionStore + IncrementalScorer.
// ---------------------------------------------------------------------------

struct StreamOp {
  enum Kind { kAppend, kScore, kCatalog } kind;
  int64_t user;
  data::Visit visit;                // kAppend
  std::vector<int64_t> candidates;  // kScore
};

// One request's outcome: the status code, the answer, and (from the
// replay) the window and candidates a cold forward must reproduce.
struct Answer {
  StatusCode code = StatusCode::kOk;
  std::vector<float> scores;
  std::vector<int64_t> pois;
  data::EvalInstance window;
  std::vector<int64_t> candidates;
  bool operator==(const Answer& o) const {
    return code == o.code && scores == o.scores && pois == o.pois;
  }
};

// The catalog answer: descending score, ties by ascending id, top k.
void RankTopK(const std::vector<int64_t>& pool,
              const std::vector<float>& scores, int64_t top_k, Answer* out) {
  std::vector<size_t> order(pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return pool[a] < pool[b];
  });
  order.resize(std::min(order.size(), static_cast<size_t>(top_k)));
  out->pois.clear();
  out->scores.clear();
  for (size_t i : order) {
    out->pois.push_back(pool[i]);
    out->scores.push_back(scores[i]);
  }
}

constexpr int64_t kCatalogTopK = 5;

std::map<std::string, uint64_t> ServeCounters() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : obs::TakeSnapshot().counters) {
    if (name.rfind("serve/", 0) == 0 && value != 0) out[name] = value;
  }
  return out;
}

// Applies the stream op by op in the order RecommendService sequences it
// (request validation aside), running each request's job — catalog stage
// one, then the engine or a cold windowed forward — on the spot.
std::vector<Answer> SequentialReplay(core::StisanModel& model,
                                     const data::Dataset& ds,
                                     const serve::ServeOptions& so,
                                     const serve::ServeFaultPlan& plan,
                                     const std::vector<StreamOp>& stream,
                                     std::map<std::string, uint64_t>* counts) {
  serve::SessionStore store(so.max_sessions);
  core::IncrementalScorer engine(&model, so.max_seq_len);
  serve::ServeFaultInjector faults;
  faults.SetPlan(plan);
  const geo::SpatialGridIndex index(
      std::vector<geo::GeoPoint>(ds.poi_coords.begin() + 1,
                                 ds.poi_coords.end()),
      so.catalog_cell_km);
  geo::CandidatePoolOptions pool_options;
  pool_options.pool_size = so.catalog_pool_size;
  const geo::CandidateGenerator gen(index, pool_options);
  geo::SpatialGridIndex::QueryScratch scratch;
  auto& c = *counts;

  std::vector<Answer> answers;
  for (const StreamOp& op : stream) {
    if (op.kind == StreamOp::kAppend) {
      store.Append(op.user, op.visit.poi, op.visit.timestamp);
      ++c["serve/appends"];
      serve::Session& s = store.GetOrCreate(op.user);
      if (s.resident &&
          static_cast<int64_t>(s.pois.size()) > so.max_seq_len) {
        store.Evict(op.user);
        ++c["serve/overflows"];
      }
      continue;
    }
    Answer a;
    ++c["serve/requests"];
    if (faults.ShouldEvictBeforeScore()) store.Evict(op.user);
    serve::Session& s = store.GetOrCreate(op.user);
    const auto len = static_cast<int64_t>(s.pois.size());
    a.candidates = op.candidates;
    const bool catalog = op.kind == StreamOp::kCatalog;
    if (catalog) {
      ++c["serve/catalog_requests"];
      if (len == 0) {
        a.code = StatusCode::kFailedPrecondition;
        answers.push_back(a);
        continue;
      }
    }
    const int64_t n = std::min(len, so.max_seq_len);
    a.window.poi.assign(s.pois.end() - n, s.pois.end());
    a.window.t.assign(s.timestamps.end() - n, s.timestamps.end());
    const bool incremental = len > 0 && len <= so.max_seq_len;
    std::vector<float> scores;
    try {
      if (len == 0) {
        faults.MaybeThrowOnScore();
        ++c["serve/cold_starts"];
        scores.assign(a.candidates.size(), 0.0f);
      } else {
        if (incremental) {
          const int64_t before = store.evictions();
          store.MarkResident(s, s.state ? nullptr : engine.NewState());
          c["serve/evictions"] +=
              static_cast<uint64_t>(store.evictions() - before);
          if (s.state->cached_len == 0 && len > 1) ++c["serve/cold_builds"];
          faults.MaybeThrowOnScore();
        }
        // What the request's job does: stage one, then the score.
        if (catalog) {
          const std::unordered_set<int64_t> visited(s.pois.begin(),
                                                    s.pois.end());
          std::vector<int64_t> ids;
          gen.Generate(
              ds.poi_coords[static_cast<size_t>(s.pois.back())],
              [&visited](int64_t id) { return !visited.contains(id + 1); },
              &scratch, &ids);
          a.candidates.clear();
          for (int64_t id : ids) a.candidates.push_back(id + 1);
          if (a.candidates.empty()) {
            answers.push_back(a);
            continue;
          }
        }
        if (incremental) {
          scores = engine.Score(*s.state, s.pois, s.timestamps, a.candidates);
          ++c["serve/incremental_scored"];
        } else {
          scores = model.Score(a.window, a.candidates);
          ++c["serve/fallback_scored"];
        }
      }
    } catch (const serve::ServeFaultError&) {
      ++c["serve/batch_failures"];
      a.code = StatusCode::kInternal;
      answers.push_back(a);
      continue;
    }
    if (catalog) {
      RankTopK(a.candidates, scores, kCatalogTopK, &a);
    } else {
      a.scores = std::move(scores);
    }
    answers.push_back(a);
  }
  for (auto it = counts->begin(); it != counts->end();) {
    it = it->second == 0 ? counts->erase(it) : std::next(it);
  }
  return answers;
}

TEST_F(ServeTest, ConcurrentServingMatchesSequentialReplay) {
  core::StisanModel model(ds_, TinyStisanOptions());  // full STiSAN
  // Eight regular users plus one that crosses the serving window mid-batch.
  const auto users = PickUsers(/*min_len=*/16, /*max_users=*/9);
  ASSERT_EQ(users.size(), 9u);
  const int64_t crosser = users.back();
  const int64_t never_seen = 1'000'000;

  serve::ServeOptions so;
  so.start_worker = false;
  so.max_sessions = 3;  // below the 9 active users: evictions mid-batch
  so.max_seq_len = 10;
  so.num_pois = ds_.num_pois();
  so.poi_coords = &ds_.poi_coords;
  so.catalog_pool_size = 40;
  serve::ServeFaultPlan plan;
  plan.throw_every_scores = 5;
  plan.evict_every_scores = 4;

  // Rounds of (append, score) per user, every third request a catalog
  // request. The first user appends and scores twice in a row per round,
  // so consecutive scores share one cache state; the crosser appends three
  // visits per round and passes max_seq_len right after its fourth score.
  std::vector<StreamOp> stream;
  std::vector<size_t> next(users.size(), 0);
  int64_t requests = 0;
  auto append = [&](size_t i) {
    const auto& seq = ds_.user_seqs[static_cast<size_t>(users[i])];
    stream.push_back({StreamOp::kAppend, users[i], seq[next[i]++], {}});
  };
  auto request = [&](int64_t user, uint64_t seed) {
    const bool catalog = ++requests % 3 == 0;
    stream.push_back({catalog ? StreamOp::kCatalog : StreamOp::kScore, user,
                      {},
                      catalog ? std::vector<int64_t>{}
                              : Candidates(1 + static_cast<int64_t>(seed) %
                                                   ds_.num_pois(),
                                           12, seed)});
  };
  for (int round = 0; round < 5; ++round) {
    for (size_t i = 0; i < users.size(); ++i) {
      const int reps = i == 0 ? 2 : 1;
      for (int rep = 0; rep < reps; ++rep) {
        append(i);
        request(users[i], 100 * round + 10 * i + rep);
        if (users[i] == crosser) {
          // Resident right after its own score: the window overflow
          // releases its state.
          append(i);
          append(i);
        }
      }
    }
    if (round == 2) {
      request(never_seen, 7);  // cold start (or its catalog failure)
      request(never_seen, 8);
      request(never_seen, 9);
    }
  }

  std::vector<bool> catalog;
  for (const StreamOp& op : stream) {
    if (op.kind != StreamOp::kAppend) {
      catalog.push_back(op.kind == StreamOp::kCatalog);
    }
  }
  std::map<std::string, uint64_t> replay_counts;
  const std::vector<Answer> replay =
      SequentialReplay(model, ds_, so, plan, stream, &replay_counts);
  ASSERT_EQ(static_cast<int64_t>(replay.size()), requests);
  for (const char* path :
       {"serve/evictions", "serve/cold_builds", "serve/overflows",
        "serve/fallback_scored", "serve/batch_failures",
        "serve/catalog_requests", "serve/cold_starts"}) {
    EXPECT_TRUE(replay_counts.contains(path)) << path << " never taken";
  }

  for (int64_t threads : {1, 4}) {
    kernels::SetNumThreads(threads);
    obs::ResetAllForTesting();
    serve::ServeFaultInjector injector;
    injector.SetPlan(plan);
    so.fault_injector = &injector;
    serve::RecommendService service(&model, so);
    std::vector<std::future<serve::ScoreResult>> futures;
    for (const StreamOp& op : stream) {
      if (op.kind == StreamOp::kAppend) {
        ASSERT_TRUE(
            service.Append(op.user, op.visit.poi, op.visit.timestamp).ok());
      } else if (op.kind == StreamOp::kScore) {
        futures.push_back(service.ScoreAsync(op.user, op.candidates));
      } else {
        futures.push_back(service.RankCatalogAsync(op.user, kCatalogTopK));
      }
    }
    const uint64_t tasks_before = kernels::GlobalPool().tasks_submitted();
    ASSERT_EQ(service.Pump(), stream.size());  // one batch
    // Each of the nine users with recorded jobs ran as one pool task (none
    // at one thread, where the worker runs them itself); windowed and
    // catalog jobs run inside their user's task.
    EXPECT_EQ(kernels::GlobalPool().tasks_submitted() - tasks_before,
              threads == 1 ? 0u : users.size())
        << "threads=" << threads;

    for (size_t r = 0; r < futures.size(); ++r) {
      serve::ScoreResult got = futures[r].get();
      Answer served;
      served.code = got.status.code();
      served.scores = std::move(got.scores);
      served.pois = std::move(got.pois);
      EXPECT_EQ(served, replay[r]) << "threads=" << threads << " request=" << r;
      if (served.code != StatusCode::kOk || replay[r].candidates.empty()) {
        continue;
      }
      // The oracle: a cold forward on the arrival-time window (all zeros
      // for a user without history).
      Answer want;
      if (replay[r].window.poi.empty()) {
        want.scores.assign(replay[r].candidates.size(), 0.0f);
      } else {
        want.scores = model.Score(replay[r].window, replay[r].candidates);
        if (catalog[r]) {
          RankTopK(replay[r].candidates, std::vector<float>(want.scores),
                   kCatalogTopK, &want);
        }
      }
      EXPECT_EQ(served.scores, want.scores)
          << "threads=" << threads << " request=" << r;
      EXPECT_EQ(served.pois, want.pois)
          << "threads=" << threads << " request=" << r;
    }
    EXPECT_EQ(ServeCounters(), replay_counts) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Session-store property/fuzz: randomized interleavings against a naive
// reference (map of vectors + LRU deque).
// ---------------------------------------------------------------------------

TEST(SessionStoreTest, FuzzAgainstNaiveReference) {
  constexpr int64_t kCap = 4;
  constexpr int64_t kUsers = 11;
  serve::SessionStore store(kCap);
  std::map<int64_t, std::vector<std::pair<int64_t, double>>> ref_history;
  std::vector<int64_t> ref_lru;  // front = most recent resident
  int64_t ref_evictions = 0;
  Rng rng(0xC0FFEE);

  auto ref_drop = [&](int64_t user) {
    ref_lru.erase(std::remove(ref_lru.begin(), ref_lru.end(), user),
                  ref_lru.end());
  };

  for (int step = 0; step < 4000; ++step) {
    const int64_t user = static_cast<int64_t>(rng.UniformInt(uint64_t(kUsers)));
    switch (rng.UniformInt(uint64_t(5))) {
      case 0:
      case 1: {  // append
        const int64_t poi = 1 + static_cast<int64_t>(rng.UniformInt(50u));
        const double t = static_cast<double>(step) * 13.0;
        store.Append(user, poi, t);
        ref_history[user].push_back({poi, t});
        break;
      }
      case 2: {  // lookup: histories match the reference exactly
        serve::Session* s = store.Find(user);
        auto it = ref_history.find(user);
        if (it == ref_history.end()) {
          if (s != nullptr) {
            // Sessions may exist with empty histories (resident marks).
            ASSERT_TRUE(s->pois.empty());
          }
        } else {
          ASSERT_NE(s, nullptr);
          ASSERT_EQ(s->pois.size(), it->second.size());
          for (size_t i = 0; i < it->second.size(); ++i) {
            ASSERT_EQ(s->pois[i], it->second[i].first);
            ASSERT_EQ(s->timestamps[i], it->second[i].second);
          }
        }
        break;
      }
      case 3: {  // mark resident (builds or refreshes cache state)
        serve::Session& s = store.GetOrCreate(user);
        store.MarkResident(
            s, s.state ? nullptr
                       : std::make_unique<core::IncrementalState>());
        ref_drop(user);
        ref_lru.insert(ref_lru.begin(), user);
        while (static_cast<int64_t>(ref_lru.size()) > kCap) {
          ref_lru.pop_back();
          ++ref_evictions;
        }
        break;
      }
      case 4: {  // explicit evict
        store.Evict(user);
        ref_drop(user);
        break;
      }
    }
    // Invariants after every op.
    ASSERT_EQ(store.resident_count(),
              static_cast<int64_t>(ref_lru.size()));
    ASSERT_LE(store.resident_count(), kCap);
    ASSERT_EQ(store.evictions(), ref_evictions);
    for (int64_t u = 0; u < kUsers; ++u) {
      const serve::Session* s = store.Find(u);
      const bool want_resident =
          std::find(ref_lru.begin(), ref_lru.end(), u) != ref_lru.end();
      const bool got_resident = s != nullptr && s->resident;
      ASSERT_EQ(got_resident, want_resident) << "user=" << u;
      if (got_resident) {
        ASSERT_NE(s->state, nullptr);
      }
      if (s != nullptr && !s->resident) {
        ASSERT_EQ(s->state, nullptr);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batched inference and latent-bug regressions: eval::BatchScorer
// implementations, the per-thread sub-batch split and single-token /
// ragged batches.
// ---------------------------------------------------------------------------

class BatchEdgeTest : public ServeTest {};

TEST_F(BatchEdgeTest, ScoreBatchMatchesScoreAtEveryPoolAndBatchSize) {
  // Eval instances share one padded length; short histories carry head
  // padding (first_real > 0). Candidate lists of 9..12 exercise the
  // candidate padding inside each sub-batch.
  const data::Split split = data::TrainTestSplit(ds_, {.max_seq_len = 8});
  ASSERT_GE(split.test.size(), 32u);
  std::vector<const data::EvalInstance*> ptrs;
  std::vector<std::vector<int64_t>> cands;
  for (size_t i = 0; i < 32; ++i) {
    ptrs.push_back(&split.test[i]);
    cands.push_back(Candidates(split.test[i].target, 9 + i % 4, 700 + i));
  }
  for (const StisanConfig& config : ServingConfigs()) {
    core::StisanModel model(ds_, config.opts);
    std::vector<std::vector<float>> single;
    for (size_t i = 0; i < ptrs.size(); ++i) {
      single.push_back(model.Score(*ptrs[i], cands[i]));
    }
    for (int64_t threads : {1, 4}) {
      kernels::SetNumThreads(threads);
      for (size_t batch : {1u, 3u, 7u, 32u}) {
        const std::vector<const data::EvalInstance*> sub(
            ptrs.begin(), ptrs.begin() + static_cast<std::ptrdiff_t>(batch));
        const std::vector<std::vector<int64_t>> sub_cands(
            cands.begin(), cands.begin() + static_cast<std::ptrdiff_t>(batch));
        const uint64_t tasks_before = kernels::GlobalPool().tasks_submitted();
        const auto batched = model.ScoreBatch(sub, sub_cands);
        // One pool task per sub-batch, min(B, threads) of them; B = 1 and
        // a one-thread pool run inline.
        const uint64_t want_tasks =
            threads == 1 || batch == 1
                ? 0u
                : std::min<uint64_t>(batch, static_cast<uint64_t>(threads));
        EXPECT_EQ(kernels::GlobalPool().tasks_submitted() - tasks_before,
                  want_tasks)
            << config.label << " threads=" << threads << " batch=" << batch;
        ASSERT_EQ(batched.size(), batch);
        for (size_t i = 0; i < batch; ++i) {
          EXPECT_EQ(batched[i], single[i])
              << config.label << " threads=" << threads << " batch=" << batch
              << " instance=" << i;
        }
      }
    }
  }
}

TEST_F(BatchEdgeTest, SingleTokenBatchesMatchPerInstanceScore) {
  core::StisanModel stisan(ds_, TinyStisanOptions());
  models::SasRecModel sasrec(ds_, TinySanOptions());
  const auto users = PickUsers(/*min_len=*/2, /*max_users=*/4);
  ASSERT_GE(users.size(), 2u);

  std::vector<data::EvalInstance> instances;
  std::vector<std::vector<int64_t>> cands;
  for (size_t i = 0; i < users.size(); ++i) {
    const auto& seq = ds_.user_seqs[static_cast<size_t>(users[i])];
    data::EvalInstance inst;
    inst.first_real = 0;
    inst.poi = {seq[0].poi};  // length-1 delta: one real token, no padding
    inst.t = {seq[0].timestamp};
    instances.push_back(inst);
    cands.push_back(Candidates(seq[1].poi, 12, 500 + i));
  }
  std::vector<const data::EvalInstance*> ptrs;
  for (const auto& inst : instances) ptrs.push_back(&inst);

  for (models::SequentialRecommender* model :
       std::initializer_list<models::SequentialRecommender*>{&stisan,
                                                             &sasrec}) {
    const auto batched = model->ScoreBatch(ptrs, cands);
    ASSERT_EQ(batched.size(), ptrs.size());
    for (size_t i = 0; i < ptrs.size(); ++i) {
      EXPECT_EQ(batched[i], model->Score(instances[i], cands[i]))
          << model->name() << " instance=" << i;
    }
  }
}

TEST_F(BatchEdgeTest, MixedLengthBatchDegradesToPerInstance) {
  // Used to CHECK-fail inside StisanModel::EncodeBatch; now it must fall
  // back to per-instance scoring (the NeuralSeqModel behaviour).
  core::StisanModel model(ds_, TinyStisanOptions());
  const auto users = PickUsers(/*min_len=*/8, /*max_users=*/3);
  ASSERT_GE(users.size(), 3u);

  std::vector<data::EvalInstance> instances;
  std::vector<std::vector<int64_t>> cands;
  const size_t lengths[] = {1, 3, 7};
  for (size_t i = 0; i < 3; ++i) {
    const auto& seq = ds_.user_seqs[static_cast<size_t>(users[i])];
    data::EvalInstance inst;
    inst.first_real = 0;
    for (size_t k = 0; k < lengths[i]; ++k) {
      inst.poi.push_back(seq[k].poi);
      inst.t.push_back(seq[k].timestamp);
    }
    instances.push_back(inst);
    cands.push_back(Candidates(seq[lengths[i]].poi, 12, 600 + i));
  }
  std::vector<const data::EvalInstance*> ptrs;
  for (const auto& inst : instances) ptrs.push_back(&inst);

  const auto batched = model.ScoreBatch(ptrs, cands);
  ASSERT_EQ(batched.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batched[i], model.Score(instances[i], cands[i]))
        << "instance=" << i;
  }
}

}  // namespace
}  // namespace stisan
