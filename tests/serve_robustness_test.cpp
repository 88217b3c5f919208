// Overload-safety and fault-tolerance contracts of the serving runtime
// (DESIGN.md §15). The invariant under test everywhere: every request
// resolves — with scores or with a typed util::Status — and no input,
// fault, or load level crashes the service, strands a future, or breaks
// the bit-identity of *accepted* requests.
//
// 1. Exception barrier: injected scorer throws at sequencing and a model
//    that throws inside its job fail only the affected request with
//    kInternal; the worker keeps serving and subsequent requests stay
//    bit-identical to a cold model->Score.
// 2. Shutdown: pending promises resolve kUnavailable (never broken),
//    blocked producers unblock, and post-shutdown ops fail fast.
// 3. Input validation: padding/out-of-range POIs, non-finite timestamps
//    and empty candidate lists resolve kInvalidArgument per request; a
//    service without a catalog size, with one beyond the model, or with a
//    coordinate table that does not match it fails at construction.
// 4. Admission control: kRejectNew / kShedOldest / kBlock under a bounded
//    queue, with shed/rejected requests resolved immediately.
// 5. Deadlines: expired requests resolve kDeadlineExceeded, resident
//    cached state or not; every job re-checks its deadline when its pool
//    task reaches it, before paying for a forward.
// 6. Concurrent stress: multi-producer appends/scores/evicts with random
//    deadlines under queue policy x {worker, Pump} grids, plus a
//    Drain()-vs-Enqueue race.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/stisan.h"
#include "data/synthetic.h"
#include "models/san_models.h"
#include "obs/metrics.h"
#include "serve/fault_injector.h"
#include "serve/service.h"
#include "tensor/kernels.h"
#include "util/rng.h"
#include "util/status.h"

namespace stisan {
namespace {

using serve::QueuePolicy;
using serve::RecommendService;
using serve::ScoreResult;
using serve::ServeFaultInjector;
using serve::ServeFaultPlan;
using serve::ServeOptions;

core::StisanOptions TinyStisanOptions() {
  core::StisanOptions opts;
  opts.poi_dim = 8;
  opts.geo.dim = 8;
  opts.geo.fourier_dim = 4;
  opts.num_blocks = 2;
  opts.train.seed = 7;
  opts.use_tape = false;  // no-TAPE ablation; the rungs are model-agnostic
  opts.knn_negatives = false;
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

class ServeRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = data::GenerateSynthetic(data::GowallaLikeConfig(0.08));
    obs::ResetAllForTesting();
  }

  void TearDown() override { kernels::SetNumThreads(1); }

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
// 1. Exception barrier.
// ---------------------------------------------------------------------------

// Regression for the stranded-futures bug: a throw from the scoring path
// used to kill the worker (the ThreadPool rethrows task exceptions since
// PR 5) and leave every pending future unresolved forever. Now the
// injected throw must fail exactly its own request with kInternal while
// the worker keeps serving, bit-identically, through and after the fault.
TEST_F(ServeRobustnessTest, WorkerSurvivesInjectedScorerThrows) {
  core::StisanModel model(ds_, TinyStisanOptions());
  const auto users = PickUsers(/*min_len=*/8, /*max_users=*/3);
  ASSERT_GE(users.size(), 3u);

  ServeFaultInjector injector;
  ServeFaultPlan plan;
  plan.throw_every_scores = 3;
  injector.SetPlan(plan);

  ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.max_seq_len = 32;
  so.start_worker = true;
  so.fault_injector = &injector;
  RecommendService service(&model, so);

  std::vector<std::future<ScoreResult>> futures;
  std::vector<std::vector<float>> want;
  for (size_t k = 1; k <= 6; ++k) {
    for (int64_t user : users) {
      const auto& seq = ds_.user_seqs[static_cast<size_t>(user)];
      ASSERT_TRUE(service.Append(user, seq[k - 1].poi, seq[k - 1].timestamp)
                      .ok());
      const auto cands = Candidates(seq[k - 1].poi, 15, 77 + user);
      futures.push_back(service.ScoreAsync(user, cands));
      want.push_back(ColdScore(model, seq, k, cands));
    }
  }
  service.Drain();

  size_t failed = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    ScoreResult r = futures[i].get();
    if (r.ok()) {
      EXPECT_EQ(r.scores, want[i]) << "request " << i;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kInternal) << r.status.ToString();
      ++failed;
    }
  }
  EXPECT_EQ(static_cast<int64_t>(failed), injector.score_throws());
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(obs::GetCounter("serve/batch_failures").Get(), failed);

  // The worker survived: with the fault plan cleared, everything serves.
  injector.SetPlan(ServeFaultPlan{});
  for (int64_t user : users) {
    const auto& seq = ds_.user_seqs[static_cast<size_t>(user)];
    const auto cands = Candidates(seq[5].poi, 15, 123 + user);
    ScoreResult r = service.Score(user, cands);
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(r.scores, ColdScore(model, seq, 6, cands));
  }
}

// A model that throws inside one user's job — on a pool worker at four
// threads, on the pumping thread at one — fails exactly that request with
// kInternal. The other users' jobs in the same pass keep their
// (bit-identical) scores, and the service keeps serving afterwards.
TEST_F(ServeRobustnessTest, ThrowInsideJobFailsOnlyItsRequest) {
  struct ThrowingModel : models::SasRecModel {
    ThrowingModel(const data::Dataset& ds, const models::SanOptions& opts)
        : models::SasRecModel(ds, opts) {}
    std::vector<float> Score(const data::EvalInstance& instance,
                             const std::vector<int64_t>& candidates) override {
      if (instance.user == throw_for_user.load()) {
        throw std::runtime_error("model fault");
      }
      return models::SasRecModel::Score(instance, candidates);
    }
    std::atomic<int64_t> throw_for_user{-1};
  };
  ThrowingModel model(ds_, TinySanOptions());
  const auto users = PickUsers(/*min_len=*/6, /*max_users=*/4);
  ASSERT_EQ(users.size(), 4u);
  // ColdScore's instances carry user 0, so the faulty user must not be 0.
  const int64_t faulty = users[1];
  ASSERT_NE(faulty, 0);
  const size_t prefix = 5;

  for (int64_t threads : {1, 4}) {
    kernels::SetNumThreads(threads);
    obs::ResetAllForTesting();
    ServeOptions so;
    so.num_pois = ds_.num_pois();
    so.start_worker = false;
    RecommendService service(&model, so);
    for (int64_t user : users) {
      const auto& seq = ds_.user_seqs[static_cast<size_t>(user)];
      for (size_t k = 0; k < prefix; ++k) {
        ASSERT_TRUE(service.Append(user, seq[k].poi, seq[k].timestamp).ok());
      }
    }
    std::vector<std::future<ScoreResult>> futures;
    std::vector<std::vector<float>> want;
    for (int64_t user : users) {
      const auto& seq = ds_.user_seqs[static_cast<size_t>(user)];
      const auto cands = Candidates(seq[prefix].poi, 12, 55 + user);
      futures.push_back(service.ScoreAsync(user, cands));
      want.push_back(ColdScore(model, seq, prefix, cands));
    }
    model.throw_for_user = faulty;
    service.Pump();  // one pass: four users' jobs

    for (size_t i = 0; i < futures.size(); ++i) {
      ScoreResult r = futures[i].get();
      if (users[i] == faulty) {
        EXPECT_EQ(r.status.code(), StatusCode::kInternal)
            << "threads=" << threads << " " << r.status.ToString();
      } else {
        ASSERT_TRUE(r.ok()) << "threads=" << threads << " request " << i
                            << ": " << r.status.ToString();
        EXPECT_EQ(r.scores, want[i])
            << "threads=" << threads << " request " << i;
      }
    }
    EXPECT_EQ(obs::GetCounter("serve/batch_failures").Get(), 1u);
    EXPECT_EQ(obs::GetCounter("serve/fallback_scored").Get(), 3u);

    // The service still serves the faulty user once the model recovers.
    model.throw_for_user = -1;
    const auto& seq = ds_.user_seqs[static_cast<size_t>(faulty)];
    const auto cands = Candidates(seq[prefix].poi, 12, 999);
    ScoreResult r = service.Score(faulty, cands);
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(r.scores, ColdScore(model, seq, prefix, cands));
  }
}

// Forced mid-batch evictions (injector) only cost cold rebuilds — the
// scores of every accepted request stay bit-identical.
TEST_F(ServeRobustnessTest, ForcedEvictionsPreserveBitIdentity) {
  core::StisanModel model(ds_, TinyStisanOptions());
  const auto users = PickUsers(/*min_len=*/8, /*max_users=*/2);
  ASSERT_EQ(users.size(), 2u);

  ServeFaultInjector injector;
  ServeFaultPlan plan;
  plan.evict_every_scores = 2;
  injector.SetPlan(plan);

  ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.max_seq_len = 32;
  so.start_worker = false;
  so.fault_injector = &injector;
  RecommendService service(&model, so);

  for (size_t k = 1; k <= 7; ++k) {
    for (int64_t user : users) {
      const auto& seq = ds_.user_seqs[static_cast<size_t>(user)];
      ASSERT_TRUE(service.Append(user, seq[k - 1].poi, seq[k - 1].timestamp)
                      .ok());
      const auto cands = Candidates(seq[k - 1].poi, 15, 31 + user);
      ScoreResult r = service.Score(user, cands);
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      EXPECT_EQ(r.scores, ColdScore(model, seq, k, cands))
          << "user=" << user << " prefix=" << k;
    }
  }
  EXPECT_GT(injector.forced_evictions(), 0);
  EXPECT_GT(obs::GetCounter("serve/cold_builds").Get(), 0u);
}

// The engine's entry guards throw (recoverable through the barrier)
// instead of CHECK-aborting the process.
TEST_F(ServeRobustnessTest, EngineEntryGuardsThrowInsteadOfAborting) {
  core::StisanModel model(ds_, TinyStisanOptions());
  core::IncrementalScorer engine(&model, /*max_seq_len=*/4);
  auto state = engine.NewState();

  std::vector<int64_t> pois{1, 2, 3};
  std::vector<double> ts{10.0, 20.0};  // length mismatch
  EXPECT_THROW(engine.Sync(*state, pois, ts), std::invalid_argument);

  std::vector<int64_t> long_pois{1, 2, 3, 4, 5};
  std::vector<double> long_ts{1, 2, 3, 4, 5};
  EXPECT_THROW(engine.Sync(*state, long_pois, long_ts), std::length_error);

  EXPECT_THROW(engine.Score(*state, {}, {}, {1, 2}), std::invalid_argument);

  core::IncrementalState hand_made;  // no embedding cache: not from NewState
  EXPECT_THROW(engine.Sync(hand_made, {1}, {1.0}), std::logic_error);
}

// ---------------------------------------------------------------------------
// 2. Shutdown.
// ---------------------------------------------------------------------------

// Pump-mode ops that never got pumped must resolve kUnavailable at
// shutdown — previously the destructor broke their promises and .get()
// threw std::future_error.
TEST_F(ServeRobustnessTest, ShutdownResolvesUnpumpedPromises) {
  core::StisanModel model(ds_, TinyStisanOptions());
  std::vector<std::future<ScoreResult>> futures;
  {
    ServeOptions so;
    so.num_pois = ds_.num_pois();
    so.start_worker = false;
    RecommendService service(&model, so);
    ASSERT_TRUE(service.Append(1, 5, 100.0).ok());
    for (int i = 0; i < 4; ++i) {
      futures.push_back(service.ScoreAsync(1, {1, 2, 3}));
    }
    // Destructor runs Shutdown() with the queue still full.
  }
  for (auto& fut : futures) {
    ScoreResult r = fut.get();  // must not throw std::future_error
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable)
        << r.status.ToString();
  }
}

// After Shutdown(), every entry point fails fast with kUnavailable
// instead of blocking forever.
TEST_F(ServeRobustnessTest, StoppedServiceFailsFast) {
  core::StisanModel model(ds_, TinyStisanOptions());
  ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.start_worker = true;
  RecommendService service(&model, so);
  ASSERT_TRUE(service.Append(1, 5, 100.0).ok());
  service.Drain();
  service.Shutdown();

  EXPECT_EQ(service.Append(1, 6, 200.0).code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.EvictSession(1).code(), StatusCode::kUnavailable);
  ScoreResult r = service.Score(1, {1, 2, 3});  // must return, not hang
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  service.Shutdown();  // idempotent
}

// A producer blocked by kBlock admission control must unblock with
// kUnavailable when the service shuts down underneath it.
TEST_F(ServeRobustnessTest, ShutdownUnblocksBlockedProducer) {
  core::StisanModel model(ds_, TinyStisanOptions());
  ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.start_worker = false;  // nobody drains: the second op must block
  so.max_queue = 1;
  so.queue_policy = QueuePolicy::kBlock;
  RecommendService service(&model, so);

  auto first = service.ScoreAsync(1, {1, 2, 3});
  std::atomic<bool> blocked_returned{false};
  std::future<ScoreResult> second;
  std::thread producer([&] {
    second = service.ScoreAsync(2, {1, 2, 3});  // blocks on the full queue
    blocked_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Shutdown();
  producer.join();
  EXPECT_TRUE(blocked_returned.load());
  EXPECT_EQ(first.get().status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(second.get().status.code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// 3. Input validation.
// ---------------------------------------------------------------------------

// Bad requests used to CHECK-abort the whole process; now each resolves
// kInvalidArgument and the service keeps serving valid traffic.
TEST_F(ServeRobustnessTest, InvalidRequestsRejectedPerRequest) {
  core::StisanModel model(ds_, TinyStisanOptions());
  ServeOptions so;
  so.start_worker = false;
  so.num_pois = ds_.num_pois();
  RecommendService service(&model, so);

  EXPECT_EQ(service.Append(1, data::kPaddingPoi, 10.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Append(1, -3, 10.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Append(1, ds_.num_pois() + 1, 10.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      service.Append(1, 5, std::numeric_limits<double>::quiet_NaN()).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      service.Append(1, 5, std::numeric_limits<double>::infinity()).code(),
      StatusCode::kInvalidArgument);

  EXPECT_EQ(service.ScoreAsync(1, {}).get().status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.ScoreAsync(1, {data::kPaddingPoi}).get().status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      service.ScoreAsync(1, {1, ds_.num_pois() + 7}).get().status.code(),
      StatusCode::kInvalidArgument);

  EXPECT_EQ(obs::GetCounter("serve/invalid_requests").Get(), 8u);
  EXPECT_EQ(obs::GetCounter("serve/appends").Get(), 0u);

  // Valid traffic is unaffected.
  const auto users = PickUsers(/*min_len=*/3, /*max_users=*/1);
  ASSERT_EQ(users.size(), 1u);
  const auto& seq = ds_.user_seqs[static_cast<size_t>(users[0])];
  ASSERT_TRUE(service.Append(users[0], seq[0].poi, seq[0].timestamp).ok());
  const auto cands = Candidates(seq[0].poi, 10, 42);
  ScoreResult r = service.Score(users[0], cands);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.scores, ColdScore(model, seq, 1, cands));
}

// Without a catalog size an unknown POI id passed validation and aborted
// the process at the next score's embedding lookup. The size is required
// now: a service built without it fails at construction instead.
TEST_F(ServeRobustnessTest, ConstructionRequiresCatalogSize) {
  // Death tests fork; the threadsafe style re-runs the binary for the
  // child, which stays sound with other threads alive and under tsan.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::StisanModel model(ds_, TinyStisanOptions());
  ServeOptions so;
  so.start_worker = false;
  EXPECT_DEATH({ RecommendService service(&model, so); }, "num_pois");
}

// A catalog larger than the model's vocabulary let an unknown id through
// validation, and the next score aborted at the embedding lookup. The
// constructor refuses such a catalog now.
TEST_F(ServeRobustnessTest, ConstructionRejectsCatalogBeyondModel) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::StisanModel model(ds_, TinyStisanOptions());
  ServeOptions so;
  so.start_worker = false;
  so.num_pois = ds_.num_pois() + 1;
  EXPECT_DEATH({ RecommendService service(&model, so); },
               "exceeds the model's catalog");
}

// A coordinate table longer than the catalog let stage one return ids past
// num_pois, and the first catalog request aborted at the model's embedding
// lookup. The constructor refuses a table that does not hold exactly
// num_pois + 1 entries (longer or shorter) now.
TEST_F(ServeRobustnessTest, ConstructionRejectsCoordsNotMatchingCatalog) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::StisanModel model(ds_, TinyStisanOptions());
  ServeOptions so;
  so.start_worker = false;
  so.num_pois = ds_.num_pois();
  std::vector<geo::GeoPoint> coords = ds_.poi_coords;
  coords.resize(coords.size() + 200, coords.back());
  so.poi_coords = &coords;
  EXPECT_DEATH({ RecommendService service(&model, so); }, "poi_coords");
  coords.resize(ds_.poi_coords.size() - 1);
  EXPECT_DEATH({ RecommendService service(&model, so); }, "poi_coords");
}

// A NaN coordinate reached an out-of-range float-to-integer conversion
// while the catalog index was built, then put NaN distances into stage
// one's heap. The index refuses what the CSV loader refuses: a coordinate
// that is not finite, or outside lat [-90, 90] / lon [-180, 180].
TEST_F(ServeRobustnessTest, ConstructionRejectsInvalidCoordinates) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::StisanModel model(ds_, TinyStisanOptions());
  ServeOptions so;
  so.start_worker = false;
  so.num_pois = ds_.num_pois();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const geo::GeoPoint bad : {geo::GeoPoint{nan, 10.0},
                                  geo::GeoPoint{10.0, nan},
                                  geo::GeoPoint{10.0, -inf},
                                  geo::GeoPoint{90.5, 10.0},
                                  geo::GeoPoint{10.0, 180.25}}) {
    std::vector<geo::GeoPoint> coords = ds_.poi_coords;
    coords[3] = bad;
    so.poi_coords = &coords;
    EXPECT_DEATH({ RecommendService service(&model, so); },
                 "point 2 at .* needs a finite lat")
        << geo::ToString(bad);
  }
}

// ---------------------------------------------------------------------------
// 4. Admission control.
// ---------------------------------------------------------------------------

TEST_F(ServeRobustnessTest, RejectNewResolvesImmediately) {
  core::StisanModel model(ds_, TinyStisanOptions());
  ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.start_worker = false;
  so.max_queue = 2;
  so.queue_policy = QueuePolicy::kRejectNew;
  RecommendService service(&model, so);

  auto a = service.ScoreAsync(1, {1, 2, 3});
  auto b = service.ScoreAsync(2, {1, 2, 3});
  auto c = service.ScoreAsync(3, {1, 2, 3});  // over the bound
  EXPECT_EQ(c.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);  // resolved without any pump
  EXPECT_EQ(c.get().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.Append(4, 5, 10.0).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(obs::GetCounter("serve/rejected").Get(), 2u);

  service.Pump();
  EXPECT_TRUE(a.get().ok());  // cold start: zeros
  EXPECT_TRUE(b.get().ok());
  EXPECT_EQ(obs::GetCounter("serve/rejected").Get(), 2u);
}

TEST_F(ServeRobustnessTest, ShedOldestDropsOldestScoreKeepsAppends) {
  core::StisanModel model(ds_, TinyStisanOptions());
  const auto users = PickUsers(/*min_len=*/4, /*max_users=*/3);
  ASSERT_EQ(users.size(), 3u);
  ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.start_worker = false;
  so.max_queue = 3;
  so.queue_policy = QueuePolicy::kShedOldest;
  RecommendService service(&model, so);

  const auto& seq0 = ds_.user_seqs[static_cast<size_t>(users[0])];
  ASSERT_TRUE(
      service.Append(users[0], seq0[0].poi, seq0[0].timestamp).ok());
  const auto cands = Candidates(seq0[0].poi, 10, 7);
  auto a = service.ScoreAsync(users[0], cands);  // oldest score
  auto b = service.ScoreAsync(users[1], cands);
  auto c = service.ScoreAsync(users[2], cands);  // sheds a, admits c

  EXPECT_EQ(a.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(a.get().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(obs::GetCounter("serve/shed").Get(), 1u);

  service.Pump();
  ScoreResult rb = b.get();
  ASSERT_TRUE(rb.ok());
  ScoreResult rc = c.get();
  ASSERT_TRUE(rc.ok());
  // The append survived shedding: user 0's history is length 1.
  ScoreResult r0 = service.Score(users[0], cands);
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0.scores, ColdScore(model, seq0, 1, cands));

  // With nothing sheddable queued (appends only), the new op is rejected.
  ASSERT_TRUE(service.Append(users[0], seq0[1].poi, seq0[1].timestamp).ok());
  ASSERT_TRUE(service.Append(users[1], seq0[1].poi, seq0[1].timestamp).ok());
  ASSERT_TRUE(service.Append(users[2], seq0[1].poi, seq0[1].timestamp).ok());
  EXPECT_EQ(service.Append(users[0], seq0[2].poi, seq0[2].timestamp).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(obs::GetCounter("serve/rejected").Get(), 1u);
}

// kBlock backpressure: producers slow down instead of losing work; every
// request completes.
TEST_F(ServeRobustnessTest, BlockPolicyBackpressuresWithoutLoss) {
  core::StisanModel model(ds_, TinyStisanOptions());
  ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.start_worker = true;
  so.max_queue = 2;
  so.queue_policy = QueuePolicy::kBlock;
  RecommendService service(&model, so);

  std::vector<std::future<ScoreResult>> futures;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(service.Append(i % 3, 1 + i % 5, 100.0 * (i + 1)).ok());
    futures.push_back(service.ScoreAsync(i % 3, {1, 2, 3}));
  }
  service.Drain();
  for (auto& fut : futures) {
    EXPECT_TRUE(fut.get().ok());
  }
  EXPECT_EQ(obs::GetCounter("serve/shed").Get(), 0u);
  EXPECT_EQ(obs::GetCounter("serve/rejected").Get(), 0u);
}

// ---------------------------------------------------------------------------
// 5. Deadlines.
// ---------------------------------------------------------------------------

// An expired request resolves kDeadlineExceeded whether or not its user
// has a resident cached state; the next live request then scores the
// user's full history, bit-identical to a cold score.
TEST_F(ServeRobustnessTest, ExpiredDeadlineResolvesDeadlineExceeded) {
  core::StisanModel model(ds_, TinyStisanOptions());
  const auto users = PickUsers(/*min_len=*/8, /*max_users=*/1);
  ASSERT_EQ(users.size(), 1u);
  const int64_t user = users[0];
  const auto& seq = ds_.user_seqs[static_cast<size_t>(user)];

  ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.start_worker = false;
  so.max_seq_len = 32;
  RecommendService service(&model, so);

  // A user with one check-in and no resident state.
  ASSERT_TRUE(service.Append(user + 100, 5, 100.0).ok());
  auto fut = service.ScoreAsync(user + 100, {1, 2, 3}, /*deadline_us=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  service.Pump();
  ScoreResult r = fut.get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
      << r.status.ToString();
  EXPECT_TRUE(r.scores.empty());
  EXPECT_EQ(obs::GetCounter("serve/deadline_exceeded").Get(), 1u);

  // A resident user: a cached state over 5 visits, then a 6th appended.
  for (size_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(service.Append(user, seq[k].poi, seq[k].timestamp).ok());
  }
  const auto cands = Candidates(seq[4].poi, 15, 13);
  ASSERT_TRUE(service.Score(user, cands).ok());
  ASSERT_TRUE(service.Append(user, seq[5].poi, seq[5].timestamp).ok());
  auto resident = service.ScoreAsync(user, cands, /*deadline_us=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  service.Pump();
  r = resident.get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
      << r.status.ToString();
  EXPECT_TRUE(r.scores.empty());
  EXPECT_EQ(obs::GetCounter("serve/deadline_exceeded").Get(), 2u);

  // A comfortable deadline serves the full 6-visit history.
  auto ok = service.ScoreAsync(user, cands, /*deadline_us=*/60'000'000);
  service.Pump();
  ScoreResult fresh = ok.get();
  ASSERT_TRUE(fresh.ok()) << fresh.status.ToString();
  EXPECT_EQ(fresh.scores, ColdScore(model, seq, 6, cands));
  EXPECT_EQ(obs::GetCounter("serve/deadline_exceeded").Get(), 2u);
}

TEST_F(ServeRobustnessTest, DefaultDeadlineAppliesToEveryRequest) {
  core::StisanModel model(ds_, TinyStisanOptions());
  ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.start_worker = false;
  so.default_deadline_us = 1;
  RecommendService service(&model, so);
  ASSERT_TRUE(service.Append(1, 5, 100.0).ok());
  auto fut = service.ScoreAsync(1, {1, 2, 3});
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  service.Pump();
  EXPECT_EQ(fut.get().status.code(), StatusCode::kDeadlineExceeded);
}

// Slow non-incremental model: a request whose deadline expires while
// earlier jobs of the same pass were scoring leaves at its job's re-check
// — it never pays for the forward. One thread runs the jobs in order.
TEST_F(ServeRobustnessTest, FallbackRechecksDeadlineBeforeForward) {
  struct SlowModel : models::SasRecModel {
    SlowModel(const data::Dataset& ds, const models::SanOptions& opts)
        : models::SasRecModel(ds, opts) {}
    std::vector<float> Score(const data::EvalInstance& instance,
                             const std::vector<int64_t>& candidates) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return models::SasRecModel::Score(instance, candidates);
    }
  };
  SlowModel model(ds_, TinySanOptions());
  const auto users = PickUsers(/*min_len=*/6, /*max_users=*/3);
  ASSERT_EQ(users.size(), 3u);
  kernels::SetNumThreads(1);

  ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.start_worker = false;
  RecommendService service(&model, so);
  for (int64_t user : users) {
    const auto& seq = ds_.user_seqs[static_cast<size_t>(user)];
    for (size_t k = 0; k < 5; ++k) {
      ASSERT_TRUE(service.Append(user, seq[k].poi, seq[k].timestamp).ok());
    }
  }
  const auto cands = Candidates(
      ds_.user_seqs[static_cast<size_t>(users[0])][5].poi, 10, 3);
  auto a = service.ScoreAsync(users[0], cands);
  auto b = service.ScoreAsync(users[1], cands);
  auto c = service.ScoreAsync(users[2], cands, /*deadline_us=*/5000);
  service.Pump();

  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(b.get().ok());
  // c was live at dequeue but expired during the two 20 ms forwards ahead
  // of it; its job's re-check resolves it without scoring.
  EXPECT_EQ(c.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(obs::GetCounter("serve/deadline_exceeded").Get(), 1u);
  EXPECT_EQ(obs::GetCounter("serve/fallback_scored").Get(), 2u);
}

// Incremental scores run as pool tasks after the batch is sequenced. A
// request that was live when sequenced but whose deadline passes while its
// task waits behind other tasks on the pool resolves kDeadlineExceeded
// without scoring; a request without a deadline in the same batch is
// served bit-identically once the pool frees up.
TEST_F(ServeRobustnessTest, DeadlinePassedBehindOtherTasksResolvesExpired) {
  core::StisanModel model(ds_, TinyStisanOptions());
  const auto users = PickUsers(/*min_len=*/6, /*max_users=*/2);
  ASSERT_EQ(users.size(), 2u);
  kernels::SetNumThreads(2);

  ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.start_worker = false;
  so.max_seq_len = 32;
  RecommendService service(&model, so);
  for (int64_t user : users) {
    const auto& seq = ds_.user_seqs[static_cast<size_t>(user)];
    for (size_t k = 0; k < 5; ++k) {
      ASSERT_TRUE(service.Append(user, seq[k].poi, seq[k].timestamp).ok());
    }
  }
  const auto& seq0 = ds_.user_seqs[static_cast<size_t>(users[0])];
  const auto cands = Candidates(seq0[5].poi, 12, 17);
  auto patient = service.ScoreAsync(users[0], cands);
  auto hurried = service.ScoreAsync(users[1], cands, /*deadline_us=*/50'000);

  // Occupy both pool workers, so the batch's two user tasks queue behind.
  std::promise<void> gate;
  std::shared_future<void> gate_open = gate.get_future().share();
  std::atomic<int> blocking{0};
  std::thread blocker([&] {
    ParallelFor(kernels::GlobalPool(), 2, [&](int64_t) {
      blocking++;
      gate_open.wait();
    });
  });
  while (blocking.load() < 2) std::this_thread::yield();
  std::thread pumper([&] { service.Pump(); });
  // Both requests are sequenced (live) before the deadline passes.
  while (obs::GetCounter("serve/requests").Get() < 2) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  gate.set_value();
  blocker.join();
  pumper.join();

  ScoreResult r = hurried.get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
      << r.status.ToString();
  EXPECT_TRUE(r.scores.empty());
  r = patient.get();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.scores, ColdScore(model, seq0, 5, cands));
  EXPECT_EQ(obs::GetCounter("serve/deadline_exceeded").Get(), 1u);
  EXPECT_EQ(obs::GetCounter("serve/incremental_scored").Get(), 1u);
}

// ---------------------------------------------------------------------------
// 6. Concurrency.
// ---------------------------------------------------------------------------

// Multi-producer stress over the full policy x drive-mode grid with random
// deadlines and forced sheds: the service must neither crash nor hang, and
// every future must resolve with scores or a typed error.
TEST_F(ServeRobustnessTest, ConcurrentStressEveryFutureResolves) {
  core::StisanModel model(ds_, TinyStisanOptions());
  constexpr int kProducers = 3;
  constexpr int kOpsPerProducer = 40;

  for (QueuePolicy policy : {QueuePolicy::kBlock, QueuePolicy::kRejectNew,
                             QueuePolicy::kShedOldest}) {
    for (bool worker : {true, false}) {
      ServeOptions so;
      so.start_worker = worker;
      so.max_seq_len = 16;
      so.max_queue = 8;
      so.queue_policy = policy;
      so.num_pois = ds_.num_pois();
      so.batch_window_us = worker ? 100 : 0;
      RecommendService service(&model, so);

      std::mutex futures_mu;
      std::vector<std::future<ScoreResult>> futures;
      std::atomic<bool> done{false};

      auto producer = [&](int id) {
        Rng rng(1000 + static_cast<uint64_t>(id));
        for (int i = 0; i < kOpsPerProducer; ++i) {
          const int64_t user = static_cast<int64_t>(rng.UniformInt(6u));
          switch (rng.UniformInt(4u)) {
            case 0:
            case 1: {
              const int64_t poi =
                  1 + static_cast<int64_t>(rng.UniformInt(
                          static_cast<uint64_t>(ds_.num_pois())));
              (void)service.Append(user, poi, 1000.0 * (i + 1));
              break;
            }
            case 2: {
              // Deadlines: none, tight (often expires), comfortable.
              const uint64_t pick = rng.UniformInt(3u);
              const int64_t deadline_us =
                  pick == 0 ? 0 : (pick == 1 ? 50 : 5'000'000);
              auto fut =
                  service.ScoreAsync(user, {1, 2, 3, 4, 5}, deadline_us);
              std::lock_guard<std::mutex> lock(futures_mu);
              futures.push_back(std::move(fut));
              break;
            }
            case 3:
              (void)service.EvictSession(user);
              break;
          }
        }
      };

      std::vector<std::thread> threads;
      std::thread pumper;
      if (!worker) {
        pumper = std::thread([&] {
          while (!done.load()) {
            service.Pump();
            std::this_thread::yield();
          }
          service.Pump();
        });
      }
      for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back(producer, p);
      }
      for (auto& t : threads) t.join();
      done.store(true);
      if (pumper.joinable()) pumper.join();
      service.Drain();

      size_t ok = 0, typed_errors = 0;
      for (auto& fut : futures) {
        ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "stranded future (policy="
            << static_cast<int>(policy) << " worker=" << worker << ")";
        ScoreResult r = fut.get();
        if (r.ok()) {
          EXPECT_EQ(r.scores.size(), 5u);
          ++ok;
        } else {
          EXPECT_TRUE(r.status.code() == StatusCode::kResourceExhausted ||
                      r.status.code() == StatusCode::kDeadlineExceeded ||
                      r.status.code() == StatusCode::kUnavailable)
              << r.status.ToString();
          ++typed_errors;
        }
      }
      // Under heavy shedding every in-storm score may legitimately carry
      // a typed error; what must hold is that the service still serves
      // once the storm passes.
      (void)ok;
      (void)typed_errors;
      ScoreResult after = service.Score(0, {1, 2, 3});
      ASSERT_TRUE(after.ok())
          << "policy=" << static_cast<int>(policy) << " worker=" << worker
          << ": " << after.status.ToString();
      EXPECT_EQ(after.scores.size(), 3u);
      service.Shutdown();
    }
  }
}

// Drain() racing concurrent Enqueues must neither deadlock nor return
// while ops it was asked to wait for are unprocessed.
TEST_F(ServeRobustnessTest, DrainVsConcurrentEnqueueRace) {
  core::StisanModel model(ds_, TinyStisanOptions());
  ServeOptions so;
  so.num_pois = ds_.num_pois();
  so.start_worker = true;
  so.max_seq_len = 16;
  RecommendService service(&model, so);

  // The producer enqueues a fixed number of ops (not a stop-flag loop:
  // under TSan's slowdown an unbounded producer can keep Drain's
  // processed == enqueued predicate from ever holding).
  constexpr int kOps = 150;
  std::atomic<bool> producing{true};
  std::mutex futures_mu;
  std::vector<std::future<ScoreResult>> futures;
  std::thread producer([&] {
    Rng rng(99);
    for (int i = 0; i < kOps; ++i) {
      const int64_t user = static_cast<int64_t>(rng.UniformInt(4u));
      (void)service.Append(
          user, 1 + static_cast<int64_t>(rng.UniformInt(20u)), 50.0);
      auto fut = service.ScoreAsync(user, {1, 2, 3});
      std::lock_guard<std::mutex> lock(futures_mu);
      futures.push_back(std::move(fut));
    }
    producing.store(false);
  });
  while (producing.load()) {
    service.Drain();  // races the producer's Enqueues
  }
  producer.join();
  service.Drain();
  std::lock_guard<std::mutex> lock(futures_mu);
  for (auto& fut : futures) {
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(fut.get().ok());
  }
}

}  // namespace
}  // namespace stisan
