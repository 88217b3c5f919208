// Long-lived recommendation service over a preloaded frozen model.
//
// Library only — no network. Callers enqueue per-user operations:
//
//   Append(user, poi, t)        — record a check-in
//   ScoreAsync(user, C)         — score candidate POIs against the history
//   RankCatalogAsync(user, k)   — opt-in two-stage "rank the whole city":
//     geo-pruned candidate pool around the user's latest check-in, re-ranked
//     by the model, top-k returned (DESIGN.md §17)
//
// One worker drains the queue (optionally waiting a coalescing window so
// concurrent requests from different users share one pass) and processes
// each dequeued batch in two passes (DESIGN.md §14):
//
//   - Sequencing, on the worker: every op in arrival order — admission
//     and deadline checks, fault hooks, appends, LRU marking and eviction,
//     cold starts, typed failures, the serve/* path counters. Every other
//     score is only recorded as a job: the request, a copy of the user's
//     full history as of arrival, and the cache state it was assigned
//     (none for a score past the serving window or from a non-STiSAN
//     model).
//   - Execution: each user's jobs run in arrival order as one task on
//     kernels::GlobalPool(), different users concurrently. A job re-checks
//     its deadline, runs catalog stage one, then scores through
//     core::IncrementalScorer (cached embedding and relation rows, encoder
//     rerun per score) or a cold model->Score over the trailing
//     max_seq_len window, and counts its own outcome. A task runs all its
//     kernels on its own thread; a batch with one such user runs on the
//     worker itself.
//
// So the session store, the LRU and the counters see exactly the
// sequential op order, and each request's scores come from one thread.
// Within a user the jobs resolve in arrival order, but a batch's jobs
// resolve after every answer its sequencing gave (expired at dequeue, cold
// start, failed precondition, injected fault).
//
// Overload safety (DESIGN.md §15): every request resolves — with scores or
// with a typed util::Status — and no input, fault, or load level crashes
// the service or leaks a broken promise.
//
//   - Admission control: `max_queue` bounds the op queue; over the bound
//     the `queue_policy` either blocks the producer (kBlock), rejects the
//     new op (kRejectNew, kResourceExhausted), or sheds the oldest queued
//     score to admit the new op (kShedOldest).
//   - Deadlines: per-request (or `default_deadline_us`) deadlines are
//     checked at dequeue and again when the request's job starts;
//     expired requests resolve kDeadlineExceeded. Deadline pressure also
//     cuts the coalescing window short.
//   - Fault tolerance: an exception barrier around each op's sequencing
//     and around each job resolves only the affected request with
//     kInternal and keeps the worker alive; Shutdown() (and the
//     destructor) resolve every still-pending promise with kUnavailable,
//     and ops submitted after shutdown fail fast instead of blocking.
//   - Input validation: padding/out-of-range POI ids, non-finite
//     timestamps and empty candidate lists are rejected per-request with
//     kInvalidArgument instead of CHECK-aborting the process.
//
// Determinism contract (pinned by tests/serve_test.cpp): per-user scores
// of *accepted* requests are bit-identical to a cold model->Score on the
// same history, whatever the arrival interleaving, coalescing window,
// batch cap, thread count, eviction pattern, or surrounding faults; and
// without deadlines, which requests fail and every serve/* counter equal a
// sequential replay of the same ops at any thread count.
//
// Observability (src/obs): counters serve/appends, serve/requests,
// serve/incremental_scored, serve/fallback_scored (cold forwards over the
// trailing window), serve/cold_starts,
// serve/cold_builds, serve/evictions, serve/overflows, serve/shed,
// serve/rejected, serve/deadline_exceeded,
// serve/batch_failures, serve/invalid_requests,
// serve/catalog_requests; histograms time/serve/request (enqueue ->
// fulfil), serve/queue_wait (enqueue -> dequeue), serve/queue_depth,
// serve/catalog_pool_size; gauge
// serve/resident_sessions.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/types.h"
#include "geo/candidate_gen.h"
#include "models/recommender.h"
#include "serve/fault_injector.h"
#include "serve/session_store.h"
#include "util/status.h"

namespace stisan::serve {

/// What to do with a new op when the queue is at max_queue.
enum class QueuePolicy {
  /// Block the producer until the worker makes room (backpressure).
  /// Requires someone else to drain the queue: only meaningful with the
  /// worker thread, or with Pump() driven from a different thread.
  kBlock,
  /// Fail the new op immediately with kResourceExhausted.
  kRejectNew,
  /// Resolve the oldest queued *score* with kResourceExhausted and admit
  /// the new op. Appends/evicts are never shed (history must stay
  /// consistent); when no score is queued, falls back to kRejectNew.
  kShedOldest,
};

struct ServeOptions {
  /// Cap on resident per-user cache states (LRU-evicted; histories are
  /// always kept).
  int64_t max_sessions = 4096;
  /// Serving window: histories longer than this are scored by a cold
  /// model->Score over their trailing window.
  int64_t max_seq_len = 100;
  /// Coalescing window in microseconds: after picking up work the worker
  /// keeps draining arrivals this long (or until max_batch ops are
  /// queued) before processing. 0 = process immediately. Cut short when a
  /// queued request's deadline would expire inside the window.
  int64_t batch_window_us = 0;
  /// Queued ops that cut the coalescing window short.
  int64_t max_batch = 32;
  /// false = no worker thread; the caller drives processing with Pump()
  /// (deterministic in-thread mode for tests and benchmarks).
  bool start_worker = true;
  /// Admission control: max ops queued at once (0 = unbounded) and the
  /// policy applied when the bound is hit.
  int64_t max_queue = 0;
  QueuePolicy queue_policy = QueuePolicy::kBlock;
  /// Default per-request deadline in microseconds from enqueue
  /// (0 = none); ScoreAsync overloads may override per request.
  int64_t default_deadline_us = 0;
  /// POI catalog size (ids are 1..num_pois): Append and ScoreAsync reject
  /// any other id with kInvalidArgument. Required: the constructor checks
  /// 1 <= num_pois <= the model's num_pois().
  int64_t num_pois = 0;
  /// Test-only fault hooks (see fault_injector.h); must outlive the
  /// service. nullptr in production.
  ServeFaultInjector* fault_injector = nullptr;
  /// Opt-in "rank the whole city" requests (RankCatalogAsync; DESIGN.md
  /// §17): POI coordinates indexed by id, entry 0 = the padding POI —
  /// i.e. Dataset::poi_coords. Must outlive the service. nullptr (the
  /// default) leaves catalog ranking disabled: RankCatalogAsync resolves
  /// kFailedPrecondition.
  const std::vector<geo::GeoPoint>* poi_coords = nullptr;
  /// Stage-one pool size for catalog requests: how many not-yet-visited
  /// POIs around the user's latest check-in get re-ranked by the model.
  int64_t catalog_pool_size = 500;
  /// Grid resolution (km) for the catalog's sparse spatial index.
  double catalog_cell_km = 2.0;
};

struct ScoreResult {
  /// OK iff `scores` is valid. Error codes: kInvalidArgument (bad
  /// request), kResourceExhausted (shed / rejected under load),
  /// kDeadlineExceeded, kUnavailable (service stopped), kInternal
  /// (scorer fault — the request failed but the service kept running).
  Status status;
  std::vector<float> scores;
  /// Catalog requests only: the re-ranked POI ids aligned with `scores`
  /// (descending score, ties by ascending id, truncated to top_k). Empty
  /// for plain ScoreAsync requests, whose scores align with the caller's
  /// candidate list instead.
  std::vector<int64_t> pois;
  /// Enqueue -> fulfil latency as observed by the service, seconds.
  double latency_s = 0.0;

  bool ok() const { return status.ok(); }
};

class RecommendService {
 public:
  /// The model must outlive the service and stay frozen while serving.
  /// STiSAN models get the incremental engine; any other
  /// SequentialRecommender is served by its own cold Score, which must be
  /// safe to call concurrently in eval mode.
  RecommendService(models::SequentialRecommender* model,
                   const ServeOptions& options);
  ~RecommendService();

  RecommendService(const RecommendService&) = delete;
  RecommendService& operator=(const RecommendService&) = delete;

  /// Records a check-in. Returns OK after enqueuing (the append is
  /// applied in arrival order before any later op), kInvalidArgument for
  /// padding/out-of-range POIs or non-finite timestamps,
  /// kResourceExhausted when admission control rejects it, kUnavailable
  /// after shutdown.
  Status Append(int64_t user, int64_t poi, double timestamp);

  /// Scores `candidates` against the user's current history. Users with
  /// no history resolve to all-zero scores (cold start). The future is
  /// always valid and always resolves — with scores, or with a typed
  /// error status (never a broken promise). `deadline_us` microseconds
  /// from now (<= 0 = use options().default_deadline_us).
  std::future<ScoreResult> ScoreAsync(int64_t user,
                                      std::vector<int64_t> candidates,
                                      int64_t deadline_us);
  std::future<ScoreResult> ScoreAsync(int64_t user,
                                      std::vector<int64_t> candidates) {
    return ScoreAsync(user, std::move(candidates), 0);
  }

  /// Synchronous convenience: enqueue, (pump when no worker), wait. On a
  /// stopped service returns kUnavailable instead of blocking.
  ScoreResult Score(int64_t user, std::vector<int64_t> candidates);

  /// Two-stage full-catalog request (DESIGN.md §17): stage one retrieves
  /// the catalog_pool_size not-yet-visited POIs nearest the user's most
  /// recent check-in from the service's sparse spatial index; stage two
  /// re-ranks the pool like any other score (incremental, or a cold
  /// forward over the trailing window). Both stages run in the user's
  /// pool task. The result carries the top_k best POIs in `pois` with
  /// aligned `scores`. Resolves kFailedPrecondition when catalog ranking
  /// is disabled (options.poi_coords == nullptr) or the user has no
  /// history (no query location); kInvalidArgument for top_k < 1. An
  /// empty neighbourhood resolves OK with empty lists. Same admission,
  /// deadline and fault semantics as ScoreAsync.
  std::future<ScoreResult> RankCatalogAsync(int64_t user, int64_t top_k,
                                            int64_t deadline_us);
  std::future<ScoreResult> RankCatalogAsync(int64_t user, int64_t top_k) {
    return RankCatalogAsync(user, top_k, 0);
  }

  /// Synchronous convenience for RankCatalogAsync.
  ScoreResult RankCatalog(int64_t user, int64_t top_k);

  /// Drops the user's cached state (history kept) — applied in queue
  /// order. Tests use this to force mid-sequence evictions. Same
  /// admission/shutdown errors as Append.
  Status EvictSession(int64_t user);

  /// Processes everything currently queued on the calling thread; only
  /// valid with start_worker = false. Returns the number of ops
  /// processed. Safe to drive from one thread while others enqueue.
  size_t Pump();

  /// Blocks until every op enqueued so far has been processed.
  void Drain();

  /// Stops accepting work, joins the worker, and resolves every
  /// still-pending promise with kUnavailable. Idempotent; also run by
  /// the destructor. Ops already dequeued by the worker finish normally.
  void Shutdown();

  const ServeOptions& options() const { return options_; }
  /// True when the model supports the incremental path.
  bool incremental() const { return engine_ != nullptr; }

 private:
  enum class OpKind { kAppend, kScore, kEvict };
  struct Op {
    OpKind kind = OpKind::kAppend;
    int64_t user = 0;
    int64_t poi = 0;
    double timestamp = 0.0;
    std::vector<int64_t> candidates;
    /// Catalog requests: stage one fills `candidates` in the request's job
    /// and Fulfil re-ranks/truncates to the top_k best.
    bool catalog = false;
    int64_t top_k = 0;
    std::promise<ScoreResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    // Absolute deadline; meaningful only when has_deadline.
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    // Barrier bookkeeping: `resolved` is set once the promise has been
    // fulfilled; `handed_off` is set just before the op moves into the
    // execution pass (which resolves it), so the worker's catch block
    // knows the stack copy no longer owns the promise.
    bool resolved = false;
    bool handed_off = false;
    // Jobs carry their user's full history as of arrival.
    data::EvalInstance instance;
  };

  // A score recorded by the sequencing pass, with the cache state it was
  // assigned (null: a cold forward over the trailing window). Holding the
  // state keeps it alive when a later op of the batch evicts the session
  // before the job runs.
  struct ScoreJob {
    Op op;
    std::shared_ptr<core::IncrementalState> state;
  };
  // The execution pass's work: each user's jobs in arrival order.
  struct ScoreSchedule {
    std::vector<std::vector<ScoreJob>> per_user;
    std::unordered_map<int64_t, size_t> slot_of_user;
  };

  /// Admission + enqueue. On error the op is NOT consumed (score ops are
  /// failed by the caller through their own promise).
  Status Enqueue(Op& op);
  Status ValidateAppend(int64_t poi, double timestamp) const;
  Status ValidateScore(const std::vector<int64_t>& candidates) const;
  void WorkerLoop();
  /// Never throws; every score op it receives gets resolved.
  void Process(std::vector<Op> ops);
  void ServeScore(Op& op, ScoreSchedule* schedule);
  /// The execution pass: one pool task per user. Never throws.
  void RunSchedule(ScoreSchedule* schedule);
  /// Re-checks the deadline, runs catalog stage one, then scores and
  /// resolves one job. Never throws.
  void RunJob(ScoreJob& job, geo::SpatialGridIndex::QueryScratch* scratch);
  /// Resolves an op whose deadline expired before serving.
  void Expire(Op& op);
  void Fulfil(Op& op, std::vector<float> scores);
  void Fail(Op& op, Status status);

  /// Stage one for a catalog job: fills op.candidates with the unvisited
  /// pool around the latest check-in of op.instance.
  void GenerateCatalogPool(Op& op,
                           geo::SpatialGridIndex::QueryScratch* scratch) const;

  models::SequentialRecommender* model_;
  ServeOptions options_;
  std::unique_ptr<core::IncrementalScorer> engine_;
  SessionStore store_;
  /// Catalog ranking stage one (built iff options.poi_coords is set);
  /// index id = poi - 1. Read-only once built: each user task queries it
  /// with its own scratch.
  std::unique_ptr<geo::SpatialGridIndex> catalog_index_;
  std::unique_ptr<geo::CandidateGenerator> catalog_gen_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable drained_cv_;
  std::condition_variable space_cv_;
  std::deque<Op> queue_;
  uint64_t enqueued_ops_ = 0;
  uint64_t processed_ops_ = 0;
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace stisan::serve
