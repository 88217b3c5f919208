#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/stisan.h"
#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "util/check.h"

namespace stisan::serve {

namespace {

struct ServeMetrics {
  obs::Counter& appends = obs::GetCounter("serve/appends");
  obs::Counter& requests = obs::GetCounter("serve/requests");
  obs::Counter& incremental = obs::GetCounter("serve/incremental_scored");
  obs::Counter& fallback = obs::GetCounter("serve/fallback_scored");
  obs::Counter& cold_starts = obs::GetCounter("serve/cold_starts");
  obs::Counter& cold_builds = obs::GetCounter("serve/cold_builds");
  obs::Counter& evictions = obs::GetCounter("serve/evictions");
  obs::Counter& overflows = obs::GetCounter("serve/overflows");
  obs::Counter& shed = obs::GetCounter("serve/shed");
  obs::Counter& rejected = obs::GetCounter("serve/rejected");
  obs::Counter& deadline_exceeded =
      obs::GetCounter("serve/deadline_exceeded");
  obs::Counter& batch_failures = obs::GetCounter("serve/batch_failures");
  obs::Counter& invalid_requests =
      obs::GetCounter("serve/invalid_requests");
  obs::Counter& catalog_requests = obs::GetCounter("serve/catalog_requests");
  obs::Gauge& resident = obs::GetGauge("serve/resident_sessions");
  obs::Histogram& latency = obs::GetHistogram("time/serve/request");
  obs::Histogram& queue_wait = obs::GetHistogram("serve/queue_wait");
  obs::Histogram& queue_depth =
      obs::GetHistogram("serve/queue_depth", obs::CountBounds());
  obs::Histogram& catalog_pool_size =
      obs::GetHistogram("serve/catalog_pool_size", obs::CountBounds());
};

ServeMetrics& Metrics() {
  static ServeMetrics* m = new ServeMetrics();
  return *m;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

RecommendService::RecommendService(models::SequentialRecommender* model,
                                   const ServeOptions& options)
    : model_(model), options_(options), store_(options.max_sessions) {
  STISAN_CHECK(model != nullptr);
  STISAN_CHECK_GE(options_.max_seq_len, 1);
  STISAN_CHECK_GE(options_.max_batch, 1);
  STISAN_CHECK_GE(options_.max_queue, 0);
  STISAN_CHECK_GE(options_.num_pois, 1);
  // An id the model cannot embed must fail validation, not the next score.
  STISAN_CHECK_MSG(options_.num_pois <= model->num_pois(),
                   "ServeOptions::num_pois " << options_.num_pois
                       << " exceeds the model's catalog of "
                       << model->num_pois() << " POIs");
  if (auto* stisan = dynamic_cast<core::StisanModel*>(model)) {
    engine_ = std::make_unique<core::IncrementalScorer>(stisan,
                                                        options_.max_seq_len);
  }
  if (options_.poi_coords != nullptr) {
    STISAN_CHECK_GE(options_.catalog_pool_size, 1);
    // Stage one must return only ids the model can embed.
    STISAN_CHECK_MSG(
        static_cast<int64_t>(options_.poi_coords->size()) ==
            options_.num_pois + 1,
        "ServeOptions::poi_coords has " << options_.poi_coords->size()
            << " entries; num_pois " << options_.num_pois << " needs "
            << options_.num_pois + 1);
    // Index id = poi - 1 (entry 0 is the padding POI).
    catalog_index_ = std::make_unique<geo::SpatialGridIndex>(
        std::vector<geo::GeoPoint>(options_.poi_coords->begin() + 1,
                                   options_.poi_coords->end()),
        options_.catalog_cell_km);
    geo::CandidatePoolOptions pool_options;
    pool_options.pool_size = options_.catalog_pool_size;
    catalog_gen_ = std::make_unique<geo::CandidateGenerator>(*catalog_index_,
                                                             pool_options);
  }
  if (options_.start_worker) {
    worker_ = std::thread([this] { WorkerLoop(); });
  }
}

RecommendService::~RecommendService() { Shutdown(); }

void RecommendService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  // Whatever is still queued (pump-mode leftovers, ops the worker never
  // dequeued) resolves now: a typed error, never a broken promise.
  std::deque<Op> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(queue_);
    processed_ops_ += leftover.size();
  }
  for (Op& op : leftover) {
    if (op.kind == OpKind::kScore && !op.resolved) {
      Fail(op, Status::Unavailable("service shut down with request pending"));
    }
  }
  drained_cv_.notify_all();
}

Status RecommendService::ValidateAppend(int64_t poi,
                                        double timestamp) const {
  if (poi == data::kPaddingPoi || poi < 0 || poi > options_.num_pois) {
    return Status::InvalidArgument("POI id out of range: " +
                                   std::to_string(poi));
  }
  if (!std::isfinite(timestamp)) {
    return Status::InvalidArgument("non-finite timestamp");
  }
  return Status::OK();
}

Status RecommendService::ValidateScore(
    const std::vector<int64_t>& candidates) const {
  if (candidates.empty()) {
    return Status::InvalidArgument("empty candidate list");
  }
  for (int64_t poi : candidates) {
    if (poi == data::kPaddingPoi || poi < 0 || poi > options_.num_pois) {
      return Status::InvalidArgument("candidate POI id out of range: " +
                                     std::to_string(poi));
    }
  }
  return Status::OK();
}

Status RecommendService::Enqueue(Op& op) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return Status::Unavailable("service stopped");
    if (options_.max_queue > 0 &&
        static_cast<int64_t>(queue_.size()) >= options_.max_queue) {
      switch (options_.queue_policy) {
        case QueuePolicy::kBlock:
          space_cv_.wait(lock, [this] {
            return stop_ || static_cast<int64_t>(queue_.size()) <
                                options_.max_queue;
          });
          if (stop_) return Status::Unavailable("service stopped");
          break;
        case QueuePolicy::kRejectNew:
          Metrics().rejected.Inc();
          return Status::ResourceExhausted("op queue full (kRejectNew)");
        case QueuePolicy::kShedOldest: {
          auto victim_it = std::find_if(
              queue_.begin(), queue_.end(),
              [](const Op& o) { return o.kind == OpKind::kScore; });
          if (victim_it == queue_.end()) {
            // Nothing sheddable (appends/evicts keep history consistent).
            Metrics().rejected.Inc();
            return Status::ResourceExhausted(
                "op queue full (kShedOldest, no sheddable request)");
          }
          Op victim = std::move(*victim_it);
          queue_.erase(victim_it);
          // The victim was admitted earlier; account it as processed so
          // Drain() still converges.
          ++processed_ops_;
          Metrics().shed.Inc();
          Fail(victim, Status::ResourceExhausted("shed under load"));
          drained_cv_.notify_all();
          break;
        }
      }
    }
    queue_.push_back(std::move(op));
    ++enqueued_ops_;
    Metrics().queue_depth.Observe(static_cast<double>(queue_.size()));
  }
  work_cv_.notify_one();
  return Status::OK();
}

Status RecommendService::Append(int64_t user, int64_t poi,
                                double timestamp) {
  Status valid = ValidateAppend(poi, timestamp);
  if (!valid.ok()) {
    Metrics().invalid_requests.Inc();
    return valid;
  }
  Op op;
  op.kind = OpKind::kAppend;
  op.user = user;
  op.poi = poi;
  op.timestamp = timestamp;
  op.enqueued = std::chrono::steady_clock::now();
  return Enqueue(op);
}

std::future<ScoreResult> RecommendService::ScoreAsync(
    int64_t user, std::vector<int64_t> candidates, int64_t deadline_us) {
  Op op;
  op.kind = OpKind::kScore;
  op.user = user;
  op.candidates = std::move(candidates);
  op.enqueued = std::chrono::steady_clock::now();
  std::future<ScoreResult> fut = op.promise.get_future();
  Status valid = ValidateScore(op.candidates);
  if (!valid.ok()) {
    Metrics().invalid_requests.Inc();
    Fail(op, std::move(valid));
    return fut;
  }
  if (deadline_us <= 0) deadline_us = options_.default_deadline_us;
  if (deadline_us > 0) {
    op.has_deadline = true;
    op.deadline = op.enqueued + std::chrono::microseconds(deadline_us);
  }
  Status admitted = Enqueue(op);
  if (!admitted.ok()) Fail(op, std::move(admitted));
  return fut;
}

ScoreResult RecommendService::Score(int64_t user,
                                    std::vector<int64_t> candidates) {
  std::future<ScoreResult> fut = ScoreAsync(user, std::move(candidates));
  if (!options_.start_worker) Pump();
  return fut.get();
}

std::future<ScoreResult> RecommendService::RankCatalogAsync(
    int64_t user, int64_t top_k, int64_t deadline_us) {
  Op op;
  op.kind = OpKind::kScore;
  op.catalog = true;
  op.user = user;
  op.top_k = top_k;
  op.enqueued = std::chrono::steady_clock::now();
  std::future<ScoreResult> fut = op.promise.get_future();
  if (catalog_gen_ == nullptr) {
    Metrics().invalid_requests.Inc();
    Fail(op, Status::FailedPrecondition(
                 "catalog ranking disabled (ServeOptions::poi_coords "
                 "not set)"));
    return fut;
  }
  if (top_k < 1) {
    Metrics().invalid_requests.Inc();
    Fail(op, Status::InvalidArgument("top_k must be >= 1"));
    return fut;
  }
  if (deadline_us <= 0) deadline_us = options_.default_deadline_us;
  if (deadline_us > 0) {
    op.has_deadline = true;
    op.deadline = op.enqueued + std::chrono::microseconds(deadline_us);
  }
  Status admitted = Enqueue(op);
  if (!admitted.ok()) Fail(op, std::move(admitted));
  return fut;
}

ScoreResult RecommendService::RankCatalog(int64_t user, int64_t top_k) {
  std::future<ScoreResult> fut = RankCatalogAsync(user, top_k);
  if (!options_.start_worker) Pump();
  return fut.get();
}

Status RecommendService::EvictSession(int64_t user) {
  Op op;
  op.kind = OpKind::kEvict;
  op.user = user;
  op.enqueued = std::chrono::steady_clock::now();
  return Enqueue(op);
}

size_t RecommendService::Pump() {
  STISAN_CHECK_MSG(!options_.start_worker,
                   "Pump() is only valid with start_worker = false");
  std::vector<Op> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch.assign(std::make_move_iterator(queue_.begin()),
                 std::make_move_iterator(queue_.end()));
    queue_.clear();
  }
  space_cv_.notify_all();
  const size_t n = batch.size();
  if (n > 0) Process(std::move(batch));
  return n;
}

void RecommendService::Drain() {
  if (!options_.start_worker) {
    Pump();
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return processed_ops_ == enqueued_ops_; });
}

void RecommendService::WorkerLoop() {
  for (;;) {
    std::vector<Op> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Leftover queue entries are resolved (kUnavailable) by Shutdown.
      if (stop_) return;
      if (options_.batch_window_us > 0) {
        // Coalescing window: let concurrent requests pile up so one pass
        // serves many users' tasks side by side. Cut short once max_batch
        // ops are waiting, shutdown begins, or — deadline pressure —
        // waiting any longer would expire a queued request.
        auto cut = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(options_.batch_window_us);
        auto tighten = [this, &cut] {
          for (const Op& op : queue_) {
            if (op.has_deadline && op.deadline < cut) cut = op.deadline;
          }
        };
        tighten();
        while (!stop_ &&
               static_cast<int64_t>(queue_.size()) < options_.max_batch &&
               std::chrono::steady_clock::now() < cut &&
               work_cv_.wait_until(lock, cut) != std::cv_status::timeout) {
          tighten();
        }
        if (stop_) return;
      }
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
    }
    space_cv_.notify_all();
    if (!batch.empty()) Process(std::move(batch));
  }
}

void RecommendService::Fulfil(Op& op, std::vector<float> scores) {
  op.resolved = true;
  const double latency = SecondsSince(op.enqueued);
  Metrics().latency.Observe(latency);
  ScoreResult result;
  if (op.catalog) {
    // Catalog requests return the re-ranked pool: descending score, ties
    // by ascending POI id (deterministic), truncated to top_k.
    STISAN_CHECK_EQ(scores.size(), op.candidates.size());
    std::vector<size_t> order(scores.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (scores[a] != scores[b]) return scores[a] > scores[b];
      return op.candidates[a] < op.candidates[b];
    });
    const size_t keep =
        std::min(order.size(), static_cast<size_t>(op.top_k));
    result.pois.reserve(keep);
    result.scores.reserve(keep);
    for (size_t i = 0; i < keep; ++i) {
      result.pois.push_back(op.candidates[order[i]]);
      result.scores.push_back(scores[order[i]]);
    }
  } else {
    result.scores = std::move(scores);
  }
  result.latency_s = latency;
  op.promise.set_value(std::move(result));
}

void RecommendService::Fail(Op& op, Status status) {
  op.resolved = true;
  ScoreResult result;
  result.status = std::move(status);
  result.latency_s = SecondsSince(op.enqueued);
  op.promise.set_value(std::move(result));
}

void RecommendService::Expire(Op& op) {
  Metrics().deadline_exceeded.Inc();
  Fail(op, Status::DeadlineExceeded("deadline expired before serving"));
}

void RecommendService::ServeScore(Op& op, ScoreSchedule* schedule) {
  ServeMetrics& m = Metrics();
  m.requests.Inc();
  if (op.has_deadline && std::chrono::steady_clock::now() > op.deadline) {
    Expire(op);
    return;
  }
  ServeFaultInjector* inj = options_.fault_injector;
  if (inj != nullptr && inj->ShouldEvictBeforeScore()) {
    store_.Evict(op.user);
  }
  Session& s = store_.GetOrCreate(op.user);
  const int64_t len = static_cast<int64_t>(s.pois.size());
  if (op.catalog) {
    m.catalog_requests.Inc();
    if (len == 0) {
      // No history = no query location; the caller should seed the user
      // with Append first.
      Fail(op, Status::FailedPrecondition(
                   "catalog ranking needs at least one check-in for user " +
                   std::to_string(op.user)));
      return;
    }
  }
  if (len == 0) {
    // Cold start: nothing to condition on; scores are all zero.
    if (inj != nullptr) inj->MaybeThrowOnScore();
    m.cold_starts.Inc();
    Fulfil(op, std::vector<float>(op.candidates.size(), 0.0f));
    return;
  }
  auto slot = schedule->slot_of_user.find(op.user);
  std::shared_ptr<core::IncrementalState> state;
  if (engine_ != nullptr && len <= options_.max_seq_len) {
    const int64_t evictions_before = store_.evictions();
    store_.MarkResident(s, s.state ? nullptr : engine_->NewState());
    m.evictions.Inc(
        static_cast<uint64_t>(store_.evictions() - evictions_before));
    // The state's cached_len moves only when the execution pass runs the
    // jobs; an earlier job on this same state will have synced it to that
    // job's length by the time this one runs.
    const ScoreJob* last =
        slot == schedule->slot_of_user.end()
            ? nullptr
            : &schedule->per_user[slot->second].back();
    const int64_t synced_len =
        last != nullptr && last->state == s.state
            ? static_cast<int64_t>(last->op.instance.poi.size())
            : s.state->cached_len;
    if (synced_len == 0 && len > 1) m.cold_builds.Inc();
    if (inj != nullptr) inj->MaybeThrowOnScore();
    state = s.state;
  }
  op.instance.user = op.user;
  op.instance.poi = s.pois;
  op.instance.t = s.timestamps;
  op.instance.first_real = 0;
  if (slot == schedule->slot_of_user.end()) {
    slot = schedule->slot_of_user
               .emplace(op.user, schedule->per_user.size())
               .first;
    schedule->per_user.emplace_back();
  }
  op.handed_off = true;
  schedule->per_user[slot->second].push_back({std::move(op), std::move(state)});
}

void RecommendService::GenerateCatalogPool(
    Op& op, geo::SpatialGridIndex::QueryScratch* scratch) const {
  const std::vector<int64_t>& history = op.instance.poi;
  const std::unordered_set<int64_t> visited(history.begin(), history.end());
  std::vector<int64_t> pool;
  catalog_gen_->Generate(
      (*options_.poi_coords)[static_cast<size_t>(history.back())],
      [&visited](int64_t id) { return !visited.contains(id + 1); }, scratch,
      &pool);
  Metrics().catalog_pool_size.Observe(static_cast<double>(pool.size()));
  op.candidates.clear();
  op.candidates.reserve(pool.size());
  for (int64_t id : pool) op.candidates.push_back(id + 1);
}

void RecommendService::RunJob(ScoreJob& job,
                              geo::SpatialGridIndex::QueryScratch* scratch) {
  Op& op = job.op;
  // Deadline re-check at the last moment: the op may have expired while
  // this user's earlier jobs, or other users' tasks ahead of this one, ran.
  if (op.has_deadline && std::chrono::steady_clock::now() > op.deadline) {
    Expire(op);
    return;
  }
  // Exception barrier: a throwing job fails only its own request.
  try {
    if (op.catalog) {
      GenerateCatalogPool(op, scratch);
      if (op.candidates.empty()) {
        // Every catalog POI is already visited: a valid empty result.
        Fulfil(op, {});
        return;
      }
    }
    data::EvalInstance& history = op.instance;
    std::vector<float> scores;
    if (job.state != nullptr) {
      scores = engine_->Score(*job.state, history.poi, history.t,
                              op.candidates);
      Metrics().incremental.Inc();
    } else {
      // The trailing serving window through the model's own cold forward.
      const size_t drop =
          history.poi.size() -
          std::min(history.poi.size(),
                   static_cast<size_t>(options_.max_seq_len));
      history.poi.erase(history.poi.begin(), history.poi.begin() + drop);
      history.t.erase(history.t.begin(), history.t.begin() + drop);
      scores = model_->Score(history, op.candidates);
      Metrics().fallback.Inc();
    }
    Fulfil(op, std::move(scores));
  } catch (const std::exception& e) {
    if (!op.resolved) {
      Metrics().batch_failures.Inc();
      Fail(op, Status::Internal(std::string("scorer failed: ") + e.what()));
    }
  }
}

void RecommendService::RunSchedule(ScoreSchedule* schedule) {
  std::vector<std::vector<ScoreJob>>& per_user = schedule->per_user;
  // Each user's jobs run in arrival order on one thread, so a state is
  // never shared between threads; distinct users run side by side.
  kernels::GlobalPool().Run(
      static_cast<int64_t>(per_user.size()), [this, &per_user](int64_t u) {
        geo::SpatialGridIndex::QueryScratch scratch;
        for (ScoreJob& job : per_user[static_cast<size_t>(u)]) {
          RunJob(job, &scratch);
        }
      });
}

void RecommendService::Process(std::vector<Op> ops) {
  ServeMetrics& m = Metrics();
  if (options_.fault_injector != nullptr) {
    options_.fault_injector->OnBatchDequeued();
  }
  for (const Op& op : ops) m.queue_wait.Observe(SecondsSince(op.enqueued));
  // Sequencing pass: every op in arrival order on this thread. Scores it
  // cannot answer on the spot are recorded in `schedule` for the execution
  // pass below; each carries its own copy of the history, so later ops
  // may change the session freely.
  ScoreSchedule schedule;
  const size_t count = ops.size();
  for (Op& op : ops) {
    switch (op.kind) {
      case OpKind::kAppend: {
        // The barrier swallows (state-mutation ops carry no promise): the
        // worker must outlive any single failed op.
        try {
          store_.Append(op.user, op.poi, op.timestamp);
          m.appends.Inc();
          Session& s = store_.GetOrCreate(op.user);
          if (engine_ != nullptr && s.resident &&
              static_cast<int64_t>(s.pois.size()) > options_.max_seq_len) {
            // Past the serving window the cached rows no longer mirror
            // the (windowed) full forward; release them.
            store_.Evict(op.user);
            m.overflows.Inc();
          }
        } catch (const std::exception&) {
          m.batch_failures.Inc();
        }
        break;
      }
      case OpKind::kEvict:
        store_.Evict(op.user);
        break;
      case OpKind::kScore: {
        // Exception barrier: a throwing scorer (model fault, injected
        // fault, internal inconsistency) fails only this request with
        // kInternal; the worker — and every other queued request —
        // keeps going.
        try {
          ServeScore(op, &schedule);
        } catch (const std::exception& e) {
          if (!op.resolved && !op.handed_off) {
            m.batch_failures.Inc();
            Fail(op, Status::Internal(std::string("scorer failed: ") +
                                      e.what()));
          }
        }
        break;
      }
    }
  }
  RunSchedule(&schedule);
  m.resident.Set(static_cast<double>(store_.resident_count()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    processed_ops_ += count;
  }
  drained_cv_.notify_all();
}

}  // namespace stisan::serve
