#include "serving.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <unordered_set>

#include "geo/candidate_gen.h"
#include "obs/metrics.h"
#include "serve/session_store.h"
#include "trace.h"

namespace perfbench {

using namespace stisan;
using Clock = std::chrono::steady_clock;

namespace {

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool SameFloats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Deterministic per-(seed, request) sampling for the oracle.
bool Sampled(uint64_t seed, int64_t index, double share) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(index) +
               0x2545F4914F6CDD1DULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<double>(z % 1000000) < share * 1e6;
}

// The catalog answer the service promises: the pool_size nearest unvisited
// POIs around the latest check-in, re-ranked by the model, descending score
// with ties by ascending id, truncated to top_k.
ServedResult RankPool(const std::vector<int64_t>& pool,
                      const std::vector<float>& scores, int64_t top_k) {
  std::vector<size_t> order(pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return pool[a] < pool[b];
  });
  ServedResult out;
  const size_t keep = std::min(order.size(), static_cast<size_t>(top_k));
  for (size_t i = 0; i < keep; ++i) {
    out.pois.push_back(pool[order[i]]);
    out.scores.push_back(scores[order[i]]);
  }
  return out;
}

std::vector<int64_t> CatalogPool(const geo::CandidateGenerator& gen,
                                 const Population& pop,
                                 const std::vector<int64_t>& history,
                                 geo::SpatialGridIndex::QueryScratch* scratch) {
  const std::unordered_set<int64_t> visited(history.begin(), history.end());
  std::vector<int64_t> ids;
  gen.Generate(pop.dataset.poi_location(history.back()),
               [&visited](int64_t id) { return !visited.contains(id + 1); },
               scratch, &ids);
  for (int64_t& id : ids) id += 1;
  return ids;
}

// Cold reference: model->Score on the trailing serving window.
ServedResult ColdAnswer(core::StisanModel& model, const WorkloadSpec& spec,
                        const Population& pop, const geo::CandidateGenerator* gen,
                        const std::vector<int64_t>& pois,
                        const std::vector<double>& times, bool catalog) {
  const data::EvalInstance inst =
      TrailingWindow(pois, times, spec.max_seq_len);
  if (!catalog) return {model.Score(inst, pop.candidates), {}};
  geo::SpatialGridIndex::QueryScratch scratch;
  const std::vector<int64_t> pool = CatalogPool(*gen, pop, pois, &scratch);
  if (pool.empty()) return {};
  return RankPool(pool, model.Score(inst, pool), spec.catalog_top_k);
}

// While alive, the calling thread runs under SCHED_FIFO when the system
// allows it, so the load generator wakes on schedule instead of queueing
// behind the program's own threads; it restores the previous policy. The
// program's threads are all created before and keep their policy.
class PacerPriority {
 public:
  PacerPriority() {
    pthread_getschedparam(pthread_self(), &policy_, &param_);
    sched_param fifo{};
    fifo.sched_priority = 1;
    raised_ = pthread_setschedparam(pthread_self(), SCHED_FIFO, &fifo) == 0;
  }
  ~PacerPriority() {
    if (raised_) pthread_setschedparam(pthread_self(), policy_, &param_);
  }
  PacerPriority(const PacerPriority&) = delete;
  PacerPriority& operator=(const PacerPriority&) = delete;
  bool raised() const { return raised_; }

 private:
  int policy_ = SCHED_OTHER;
  sched_param param_{};
  bool raised_ = false;
};

}  // namespace

double ObsReading::Get(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

ObsReading ReadObs() {
  const obs::Snapshot snap = obs::TakeSnapshot();
  ObsReading r;
  for (const auto& [name, v] : snap.counters) r.values[name] = double(v);
  for (const auto& [name, v] : snap.gauges) r.values[name] = v;
  for (const auto& h : snap.histograms) {
    r.values[h.name + "#sum"] = h.sum;
    r.values[h.name + "#count"] = double(h.count);
  }
  return r;
}

std::map<std::string, double> Deltas(const ObsReading& before,
                                     const ObsReading& after) {
  std::map<std::string, double> out;
  for (const auto& [name, v] : after.values) out[name] = v - before.Get(name);
  return out;
}

TrialResult RunTrial(core::StisanModel& model, const WorkloadSpec& spec,
                     const Population& pop,
                     const geo::SpatialGridIndex* catalog_index,
                     const TrialOptions& options) {
  TrialResult out;
  const int64_t n = std::min<int64_t>(options.max_requests,
                                      static_cast<int64_t>(pop.stream.size()));
  std::vector<std::future<serve::ScoreResult>> futures(static_cast<size_t>(n));
  std::vector<double> read_delay(static_cast<size_t>(n));
  out.lag_ms.resize(static_cast<size_t>(n));
  if (options.trace) out.enqueue_us.reserve(static_cast<size_t>(n) * 3);
  {
    serve::RecommendService service(&model, ServeOptionsFor(spec, pop));
    Prewarm(service, pop);
    const ObsReading before = ReadObs();
    const CpuTimes cpu_before = ReadCpuTimes();
    const PacerPriority pacer;
    out.pacer_realtime = pacer.raised();
    const auto period = std::chrono::duration<double>(1.0 / options.rate);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    // Open loop: one producer sends on a fixed schedule and never waits for
    // results, so a stall shows as queueing for every later request.
    for (int64_t i = 0; i < n; ++i) {
      const Request& req = pop.stream[static_cast<size_t>(i)];
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      period * static_cast<double>(i));
      std::this_thread::sleep_until(due);
      out.lag_ms[static_cast<size_t>(i)] = Seconds(due, Clock::now()) * 1e3;
      for (const auto& v : req.appends) {
        const Clock::time_point t0 = Clock::now();
        Status st = service.Append(req.user, v.poi, v.timestamp);
        if (options.trace) out.enqueue_us.push_back(Seconds(t0, Clock::now()) * 1e6);
        if (!st.ok()) {
          ++out.invariant_violations;
          if (out.first_failure.empty()) out.first_failure = "append: " + st.ToString();
        }
      }
      const Clock::time_point t0 = Clock::now();
      read_delay[static_cast<size_t>(i)] = Seconds(due, t0);
      futures[static_cast<size_t>(i)] =
          req.catalog ? service.RankCatalogAsync(req.user, spec.catalog_top_k)
                      : service.ScoreAsync(req.user, pop.candidates);
      if (options.trace) out.enqueue_us.push_back(Seconds(t0, Clock::now()) * 1e6);
    }
    service.Drain();
    out.wall_s = Seconds(start, Clock::now());
    out.steal_share = StealShare(cpu_before, ReadCpuTimes());
    out.obs_delta = Deltas(before, ReadObs());
  }

  std::unique_ptr<geo::CandidateGenerator> gen;
  if (catalog_index != nullptr) {
    geo::CandidatePoolOptions po;
    po.pool_size = spec.catalog_pool;
    gen = std::make_unique<geo::CandidateGenerator>(*catalog_index, po);
  }
  HistoryTracker history(pop);
  out.sent = n;
  out.latency_ms.reserve(static_cast<size_t>(n));
  out.service_ms.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const Request& req = pop.stream[static_cast<size_t>(i)];
    history.Apply(req);
    serve::ScoreResult r = futures[static_cast<size_t>(i)].get();
    out.latency_ms.push_back((read_delay[static_cast<size_t>(i)] + r.latency_s) * 1e3);
    out.service_ms.push_back(r.latency_s * 1e3);
    auto fail = [&](const std::string& why) {
      if (out.first_failure.empty()) {
        out.first_failure = "request " + std::to_string(i) + ": " + why;
      }
    };
    if (!r.ok()) {
      ++out.not_ok;
      fail(r.status.ToString());
      if (options.trace) out.results.emplace_back();
      continue;
    }
    ++out.ok;
    const auto& pois = history.pois(req.user);
    bool valid = true;
    if (req.catalog) {
      const std::unordered_set<int64_t> visited(pois.begin(), pois.end());
      valid = !r.pois.empty() && r.pois.size() == r.scores.size() &&
              static_cast<int64_t>(r.pois.size()) <= spec.catalog_top_k;
      for (size_t k = 0; valid && k < r.pois.size(); ++k) {
        if (visited.contains(r.pois[k])) valid = false;
        if (k > 0 && !(r.scores[k] <= r.scores[k - 1])) valid = false;
      }
    } else {
      valid = r.scores.size() == pop.candidates.size();
    }
    if (!valid) {
      ++out.invariant_violations;
      fail("catalog result not descending, visited POI, or wrong size");
    }
    if (Sampled(options.seed, i, options.oracle_share)) {
      ++out.oracle_checked;
      const ServedResult cold = ColdAnswer(model, spec, pop, gen.get(), pois,
                                           history.times(req.user), req.catalog);
      if (!SameFloats(cold.scores, r.scores) || cold.pois != r.pois) {
        ++out.oracle_mismatches;
        fail("served result differs from the cold model->Score oracle");
      }
    }
    if (options.trace) {
      out.results.push_back({std::move(r.scores), std::move(r.pois)});
    }
  }
  return out;
}

ReissueResult Reissue(core::StisanModel& model, const WorkloadSpec& spec,
                      const Population& pop,
                      const geo::SpatialGridIndex* catalog_index,
                      const std::vector<ServedResult>& served,
                      int64_t num_requests) {
  ReissueResult out;
  const serve::ServeOptions so = ServeOptionsFor(spec, pop);
  serve::SessionStore store(so.max_sessions);
  core::IncrementalScorer engine(&model, so.max_seq_len);
  std::unique_ptr<geo::CandidateGenerator> gen;
  if (catalog_index != nullptr) {
    geo::CandidatePoolOptions po;
    po.pool_size = spec.catalog_pool;
    gen = std::make_unique<geo::CandidateGenerator>(*catalog_index, po);
  }
  geo::SpatialGridIndex::QueryScratch scratch;
  bool counting = false;
  auto count = [&](const char* name, double n = 1.0) {
    if (counting) out.paths[name] += n;
  };
  // Layer calls are timed (and traced) only inside the timed stream.
  auto timed = [&](const char* span, int64_t request, auto&& fn) {
    if (!counting) return fn();
    ScopedSpan s(span, request);
    const double t0 = NowS();
    auto result = fn();
    const double dt = NowS() - t0;
    out.layer_s += dt;
    auto& [total, n] = out.calls[span];
    total += dt;
    ++n;
    return result;
  };

  auto append = [&](int64_t user, const data::Visit& v, int64_t request) {
    timed("serve.session_append", request, [&] {
      store.Append(user, v.poi, v.timestamp);
      serve::Session& s = store.GetOrCreate(user);
      if (s.resident && static_cast<int64_t>(s.pois.size()) > so.max_seq_len) {
        store.Evict(user);
        count("serve/overflows");
      }
      return 0;
    });
  };
  // Mirrors RecommendService::ServeScore for the options this benchmark
  // uses (no deadlines, no faults, no int8).
  auto score = [&](int64_t user, bool catalog, int64_t request) {
    serve::Session& s = store.GetOrCreate(user);
    const auto len = static_cast<int64_t>(s.pois.size());
    std::vector<int64_t> cands = pop.candidates;
    if (catalog) {
      count("serve/catalog_requests");
      cands = timed("geo.generate", request,
                    [&] { return CatalogPool(*gen, pop, s.pois, &scratch); });
      if (cands.empty()) return ServedResult{};
    }
    std::vector<float> scores;
    if (len <= so.max_seq_len) {
      timed("serve.session_resident", request, [&] {
        const int64_t before = store.evictions();
        store.MarkResident(s, s.state ? nullptr : engine.NewState());
        count("serve/evictions", double(store.evictions() - before));
        if (s.state->cached_len == 0 && len > 1) count("serve/cold_builds");
        return 0;
      });
      count("serve/cache_rebuilds",
            double(timed("core.incremental_sync", request, [&] {
              return engine.Sync(*s.state, s.pois, s.timestamps);
            })));
      scores = timed("core.incremental_score", request, [&] {
        return engine.Score(*s.state, s.pois, s.timestamps, cands);
      });
      count("serve/incremental_scored");
    } else {
      const data::EvalInstance inst =
          TrailingWindow(s.pois, s.timestamps, so.max_seq_len);
      scores = timed("core.score_batch", request, [&] {
        return model.ScoreBatch({&inst}, {cands})[0];
      });
      count("serve/fallback_scored");
    }
    if (catalog) return RankPool(cands, scores, spec.catalog_top_k);
    return ServedResult{std::move(scores), {}};
  };

  // The prewarm, replayed op for op so the LRU state matches the service.
  const auto& seqs = pop.dataset.user_seqs;
  for (size_t u = 0; u < seqs.size(); ++u) {
    for (int64_t i = 0; i < pop.prewarm_len[u]; ++i) {
      append(static_cast<int64_t>(u), seqs[u][static_cast<size_t>(i)], -1);
    }
  }
  for (size_t u = 0; u < seqs.size(); ++u) score(static_cast<int64_t>(u), false, -1);

  const int64_t n = std::min<int64_t>(num_requests,
                                      static_cast<int64_t>(pop.stream.size()));
  counting = true;
  const double t0 = NowS();
  for (int64_t i = 0; i < n; ++i) {
    const Request& req = pop.stream[static_cast<size_t>(i)];
    for (const auto& v : req.appends) append(req.user, v, i);
    const ServedResult direct = score(req.user, req.catalog, i);
    ++out.requests;
    if (!served.empty()) {
      const ServedResult& s = served[static_cast<size_t>(i)];
      if (!SameFloats(direct.scores, s.scores) || direct.pois != s.pois) {
        ++out.mismatches;
      }
    }
  }
  out.wall_s = NowS() - t0;
  return out;
}

}  // namespace perfbench
