// serve_replay — drives the long-lived recommendation service with a
// simulated check-in replay from the synthetic generator and reports
// serving throughput plus request-latency percentiles.
//
// All check-ins from the selected users are merged into one global
// timestamp-ordered stream; each event becomes an Append followed by a
// ScoreAsync against a fixed candidate set, so concurrent requests from
// different users coalesce in the service's batching window exactly as
// they would in production.
//
// Usage:
//   serve_replay --preset gowalla --scale 0.08 --users 64
//                --warmup 3 --candidates 100
//                --max-sessions 32 --batch-window 200 --max-batch 32
//                --max-seq-len 100 [--metrics-json FILE]
//
//   --users N         cap on replayed users (default 64)
//   --warmup K        per-user prefix appended before the timed phase
//   --candidates C    candidate-set size per request (default 100)
//   --max-sessions N  resident-session cap (LRU eviction beyond it)
//   --batch-window US coalescing window in microseconds (0 = no wait)
//   --max-batch N     cut the window short once N requests queue
//   --max-seq-len N   serving window; longer histories are scored by a
//                     cold forward over their trailing window
//   --metrics-json F  write the obs-registry snapshot (same flag as the
//                     trainer CLI) with the serve/* counters and the
//                     time/serve/request histogram
//
// Overload mode (open-loop load sweep against the admission-controlled
// service; see DESIGN.md §15):
//
//   serve_replay --offered-rates 200,500,1000,2000 --duration 2
//                --deadline-ms 50 --max-queue 256 --policy shed
//                [--overload-json BENCH_serving_overload.json]
//
//   --offered-rates R1,R2,..  requests/second per sweep point; the
//                     producer paces each request on a fixed schedule and
//                     never waits for responses (open loop), so offered
//                     load keeps arriving when the service falls behind
//   --duration S      seconds of offered load per sweep point; a point
//                     stops early (with a warning) once the timed stream
//                     is used up
//   --deadline-ms D   per-request deadline (0 = none)
//   --max-queue N     admission bound on the op queue (0 = unbounded)
//   --policy P        block | reject | shed (ServeOptions::queue_policy)
//   --overload-json F write the sweep (goodput, shed rate, latency
//                     percentiles per offered rate) as JSON
//
// The served model is the full STiSAN at the repo defaults (geo encoder,
// TAPE, IAAB, TAAD), untrained. The same tool exercises the windowed
// cold-forward path when --max-seq-len is set below the replayed history
// lengths. An unknown flag or preset exits with status 2.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/stisan.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "util/io_env.h"
#include "util/rng.h"

using namespace stisan;

namespace {

struct ReplayEvent {
  int64_t user = 0;
  int64_t poi = 0;
  double timestamp = 0.0;
};

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

// One open-loop sweep point: offer `rate` req/s for `duration_s` against a
// fresh admission-controlled service and classify every response. The
// point stops early at the end of the timed stream: replaying it again
// would re-append earlier check-ins with earlier timestamps.
struct OverloadPoint {
  double offered_rate = 0.0;
  size_t offered = 0;           // requests actually sent
  size_t ok = 0;                // scored within contract
  size_t shed_or_rejected = 0;  // kResourceExhausted (admission control)
  size_t deadline_exceeded = 0;
  size_t other_errors = 0;      // kInternal / kUnavailable (should be 0)
  double wall_s = 0.0;
  double goodput_rps = 0.0;
  double shed_rate = 0.0;  // (shed_or_rejected + deadline_exceeded) / offered
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

OverloadPoint RunOverloadPoint(core::StisanModel* model,
                               const serve::ServeOptions& base_options,
                               const std::vector<ReplayEvent>& events,
                               const std::vector<int64_t>& cands,
                               double rate, double duration_s,
                               int64_t deadline_us) {
  obs::ResetAllForTesting();
  serve::ServeOptions so = base_options;
  so.start_worker = true;
  serve::RecommendService service(model, so);

  OverloadPoint point;
  point.offered_rate = rate;
  const size_t wanted =
      static_cast<size_t>(std::max(1.0, rate * duration_s));
  const size_t total = std::min(wanted, events.size());
  if (total < wanted) {
    std::fprintf(stderr,
                 "warning: the %.0f req/s point stops after %zu of %zu "
                 "requests: the timed stream ends there (raise --users or "
                 "--scale)\n",
                 rate, total, wanted);
  }
  const auto period = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double>(
      1.0 / std::max(rate, 1e-9)));

  std::vector<std::future<serve::ScoreResult>> futures;
  futures.reserve(total);
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < total; ++i) {
    // Open loop: the schedule is fixed in advance; a slow service does
    // not slow the producer down, it just faces a growing queue. (kBlock
    // is the exception by design: backpressure pushes back on arrival.)
    std::this_thread::sleep_until(
        t0 + period * static_cast<int64_t>(i));
    const ReplayEvent& ev = events[i];
    (void)service.Append(ev.user, ev.poi, ev.timestamp);
    futures.push_back(service.ScoreAsync(ev.user, cands, deadline_us));
  }
  service.Drain();
  point.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<double> ok_latencies;
  for (auto& fut : futures) {
    serve::ScoreResult r = fut.get();
    ++point.offered;
    if (r.ok()) {
      ++point.ok;
      ok_latencies.push_back(r.latency_s);
    } else if (r.status.code() == StatusCode::kResourceExhausted) {
      ++point.shed_or_rejected;
    } else if (r.status.code() == StatusCode::kDeadlineExceeded) {
      ++point.deadline_exceeded;
    } else {
      ++point.other_errors;
    }
  }
  std::sort(ok_latencies.begin(), ok_latencies.end());
  point.goodput_rps =
      point.wall_s > 0 ? static_cast<double>(point.ok) / point.wall_s : 0.0;
  point.shed_rate =
      point.offered > 0
          ? static_cast<double>(point.shed_or_rejected +
                                point.deadline_exceeded) /
                static_cast<double>(point.offered)
          : 0.0;
  point.p50_ms = Percentile(ok_latencies, 0.50) * 1e3;
  point.p99_ms = Percentile(ok_latencies, 0.99) * 1e3;
  return point;
}

const char* PolicyName(serve::QueuePolicy policy) {
  switch (policy) {
    case serve::QueuePolicy::kBlock: return "block";
    case serve::QueuePolicy::kRejectNew: return "reject";
    case serve::QueuePolicy::kShedOldest: return "shed";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::string preset = "gowalla";
  std::string metrics_json;
  std::string overload_json;
  std::vector<double> offered_rates;
  double scale = 0.08;
  double duration_s = 2.0;
  double deadline_ms = 50.0;
  int64_t users = 64;
  int64_t warmup = 3;
  int64_t candidates = 100;
  serve::ServeOptions so;
  so.max_sessions = 32;
  so.batch_window_us = 200;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() { return i + 1 < argc ? argv[++i] : ""; };
    if (std::strcmp(argv[i], "--preset") == 0) preset = next();
    else if (std::strcmp(argv[i], "--scale") == 0) scale = std::atof(next());
    else if (std::strcmp(argv[i], "--users") == 0) users = std::atoll(next());
    else if (std::strcmp(argv[i], "--warmup") == 0) warmup = std::atoll(next());
    else if (std::strcmp(argv[i], "--candidates") == 0)
      candidates = std::atoll(next());
    else if (std::strcmp(argv[i], "--max-sessions") == 0)
      so.max_sessions = std::atoll(next());
    else if (std::strcmp(argv[i], "--batch-window") == 0)
      so.batch_window_us = std::atoll(next());
    else if (std::strcmp(argv[i], "--max-batch") == 0)
      so.max_batch = std::atoll(next());
    else if (std::strcmp(argv[i], "--max-seq-len") == 0)
      so.max_seq_len = std::atoll(next());
    else if (std::strcmp(argv[i], "--metrics-json") == 0)
      metrics_json = next();
    else if (std::strcmp(argv[i], "--offered-rates") == 0) {
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        if (!tok.empty()) offered_rates.push_back(std::atof(tok.c_str()));
      }
    }
    else if (std::strcmp(argv[i], "--duration") == 0)
      duration_s = std::atof(next());
    else if (std::strcmp(argv[i], "--deadline-ms") == 0)
      deadline_ms = std::atof(next());
    else if (std::strcmp(argv[i], "--max-queue") == 0)
      so.max_queue = std::atoll(next());
    else if (std::strcmp(argv[i], "--policy") == 0) {
      const std::string p = next();
      if (p == "block") so.queue_policy = serve::QueuePolicy::kBlock;
      else if (p == "reject") so.queue_policy = serve::QueuePolicy::kRejectNew;
      else if (p == "shed") so.queue_policy = serve::QueuePolicy::kShedOldest;
      else {
        std::fprintf(stderr, "unknown --policy %s\n", p.c_str());
        return 2;
      }
    }
    else if (std::strcmp(argv[i], "--overload-json") == 0)
      overload_json = next();
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  data::SyntheticConfig cfg;
  if (preset == "gowalla") cfg = data::GowallaLikeConfig(scale);
  else if (preset == "brightkite") cfg = data::BrightkiteLikeConfig(scale);
  else if (preset == "weeplaces") cfg = data::WeeplacesLikeConfig(scale);
  else if (preset == "changchun") cfg = data::ChangchunLikeConfig(scale);
  else {
    std::fprintf(stderr, "unknown preset %s\n", preset.c_str());
    return 2;
  }
  const data::Dataset dataset = data::GenerateSynthetic(cfg);

  core::StisanOptions opts;
  opts.knn_negatives = false;  // frozen model, no training
  core::StisanModel model(dataset, opts);

  // Global timestamp-ordered replay stream over the selected users.
  std::vector<ReplayEvent> warm, timed;
  int64_t replayed_users = 0;
  for (size_t u = 0; u < dataset.user_seqs.size() && replayed_users < users;
       ++u) {
    const auto& seq = dataset.user_seqs[u];
    if (static_cast<int64_t>(seq.size()) <= warmup) continue;
    ++replayed_users;
    for (size_t k = 0; k < seq.size(); ++k) {
      auto& out = static_cast<int64_t>(k) < warmup ? warm : timed;
      out.push_back({static_cast<int64_t>(u), seq[k].poi, seq[k].timestamp});
    }
  }
  auto by_time = [](const ReplayEvent& a, const ReplayEvent& b) {
    return a.timestamp < b.timestamp;
  };
  std::stable_sort(warm.begin(), warm.end(), by_time);
  std::stable_sort(timed.begin(), timed.end(), by_time);

  // Fixed candidate set shared by all requests (top-N reranking shape).
  Rng rng(17);
  std::vector<int64_t> cands;
  while (static_cast<int64_t>(cands.size()) < candidates) {
    const int64_t poi = 1 + static_cast<int64_t>(rng.UniformInt(
                                static_cast<uint64_t>(dataset.num_pois())));
    if (std::find(cands.begin(), cands.end(), poi) == cands.end())
      cands.push_back(poi);
  }

  so.num_pois = dataset.num_pois();

  if (!offered_rates.empty()) {
    // Open-loop overload sweep: fresh service + obs registry per offered
    // rate, classify every response, report goodput vs offered load.
    const int64_t deadline_us = static_cast<int64_t>(deadline_ms * 1e3);
    std::printf(
        "serve_replay overload: %zu rates, %.1f s/point, deadline %.1f ms, "
        "max_queue %lld, policy %s\n",
        offered_rates.size(), duration_s, deadline_ms,
        static_cast<long long>(so.max_queue), PolicyName(so.queue_policy));
    std::printf(
        "%10s %9s %9s %7s %9s %9s %9s %9s %9s\n", "offered/s", "sent", "ok",
        "shed", "deadline", "goodput/s", "shedrate", "p50ms", "p99ms");
    std::vector<OverloadPoint> sweep;
    for (double rate : offered_rates) {
      OverloadPoint pt = RunOverloadPoint(&model, so, timed, cands, rate,
                                          duration_s, deadline_us);
      std::printf(
          "%10.0f %9zu %9zu %7zu %9zu %9.1f %9.3f %9.3f %9.3f\n",
          pt.offered_rate, pt.offered, pt.ok, pt.shed_or_rejected,
          pt.deadline_exceeded, pt.goodput_rps, pt.shed_rate, pt.p50_ms,
          pt.p99_ms);
      if (pt.other_errors > 0) {
        std::fprintf(stderr,
                     "warning: %zu unexpected errors at %.0f req/s\n",
                     pt.other_errors, rate);
      }
      sweep.push_back(pt);
    }
    if (!overload_json.empty()) {
      std::ostringstream out;
      out << "{\n  \"tool\": \"serve_replay\",\n  \"mode\": \"overload\",\n";
      out << "  \"preset\": \"" << preset << "\",\n";
      out << "  \"duration_s\": " << duration_s << ",\n";
      out << "  \"deadline_ms\": " << deadline_ms << ",\n";
      out << "  \"max_queue\": " << so.max_queue << ",\n";
      out << "  \"policy\": \"" << PolicyName(so.queue_policy) << "\",\n";
      out << "  \"sweep\": [\n";
      for (size_t i = 0; i < sweep.size(); ++i) {
        const OverloadPoint& pt = sweep[i];
        out << "    {\"offered_rate\": " << pt.offered_rate
            << ", \"offered\": " << pt.offered << ", \"ok\": " << pt.ok
            << ", \"shed_or_rejected\": " << pt.shed_or_rejected
            << ", \"deadline_exceeded\": " << pt.deadline_exceeded
            << ", \"other_errors\": " << pt.other_errors
            << ", \"wall_s\": " << pt.wall_s
            << ", \"goodput_rps\": " << pt.goodput_rps
            << ", \"shed_rate\": " << pt.shed_rate
            << ", \"p50_ms\": " << pt.p50_ms
            << ", \"p99_ms\": " << pt.p99_ms << "}"
            << (i + 1 < sweep.size() ? "," : "") << "\n";
      }
      out << "  ]\n}\n";
      const Status s =
          WriteFileAtomic(Env::Default(), overload_json, out.str());
      if (!s.ok()) {
        std::fprintf(stderr, "error writing %s: %s\n", overload_json.c_str(),
                     s.ToString().c_str());
        return 1;
      }
      std::printf("overload sweep written to %s\n", overload_json.c_str());
    }
    return 0;
  }

  serve::RecommendService service(&model, so);
  std::printf("serve_replay: %lld users, %zu warmup + %zu timed events, "
              "%lld candidates\n",
              static_cast<long long>(replayed_users), warm.size(),
              timed.size(), static_cast<long long>(candidates));

  for (const auto& ev : warm) service.Append(ev.user, ev.poi, ev.timestamp);

  // Timed phase: append + score per event, draining futures in a sliding
  // window so the queue stays busy without unbounded growth.
  constexpr size_t kWindow = 256;
  std::deque<std::future<serve::ScoreResult>> inflight;
  std::vector<double> latencies;
  latencies.reserve(timed.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& ev : timed) {
    service.Append(ev.user, ev.poi, ev.timestamp);
    inflight.push_back(service.ScoreAsync(ev.user, cands));
    while (inflight.size() > kWindow) {
      latencies.push_back(inflight.front().get().latency_s);
      inflight.pop_front();
    }
  }
  service.Drain();
  while (!inflight.empty()) {
    latencies.push_back(inflight.front().get().latency_s);
    inflight.pop_front();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::sort(latencies.begin(), latencies.end());
  const double qps = wall > 0 ? static_cast<double>(latencies.size()) / wall
                              : 0.0;
  std::printf("timed phase: %.3f s wall, %zu requests\n", wall,
              latencies.size());
  std::printf("throughput:  %.1f req/s\n", qps);
  std::printf("latency:     p50 %.3f ms   p99 %.3f ms   max %.3f ms\n",
              Percentile(latencies, 0.50) * 1e3,
              Percentile(latencies, 0.99) * 1e3,
              latencies.empty() ? 0.0 : latencies.back() * 1e3);
  std::printf(
      "serve counters: appends=%llu requests=%llu incremental=%llu "
      "fallback=%llu evictions=%llu overflows=%llu\n",
      static_cast<unsigned long long>(obs::GetCounter("serve/appends").Get()),
      static_cast<unsigned long long>(obs::GetCounter("serve/requests").Get()),
      static_cast<unsigned long long>(
          obs::GetCounter("serve/incremental_scored").Get()),
      static_cast<unsigned long long>(
          obs::GetCounter("serve/fallback_scored").Get()),
      static_cast<unsigned long long>(
          obs::GetCounter("serve/evictions").Get()),
      static_cast<unsigned long long>(
          obs::GetCounter("serve/overflows").Get()));

  if (!metrics_json.empty()) {
    const Status s = obs::WriteJsonAtomic(Env::Default(), metrics_json);
    if (!s.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", metrics_json.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::printf("metrics snapshot written to %s\n", metrics_json.c_str());
  }
  return 0;
}
