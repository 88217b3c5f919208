// perfbench_worker: the measuring half of the repository benchmark.
//
//   perfbench_worker --workload NAME --seed N --trace 0|1 [--spans FILE]
//
// perfbench/run.py starts it and drives it over stdin, one command per line;
// every command answers with one JSON line on stdout:
//
//   setup                    generate the population, build the model and
//                            a prewarmed service; timed
//   fit_eval SECONDS PASSES  fit a fresh model, evaluate it at least PASSES
//                            times and until SECONDS have passed; it becomes
//                            the model every later command uses
//   train                    fit another fresh model with the same schedule
//                            and discard it (a timed training block)
//   eval_pass SECONDS        more eval passes over the current model, at
//                            least one and until SECONDS have passed
//   trial RATE N SHARE       open-loop serving of the first N requests at
//                            RATE req/s; SHARE of them checked against the
//                            cold oracle
//   reissue                  (traced runs) replay the last trial directly
//                            through the layers: checked, untraced, traced
//   probes                   (traced runs) per-layer probes
//   finish                   write the spans, report process facts, exit
//
// The decisions (which rates, how many runs, percentiles, verdicts) live in
// run.py and stats.py; this program only measures.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "geo/spatial_index.h"
#include "probes.h"
#include "serving.h"
#include "tensor/kernels.h"
#include "trace.h"

using namespace stisan;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  std::string spans;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--spans") {
      a.spans = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

std::string Calls(const std::map<std::string, std::pair<double, int64_t>>& calls) {
  JsonObject j;
  for (const auto& [name, c] : calls) {
    j.Raw(name, "[" + JsonNumber(c.first) + "," + std::to_string(c.second) + "]");
  }
  return j.str();
}

class Worker {
 public:
  explicit Worker(const Args& args)
      : args_(args), spec_(SpecFor(args.workload)) {
    GlobalTracer().set_enabled(args.trace);
  }

  std::string Setup() {
    double generate_s = 0.0;
    const CpuTimes cpu0 = ReadCpuTimes();
    const double t0 = NowS();
    auto pop = std::make_unique<Population>(
        BuildPopulation(spec_, args_.seed, &generate_s));
    const double t1 = NowS();
    auto model = BuildModel(spec_, *pop);
    const double t2 = NowS();
    {
      serve::RecommendService service(model.get(), ServeOptionsFor(spec_, *pop));
      Prewarm(service, *pop);
    }
    const double t3 = NowS();
    const double steal = StealShare(cpu0, ReadCpuTimes());
    // The oracle's own copy of the catalog index (not part of set-up).
    model_.reset();
    catalog_index_.reset();
    pop_ = std::move(pop);
    model_ = std::move(model);
    if (spec_.catalog_share > 0.0) {
      catalog_index_ = std::make_unique<geo::SpatialGridIndex>(
          std::vector<geo::GeoPoint>(pop_->dataset.poi_coords.begin() + 1,
                                     pop_->dataset.poi_coords.end()),
          ServeOptionsFor(spec_, *pop_).catalog_cell_km);
    }
    int64_t fallback = 0;
    HistoryTracker history(*pop_);
    for (const Request& r : pop_->stream) {
      history.Apply(r);
      fallback += static_cast<int64_t>(history.pois(r.user).size()) > spec_.max_seq_len;
    }
    return JsonObject()
        .Num("setup_s", t3 - t0)
        .Num("steal_share", steal)
        .Num("generate_s", generate_s)
        .Num("population_s", t1 - t0)
        .Num("model_s", t2 - t1)
        .Num("service_s", t3 - t2)
        .Int("users", pop_->dataset.num_users())
        .Int("pois", pop_->dataset.num_pois())
        .Int("checkins", pop_->dataset.num_checkins())
        .Int("stream_requests", static_cast<int64_t>(pop_->stream.size()))
        .Int("stream_past_window", fallback)
        .str();
  }

  std::string FitEval(double eval_seconds, int64_t min_passes) {
    model_.reset();
    model_ = NewTimedModel();
    const FitEvalResult r =
        FitAndEval(*model_, *pop_, &epoch_marks_, eval_seconds, min_passes);
    JsonObject j;
    AddFit(j, r.fit);
    return j.Num("hr10", r.hr10)
        .Num("ndcg10", r.ndcg10)
        .Int("instances", r.instances)
        .Int("passes", r.passes)
        .Nums("pass_s", r.pass_s)
        .Nums("pass_steal", r.pass_steal)
        .Bool("passes_reproduce", r.passes_reproduce)
        .Nums("batch_ms", r.batch_ms)
        .Map("eval_obs", r.eval_obs)
        .str();
  }

  std::string Train() {
    auto model = NewTimedModel();
    JsonObject j;
    AddFit(j, FitTimed(*model, *pop_, &epoch_marks_));
    return j.str();
  }

  std::string Eval(double seconds) {
    const EvalPassResult r = EvalPasses(*model_, *pop_, seconds);
    return JsonObject()
        .Int("instances", static_cast<int64_t>(pop_->split.test.size()))
        .Nums("pass_s", r.pass_s)
        .Nums("pass_steal", r.pass_steal)
        .Num("hr10", r.hr10)
        .Num("ndcg10", r.ndcg10)
        .Bool("passes_reproduce", r.passes_reproduce)
        .str();
  }

  std::string Trial(double rate, int64_t max_requests, double oracle_share) {
    TrialOptions o;
    o.rate = rate;
    o.max_requests = max_requests;
    o.oracle_share = oracle_share;
    o.seed = args_.seed;
    o.trace = args_.trace;
    TrialResult r = RunTrial(*model_, spec_, *pop_, catalog_index_.get(), o);
    JsonObject j;
    j.Num("rate", rate)
        .Int("sent", r.sent)
        .Int("ok", r.ok)
        .Int("not_ok", r.not_ok)
        .Int("oracle_checked", r.oracle_checked)
        .Int("oracle_mismatches", r.oracle_mismatches)
        .Int("invariant_violations", r.invariant_violations)
        .Str("first_failure", r.first_failure)
        .Num("wall_s", r.wall_s)
        .Num("steal_share", r.steal_share)
        .Bool("pacer_realtime", r.pacer_realtime)
        .Nums("latency_ms", r.latency_ms)
        .Nums("lag_ms", r.lag_ms)
        .Nums("service_ms", r.service_ms)
        .Nums("enqueue_us", r.enqueue_us)
        .Map("obs", r.obs_delta);
    last_trial_ = std::move(r);
    return j.str();
  }

  std::string Reissue() {
    const int64_t n = last_trial_.sent;
    Tracer& tracer = GlobalTracer();
    tracer.set_enabled(false);
    // The first pass checks the scores and warms what a first pass warms;
    // the trace overhead compares the next untraced pass with a traced one.
    const ReissueResult check = perfbench::Reissue(
        *model_, spec_, *pop_, catalog_index_.get(), last_trial_.results, n);
    const ReissueResult off =
        perfbench::Reissue(*model_, spec_, *pop_, catalog_index_.get(), {}, n);
    tracer.set_enabled(args_.trace);
    const ReissueResult on =
        perfbench::Reissue(*model_, spec_, *pop_, catalog_index_.get(), {}, n);
    return JsonObject()
        .Int("requests", check.requests)
        .Int("mismatches", check.mismatches)
        .Map("paths", check.paths)
        .Num("wall_untraced_s", off.wall_s)
        .Num("wall_traced_s", on.wall_s)
        .Num("layer_s", off.layer_s)
        .Raw("calls", Calls(off.calls))
        .str();
  }

  std::string Probes() {
    return JsonObject().Map("probes", LayerProbes(*model_, spec_, *pop_)).str();
  }

  std::string Finish() {
    bool spans_written = true;
    if (args_.trace && !args_.spans.empty()) {
      spans_written = GlobalTracer().Write(args_.spans);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return JsonObject()
        .Num("peak_rss_mb", double(usage.ru_maxrss) / 1024.0)
        .Num("steal_share", StealShare(start_cpu_, ReadCpuTimes()))
        .Int("pool_threads", kernels::NumThreads())
        .Str("simd", kernels::SimdBackendName())
        .Str("build_type", PERFBENCH_BUILD_TYPE)
        .Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
        .Int("spans", static_cast<int64_t>(GlobalTracer().spans().size()))
        .Bool("spans_written", spans_written)
        .str();
  }

 private:
  // A fresh model whose epochs append to epoch_marks_, cleared here.
  std::unique_ptr<core::StisanModel> NewTimedModel() {
    epoch_marks_.clear();
    return BuildModel(spec_, *pop_, [this](const train::EpochStats&) {
      epoch_marks_.push_back({NowS(), ReadCpuTimes()});
      return true;
    });
  }

  static void AddFit(JsonObject& j, const FitResult& r) {
    j.Int("windows", r.windows)
        .Num("fit_s", r.fit_s)
        .Nums("epoch_s", r.epoch_s)
        .Nums("epoch_steal", r.epoch_steal)
        .Num("final_loss", r.final_loss)
        .Map("fit_obs", r.fit_obs);
  }

  Args args_;
  WorkloadSpec spec_;
  const CpuTimes start_cpu_ = ReadCpuTimes();
  std::unique_ptr<Population> pop_;
  std::unique_ptr<core::StisanModel> model_;
  std::unique_ptr<geo::SpatialGridIndex> catalog_index_;
  std::vector<EpochMark> epoch_marks_;
  TrialResult last_trial_;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    Worker worker(ParseArgs(argc, argv));
    std::string line;
    while (std::getline(std::cin, line)) {
      std::istringstream in(line);
      std::string cmd;
      in >> cmd;
      std::string reply;
      bool done = false;
      if (cmd == "setup") {
        reply = worker.Setup();
      } else if (cmd == "fit_eval") {
        double seconds = 0.0;
        int64_t passes = 1;
        in >> seconds >> passes;
        reply = worker.FitEval(seconds, passes);
      } else if (cmd == "train") {
        reply = worker.Train();
      } else if (cmd == "eval_pass") {
        double seconds = 0.0;
        in >> seconds;
        reply = worker.Eval(seconds);
      } else if (cmd == "trial") {
        double rate = 0.0, share = 0.0;
        int64_t n = 0;
        in >> rate >> n >> share;
        if (!(rate > 0.0) || n < 1) throw std::invalid_argument("bad trial: " + line);
        reply = worker.Trial(rate, n, share);
      } else if (cmd == "reissue") {
        reply = worker.Reissue();
      } else if (cmd == "probes") {
        reply = worker.Probes();
      } else if (cmd == "finish") {
        reply = worker.Finish();
        done = true;
      } else {
        throw std::invalid_argument("unknown command: " + line);
      }
      std::cout << reply << std::endl;
      if (done) return 0;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cout << JsonObject().Str("error", e.what()).str() << std::endl;
    return 1;
  }
}
