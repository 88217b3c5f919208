#include "probes.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/geo_encoder.h"
#include "core/iaab.h"
#include "core/incremental.h"
#include "core/relation.h"
#include "core/taad.h"
#include "core/tape.h"
#include "eval/evaluator.h"
#include "geo/candidate_gen.h"
#include "nn/flops.h"
#include "serving.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "trace.h"

namespace perfbench {

using namespace stisan;

namespace {

// Forwards to the model, timing (and tracing) each batch it scores.
class TimedScorer : public eval::BatchScorer {
 public:
  TimedScorer(core::StisanModel& model, std::vector<double>* batch_ms)
      : model_(model), batch_ms_(batch_ms) {}

  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<const data::EvalInstance*>& instances,
      const std::vector<std::vector<int64_t>>& candidates) override {
    ScopedSpan span("core.score_batch");
    const double t0 = NowS();
    auto scores = model_.ScoreBatch(instances, candidates);
    batch_ms_->push_back((NowS() - t0) * 1e3);
    return scores;
  }

 private:
  core::StisanModel& model_;
  std::vector<double>* batch_ms_;
};

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

// Times fn() once per input under a span; returns the mean microseconds.
template <typename Fn>
double TimeEach(const char* span, size_t count, Fn&& fn) {
  std::vector<double> us;
  for (size_t i = 0; i < count; ++i) {
    ScopedSpan s(span);
    const double t0 = NowS();
    fn(i);
    us.push_back((NowS() - t0) * 1e6);
  }
  return Mean(us);
}

struct Sequence {
  std::vector<int64_t> pois;
  std::vector<double> times;
  int64_t next_poi = 0;  // the visit that follows, 0 when none
};

// One history per user at the workload's serving shape: the user's history
// halfway through its timed requests.
std::vector<Sequence> ProbeSequences(const Population& pop) {
  std::vector<Sequence> out;
  const auto& seqs = pop.dataset.user_seqs;
  for (size_t u = 0; u < seqs.size(); ++u) {
    const auto len = static_cast<int64_t>(seqs[u].size());
    const int64_t mid = (pop.prewarm_len[u] + len) / 2;
    Sequence s;
    for (int64_t i = 0; i < mid; ++i) {
      s.pois.push_back(seqs[u][static_cast<size_t>(i)].poi);
      s.times.push_back(seqs[u][static_cast<size_t>(i)].timestamp);
    }
    s.next_poi = mid < len ? seqs[u][static_cast<size_t>(mid)].poi : 0;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

FitResult FitTimed(core::StisanModel& model, const Population& pop,
                   const std::vector<EpochMark>* epoch_marks) {
  FitResult out;
  const ObsReading before = ReadObs();
  EpochMark prev{NowS(), ReadCpuTimes()};
  const double fit_start = prev.at_s;
  {
    ScopedSpan span("train.fit");
    model.Fit(pop.dataset, pop.split.train);
  }
  out.fit_s = NowS() - fit_start;
  out.fit_obs = Deltas(before, ReadObs());
  out.windows = static_cast<int64_t>(out.fit_obs["train/windows_seen"]);
  out.final_loss = model.last_epoch_loss();
  for (const EpochMark& mark : *epoch_marks) {
    out.epoch_s.push_back(mark.at_s - prev.at_s);
    out.epoch_steal.push_back(StealShare(prev.cpu, mark.cpu));
    prev = mark;
  }
  return out;
}

FitEvalResult FitAndEval(core::StisanModel& model, const Population& pop,
                         const std::vector<EpochMark>* epoch_marks,
                         double eval_seconds, int64_t min_passes) {
  FitEvalResult out;
  out.fit = FitTimed(model, pop, epoch_marks);

  const eval::CandidateGenerator candidates(pop.dataset);
  TimedScorer scorer(model, &out.batch_ms);
  out.instances = static_cast<int64_t>(pop.split.test.size());
  const ObsReading before = ReadObs();
  const double eval_start = NowS();
  auto evaluate = [&] {
    ScopedSpan span("eval.evaluate");
    const double t0 = NowS();
    const CpuTimes cpu0 = ReadCpuTimes();
    eval::MetricAccumulator m =
        eval::Evaluate(scorer, pop.split.test, candidates, {});
    out.pass_s.push_back(NowS() - t0);
    out.pass_steal.push_back(StealShare(cpu0, ReadCpuTimes()));
    return m;
  };
  const eval::MetricAccumulator first = evaluate();
  out.hr10 = first.HitRate(10);
  out.ndcg10 = first.Ndcg(10);
  while (out.passes + 1 < min_passes || NowS() - eval_start < eval_seconds) {
    const eval::MetricAccumulator again = evaluate();
    ++out.passes;
    if (again.HitRate(10) != out.hr10 || again.Ndcg(10) != out.ndcg10) {
      out.passes_reproduce = false;
    }
  }
  out.eval_obs = Deltas(before, ReadObs());
  return out;
}

EvalPassResult EvalPasses(core::StisanModel& model, const Population& pop,
                          double seconds) {
  EvalPassResult out;
  const eval::CandidateGenerator candidates(pop.dataset);
  std::vector<double> batch_ms;
  TimedScorer scorer(model, &batch_ms);
  const double start = NowS();
  do {
    ScopedSpan span("eval.evaluate");
    const double t0 = NowS();
    const CpuTimes cpu0 = ReadCpuTimes();
    const eval::MetricAccumulator m =
        eval::Evaluate(scorer, pop.split.test, candidates, {});
    out.pass_s.push_back(NowS() - t0);
    out.pass_steal.push_back(StealShare(cpu0, ReadCpuTimes()));
    if (out.pass_s.size() > 1 &&
        (m.HitRate(10) != out.hr10 || m.Ndcg(10) != out.ndcg10)) {
      out.passes_reproduce = false;
    }
    out.hr10 = m.HitRate(10);
    out.ndcg10 = m.Ndcg(10);
  } while (NowS() - start < seconds);
  return out;
}

std::map<std::string, double> LayerProbes(core::StisanModel& model,
                                          const WorkloadSpec& spec,
                                          const Population& pop) {
  std::map<std::string, double> m;
  NoGradGuard no_grad;
  model.SetTraining(false);
  const std::vector<Sequence> seqs = ProbeSequences(pop);
  const int64_t d = model.model_dim();
  const int64_t dh = 2 * d;  // StisanOptions::ffn_hidden = 0 -> 2d
  const auto& cands = pop.candidates;
  const auto m_cands = static_cast<int64_t>(cands.size());

  // ---- core: a cold IncrementalScorer::Sync of each probe history ----
  const int64_t window = spec.max_seq_len;
  core::IncrementalScorer engine(&model, window);
  std::vector<Sequence> windows;
  for (const Sequence& s : seqs) {
    if (s.pois.size() < 2) continue;
    const data::EvalInstance w = TrailingWindow(s.pois, s.times, window);
    windows.push_back({w.poi, w.t, s.next_poi});
  }
  m["core.incremental.sync_us"] =
      TimeEach("core.incremental_cold_sync", windows.size(), [&](size_t i) {
        auto state = engine.NewState();
        engine.Sync(*state, windows[i].pois, windows[i].times);
      });

  // The probes' sequence length: the median probe history (in its window).
  std::vector<size_t> lens;
  for (const Sequence& w : windows) lens.push_back(w.pois.size());
  std::nth_element(lens.begin(), lens.begin() + lens.size() / 2, lens.end());
  const auto n = static_cast<int64_t>(lens[lens.size() / 2]);

  // ---- core: batched scoring at the workload's batch shape ----
  std::vector<data::EvalInstance> batch_inputs;
  std::vector<std::vector<int64_t>> batch_cands;
  constexpr int64_t batch = 8;
  for (const Sequence& w : windows) {
    if (static_cast<int64_t>(w.pois.size()) < window) continue;
    batch_inputs.push_back(TrailingWindow(w.pois, w.times, window));
    batch_cands.push_back(cands);
  }
  if (batch_inputs.size() < static_cast<size_t>(batch)) {
    // No history reaches the serving window (serve_rerank): batch at the
    // median probe length instead.
    batch_inputs.clear();
    batch_cands.clear();
    for (const Sequence& w : windows) {
      if (static_cast<int64_t>(w.pois.size()) < n) continue;
      batch_inputs.push_back(TrailingWindow(w.pois, w.times, n));
      batch_cands.push_back(cands);
    }
  }
  const size_t num_batches = batch_inputs.size() / static_cast<size_t>(batch);
  const double batch_us =
      TimeEach("core.score_batch", num_batches, [&](size_t b) {
        std::vector<const data::EvalInstance*> ptrs;
        std::vector<std::vector<int64_t>> c;
        for (int64_t k = 0; k < batch; ++k) {
          const size_t idx = b * static_cast<size_t>(batch) + static_cast<size_t>(k);
          ptrs.push_back(&batch_inputs[idx]);
          c.push_back(batch_cands[idx]);
        }
        model.ScoreBatch(ptrs, c);
      });
  m["core.score_batch_us_per_instance"] = batch_us / double(batch);

  // ---- core: model stages at (n, M) = (median probe length, candidates) --
  std::vector<Sequence> staged;
  for (const Sequence& w : windows) {
    if (static_cast<int64_t>(w.pois.size()) < n) continue;
    const data::EvalInstance t = TrailingWindow(w.pois, w.times, n);
    staged.push_back({t.poi, t.t, 0});
  }
  m["core.probe_seq_len"] = double(n);
  Rng rng(17);
  const core::StisanOptions defaults;
  nn::Embedding poi_embedding(pop.dataset.num_pois() + 1, defaults.poi_dim, rng,
                              data::kPaddingPoi);
  core::GeoEncoder geo_encoder(pop.dataset, defaults.geo, rng);
  core::IaabOptions block_options;
  block_options.dim = d;
  block_options.ffn_hidden = dh;
  core::IntervalAwareAttentionBlock block(block_options, rng);
  block.SetTraining(false);
  std::vector<Tensor> embedded(staged.size()), biases(staged.size()),
      encoded(staged.size());
  const float scale = std::sqrt(static_cast<float>(d));
  m["core.embed_us"] = TimeEach("core.embed", staged.size(), [&](size_t i) {
    embedded[i] = ops::MulScalar(
        ops::Concat(poi_embedding.Forward(staged[i].pois),
                    geo_encoder.Forward(staged[i].pois), 1),
        scale);
  });
  m["core.tape_us"] = TimeEach("core.tape", staged.size(), [&](size_t i) {
    embedded[i] = core::ApplyTape(embedded[i], staged[i].times, 0);
  });
  m["core.relation_us"] = TimeEach("core.relation", staged.size(), [&](size_t i) {
    std::vector<geo::GeoPoint> coords;
    for (int64_t p : staged[i].pois) coords.push_back(pop.dataset.poi_location(p));
    biases[i] = core::SoftmaxScaleRelation(
        core::BuildRelationMatrix(staged[i].pois, staged[i].times, coords, 0,
                                  defaults.relation),
        0);
  });
  const Tensor mask = core::BuildPaddedCausalMask(n, 0);
  m["core.iaab_block_us"] = TimeEach("core.iaab_block", staged.size(), [&](size_t i) {
    encoded[i] = block.Forward(embedded[i], biases[i], mask, rng);
  });
  const Tensor cand_emb = ops::MulScalar(
      ops::Concat(poi_embedding.Forward(cands), geo_encoder.Forward(cands), 1),
      scale);
  const std::vector<int64_t> steps(cands.size(), n - 1);
  m["core.taad_us"] = TimeEach("core.taad", staged.size(), [&](size_t i) {
    core::MatchScores(core::TaadDecode(cand_emb, encoded[i], steps, 0), cand_emb);
  });
  m["core.iaab_block_gflops"] =
      double(nn::IaabBlockFlops(n, d, dh)) / (m["core.iaab_block_us"] * 1e3);
  m["core.taad_gflops"] =
      double(nn::LinearFlops(m_cands, d, n) + nn::LinearFlops(m_cands, n, d) +
             2 * m_cands * d) /
      (m["core.taad_us"] * 1e3);

  // ---- tensor: the serving GEMM shape [100,32] x [32,32] ----
  {
    constexpr int64_t kM = 100, kK = 32, kN = 32;
    Rng g(5);
    std::vector<float> a(kM * kK), b(kK * kN), c(kM * kN);
    for (float& x : a) x = g.UniformFloat(-1.0f, 1.0f);
    for (float& x : b) x = g.UniformFloat(-1.0f, 1.0f);
    constexpr int kReps = 400;
    m["tensor.gemm_us"] = TimeEach("tensor.gemm", 10, [&](size_t) {
                            for (int r = 0; r < kReps; ++r) {
                              kernels::Gemm(a.data(), b.data(), c.data(), kM, kK,
                                            kN, false, false, false);
                            }
                          }) /
                          kReps;
    m["tensor.gemm_flops"] = double(nn::LinearFlops(kM, kK, kN));
    m["tensor.gemm_bytes"] = double(sizeof(float) * (kM * kK + kK * kN + kM * kN));
  }

  // ---- geo: stage one at each probe history's latest check-in ----
  {
    std::vector<geo::GeoPoint> coords(pop.dataset.poi_coords.begin() + 1,
                                      pop.dataset.poi_coords.end());
    const geo::SpatialGridIndex index(std::move(coords), 2.0);
    geo::CandidatePoolOptions po;
    po.pool_size = spec.catalog_pool;
    const geo::CandidateGenerator gen(index, po);
    geo::SpatialGridIndex::QueryScratch scratch;
    std::vector<int64_t> pool;
    double pool_sum = 0.0;
    int64_t attempts = 0, hits = 0;
    m["geo.generate_us"] = TimeEach("geo.generate", seqs.size(), [&](size_t i) {
      const std::unordered_set<int64_t> visited(seqs[i].pois.begin(),
                                                seqs[i].pois.end());
      gen.Generate(pop.dataset.poi_location(seqs[i].pois.back()),
                   [&](int64_t id) { return !visited.contains(id + 1); },
                   &scratch, &pool);
      pool_sum += double(pool.size());
      if (seqs[i].next_poi != 0) {
        ++attempts;
        hits += std::find(pool.begin(), pool.end(), seqs[i].next_poi - 1) !=
                pool.end();
      }
    });
    m["geo.pool_size"] = pool_sum / double(seqs.size());
    m["geo.next_in_pool_rate"] = attempts > 0 ? double(hits) / double(attempts) : 0.0;
  }

  // ---- eval: candidate generation per test instance ----
  {
    const eval::CandidateGenerator cg(pop.dataset);
    m["eval.candidates_us_per_instance"] =
        TimeEach("eval.candidates", pop.split.test.size(), [&](size_t i) {
          cg.Candidates(pop.split.test[i], 100);
        });
  }
  return m;
}

}  // namespace perfbench
