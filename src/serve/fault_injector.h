// Fault-injection hooks for the serving runtime, in the spirit of
// util::FaultInjectionEnv (io_env.h): tests install a declarative plan and
// the service calls back at well-defined points of its sequencing pass, on
// the worker/pump thread in op arrival order — so which request a period
// hits does not depend on how the execution pass schedules scores.
//
// Injectable faults:
//   - scorer throws: every Nth incremental or cold-start score op raises
//     ServeFaultError while it is sequenced, exercising the worker's
//     exception barrier — the affected request must resolve with kInternal
//     and the service must keep serving. Scores past the serving window
//     and scores from non-STiSAN models do not reach this hook;
//   - forced evictions: every Nth score first drops the serving user's
//     resident cache state (history kept), forcing a mid-batch cold
//     rebuild that must stay bit-identical;
//   - injected latency: a fixed delay before each dequeued batch is
//     processed, inflating queue wait so deadline/shed paths trigger
//     under test control.
//
// All counters are atomics: the plan is installed from the test thread
// before load is applied, hooks run on the worker (or Pump) thread, and
// tests read the counters after Drain()/shutdown.

#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>

namespace stisan::serve {

/// Exception raised by injected scorer faults. Deliberately derived
/// from std::runtime_error: the service's barrier must not special-case
/// it — any std::exception escaping the scoring path gets the same
/// kInternal treatment.
struct ServeFaultError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Declarative fault plan. A zero period disables that fault; period k
/// fires on the k-th, 2k-th, ... occurrence since SetPlan().
struct ServeFaultPlan {
  /// Throw ServeFaultError from the scoring path on every Nth score op.
  int64_t throw_every_scores = 0;
  /// Force-evict the serving user's cache state before every Nth score.
  int64_t evict_every_scores = 0;
  /// Sleep this long before processing each dequeued batch.
  int64_t batch_latency_us = 0;
};

class ServeFaultInjector {
 public:
  ServeFaultInjector() = default;

  /// Installs a new plan and resets all occurrence counters.
  void SetPlan(const ServeFaultPlan& plan);
  const ServeFaultPlan& plan() const { return plan_; }

  // ---- Hooks (called by RecommendService's sequencing pass) ----

  /// Called once per dequeued batch, before any op is applied. Sleeps
  /// plan().batch_latency_us.
  void OnBatchDequeued();

  /// Called before a score op is served. Returns true when the plan wants
  /// the user's cache state force-evicted first.
  bool ShouldEvictBeforeScore();

  /// Called while an incremental or cold-start score is sequenced, before
  /// it is recorded or answered; throws ServeFaultError when the plan's
  /// score-throw period fires.
  void MaybeThrowOnScore();

  // ---- Counters (read by tests after Drain()/shutdown) ----

  int64_t scores_seen() const { return scores_seen_.load(); }
  int64_t score_throws() const { return score_throws_.load(); }
  int64_t forced_evictions() const { return forced_evictions_.load(); }

 private:
  ServeFaultPlan plan_;
  std::atomic<int64_t> scores_seen_{0};
  std::atomic<int64_t> evict_clock_{0};
  std::atomic<int64_t> score_throws_{0};
  std::atomic<int64_t> forced_evictions_{0};
};

}  // namespace stisan::serve
