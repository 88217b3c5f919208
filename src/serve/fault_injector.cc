#include "serve/fault_injector.h"

#include <chrono>
#include <thread>

namespace stisan::serve {

void ServeFaultInjector::SetPlan(const ServeFaultPlan& plan) {
  plan_ = plan;
  scores_seen_.store(0);
  evict_clock_.store(0);
  score_throws_.store(0);
  forced_evictions_.store(0);
}

void ServeFaultInjector::OnBatchDequeued() {
  if (plan_.batch_latency_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(plan_.batch_latency_us));
  }
}

bool ServeFaultInjector::ShouldEvictBeforeScore() {
  const int64_t n = evict_clock_.fetch_add(1) + 1;
  if (plan_.evict_every_scores <= 0 || n % plan_.evict_every_scores != 0) {
    return false;
  }
  forced_evictions_.fetch_add(1);
  return true;
}

void ServeFaultInjector::MaybeThrowOnScore() {
  const int64_t n = scores_seen_.fetch_add(1) + 1;
  if (plan_.throw_every_scores <= 0 || n % plan_.throw_every_scores != 0) {
    return;
  }
  score_throws_.fetch_add(1);
  throw ServeFaultError("injected scorer fault");
}

}  // namespace stisan::serve
