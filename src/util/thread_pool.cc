#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace stisan {

namespace {

thread_local bool tl_serial = false;

// Marks the calling thread serial while alive and restores the previous
// mark, so a throwing call cannot leave it stuck.
class SerialScope {
 public:
  SerialScope() : previous_(std::exchange(tl_serial, true)) {}
  ~SerialScope() { tl_serial = previous_; }
  SerialScope(const SerialScope&) = delete;
  SerialScope& operator=(const SerialScope&) = delete;

 private:
  bool previous_;
};

}  // namespace

bool InSerialRegion() { return tl_serial; }

ThreadPool::ThreadPool(int64_t threads) {
  if (threads <= 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(static_cast<size_t>(threads));
  for (int64_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  item_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Run(int64_t n, const std::function<void(int64_t)>& task) {
  if (n <= 0) return;
  if (n == 1 || workers_.size() <= 1 || InSerialRegion()) {
    const SerialScope serial;
    std::exception_ptr first_error;
    for (int64_t i = 0; i < n; ++i) {
      try {
        task(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  Batch batch{&task, n, nullptr};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int64_t i = 0; i < n; ++i) items_.push_back({&batch, i});
  }
  tasks_submitted_.fetch_add(static_cast<uint64_t>(n),
                             std::memory_order_relaxed);
  if (n >= num_threads()) {
    item_available_.notify_all();
  } else {
    for (int64_t i = 0; i < n; ++i) item_available_.notify_one();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  batch_done_.wait(lock, [&batch] { return batch.remaining == 0; });
  if (batch.first_error) {
    std::exception_ptr error = std::move(batch.first_error);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::WorkerLoop() {
  tl_serial = true;
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      item_available_.wait(lock,
                           [this] { return shutdown_ || !items_.empty(); });
      if (items_.empty()) return;  // shutting down with nothing left
      item = items_.front();
      items_.pop_front();
    }
    // An escaping exception would std::terminate the worker; hand it to
    // the Run call that owns the task instead, and count the task done
    // either way so that call never waits forever.
    std::exception_ptr error;
    try {
      (*item.batch->task)(item.index);
    } catch (...) {
      error = std::current_exception();
    }
    tasks_completed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    Batch& batch = *item.batch;
    if (error && !batch.first_error) batch.first_error = std::move(error);
    // The caller may return as soon as the lock drops: touch nothing of
    // the batch after this.
    if (--batch.remaining == 0) batch_done_.notify_all();
  }
}

void ParallelFor(ThreadPool& pool, int64_t n,
                 const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;  // nothing to do; never touch the pool
  // Chunk to limit queue churn; Run decides whether the chunks go inline.
  const int64_t chunks = std::min<int64_t>(n, pool.num_threads() * 4);
  const int64_t per_chunk = (n + chunks - 1) / chunks;
  pool.Run((n + per_chunk - 1) / per_chunk, [n, per_chunk, &fn](int64_t c) {
    const int64_t end = std::min(n, (c + 1) * per_chunk);
    for (int64_t i = c * per_chunk; i < end; ++i) fn(i);
  });
}

}  // namespace stisan
