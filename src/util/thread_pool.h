// A minimal fixed-size thread pool with a ParallelFor convenience. The
// kernel backend splits large ops across it, evaluation generates
// candidates on it, batched scoring runs one sub-batch per thread on it,
// and the serving runtime runs one task per user on it.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stisan {

/// True on a thread whose parallel calls must run inline: every pool
/// worker, and a thread while ThreadPool::Run executes its calls inline. A
/// pool task that waited on a pool could be waiting on itself.
bool InSerialRegion();

/// Fixed worker pool. Not copyable.
///
/// Work enters through Run (or ParallelFor on top of it). Each call waits
/// only for its own tasks and rethrows only its own first exception, so
/// several threads may drive one pool at once. A throwing task never
/// reaches std::terminate, and the call's other tasks still run.
class ThreadPool {
 public:
  /// `threads` = 0 uses the hardware concurrency (at least 1).
  explicit ThreadPool(int64_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs task(i) for each i in [0, n) and blocks until these n calls have
  /// finished. If any call throws, the others still run, and the first
  /// exception is rethrown here. Every call runs single-threaded: nested
  /// ParallelFor and kernels::ParallelRanges calls inside it run inline.
  /// Each call is one pool task, except that with n == 1, a one-thread
  /// pool, or a caller inside a serial region the calls run in order on
  /// the calling thread.
  void Run(int64_t n, const std::function<void(int64_t)>& task);

  int64_t num_threads() const {
    return static_cast<int64_t>(workers_.size());
  }

  /// Lifetime totals of pool tasks enqueued / finished (calls Run makes
  /// inline are not counted), for observability snapshots. Relaxed reads;
  /// exact once the pool is quiescent.
  uint64_t tasks_submitted() const {
    return tasks_submitted_.load(std::memory_order_relaxed);
  }
  uint64_t tasks_completed() const {
    return tasks_completed_.load(std::memory_order_relaxed);
  }

 private:
  // One Run call's bookkeeping; lives on the calling thread's stack.
  struct Batch {
    const std::function<void(int64_t)>* task;
    int64_t remaining;               // guarded by mutex_
    std::exception_ptr first_error;  // guarded by mutex_
  };
  struct Item {
    Batch* batch;
    int64_t index;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<Item> items_;
  std::mutex mutex_;
  std::condition_variable item_available_;
  std::condition_variable batch_done_;
  bool shutdown_ = false;
  std::atomic<uint64_t> tasks_submitted_{0};
  std::atomic<uint64_t> tasks_completed_{0};
};

/// Runs fn(i) for i in [0, n) across the pool in at most 4 chunks per
/// thread; blocks until done. fn must be safe to call concurrently for
/// distinct i. The chunks are one ThreadPool::Run call, so its inline rule
/// applies: one chunk, a one-thread pool, or a caller inside a serial
/// region runs them in order on the calling thread. If any fn(i) throws,
/// the other chunks still run, and the first exception is rethrown here on
/// the calling thread.
void ParallelFor(ThreadPool& pool, int64_t n,
                 const std::function<void(int64_t)>& fn);

}  // namespace stisan
