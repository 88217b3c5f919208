// Thread pool contracts: ParallelFor chunking, per-call waits and
// exceptions, and nesting. Every sanitizer preset runs this suite (label
// "pool"); each case has a ctest TIMEOUT, so a deadlock fails instead of
// hanging the run.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace stisan {
namespace {

// ---- ParallelFor chunking ----------------------------------------------------

TEST(ParallelForTest, ZeroIterationsNeverTouchesPool) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(pool, 0, [&called](int64_t) { called = true; });
  EXPECT_FALSE(called);
  ParallelFor(pool, -5, [&called](int64_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(pool.tasks_submitted(), 0u);
}

TEST(ParallelForTest, SingleIterationRunsInline) {
  // n=1 collapses to one chunk; it must execute on the calling thread, not
  // through the queue (avoids wakeup latency).
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  ParallelFor(pool, 1, [&ran_on](int64_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ParallelForTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int64_t> sum{0};
  bool off_thread = false;
  ParallelFor(pool, 100, [&](int64_t i) {
    if (std::this_thread::get_id() != caller) off_thread = true;
    sum += i;
  });
  EXPECT_FALSE(off_thread);
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

TEST(ParallelForTest, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  // Sizes around chunk boundaries: chunks = min(n, threads*4) = min(n, 16).
  for (int64_t n : {1, 2, 15, 16, 17, 257}) {
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    for (auto& h : hits) h = 0;
    ParallelFor(pool, n, [&hits](int64_t i) { hits[i]++; });
    for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(pool, 257, [&hits](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(pool, 0, [&called](int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, BodyExceptionRethrownOnCallingThread) {
  ThreadPool pool(4);
  // Throw at the last index of the last chunk so every index still runs;
  // other chunks are never cancelled.
  std::atomic<int64_t> visited{0};
  try {
    ParallelFor(pool, 64, [&visited](int64_t i) {
      visited++;
      if (i == 63) throw std::invalid_argument("bad index");
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "bad index");
  }
  EXPECT_EQ(visited.load(), 64);
  // Pool reusable afterwards.
  std::atomic<int64_t> sum{0};
  ParallelFor(pool, 10, [&sum](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelForTest, InlineChunkExceptionPropagatesDirectly) {
  // n=1 collapses to the inline path (no pool involvement): the exception
  // must still reach the caller.
  ThreadPool pool(2);
  EXPECT_THROW(
      ParallelFor(pool, 1, [](int64_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
}

// ---- Run: exceptions and reuse -------------------------------------------------

// Run is the call that waits for its tasks.
TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.Run(100, [&counter](int64_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Run(2, [&counter](int64_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 2);
  pool.Run(2, [&counter](int64_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 4);
}

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  // Run rethrows its task's exception once its tasks have drained, and the
  // pool stays usable.
  ThreadPool pool(2);
  try {
    pool.Run(2, [](int64_t i) {
      if (i == 0) throw std::runtime_error("boom");
    });
    FAIL() << "expected Run() to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  std::atomic<int> ran{0};
  pool.Run(2, [&ran](int64_t) { ran++; });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, AllTasksRunEvenWhenEveryOneThrows) {
  ThreadPool pool(4);
  std::atomic<int> started{0};
  // Only the first exception survives; the call must still count every
  // task done instead of hanging.
  EXPECT_THROW(pool.Run(32,
                        [&started](int64_t) {
                          started++;
                          throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  EXPECT_EQ(started.load(), 32);
  pool.Run(4, [](int64_t) {});  // drained and reusable
}

TEST(ThreadPoolTest, TaskCountersTrackSubmissions) {
  ThreadPool pool(2);
  const uint64_t submitted0 = pool.tasks_submitted();
  const uint64_t completed0 = pool.tasks_completed();
  pool.Run(8, [](int64_t) {});
  EXPECT_EQ(pool.tasks_submitted() - submitted0, 8u);
  EXPECT_EQ(pool.tasks_completed() - completed0, 8u);
  // A single call runs on the caller and is no pool task.
  pool.Run(1, [](int64_t) {});
  EXPECT_EQ(pool.tasks_submitted() - submitted0, 8u);
}

// ---- Run: per-call waits ---------------------------------------------------------

// Two threads drive one pool. A's first chunk throws at once and its second
// blocks until the test opens a gate; B's call must return while A's chunk
// is still blocked, without A's exception, and A must get its own.
TEST(ThreadPoolTest, ConcurrentCallersWaitOnlyForTheirOwnTasks) {
  ThreadPool pool(2);
  std::promise<void> gate;
  std::shared_future<void> gate_open = gate.get_future().share();
  std::atomic<int> a_started{0};
  std::string a_error;
  std::thread a([&] {
    try {
      ParallelFor(pool, 2, [&](int64_t i) {
        a_started++;
        if (i == 0) throw std::runtime_error("A");
        gate_open.wait();
      });
    } catch (const std::runtime_error& e) {
      a_error = e.what();
    }
  });
  while (a_started.load() < 2) std::this_thread::yield();

  std::atomic<int> b_ran{0};
  std::future<void> b = std::async(std::launch::async, [&] {
    ParallelFor(pool, 2, [&b_ran](int64_t) { b_ran++; });
  });
  const bool b_returned =
      b.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(b_returned) << "B waited for A's blocked task";
  gate.set_value();
  EXPECT_NO_THROW(b.get());
  a.join();
  EXPECT_EQ(b_ran.load(), 2);
  EXPECT_EQ(a_error, "A");
}

// Callers on several threads, half of whose tasks throw: each call sees
// exactly its own exception or none.
TEST(ThreadPoolTest, ConcurrentCallersGetOnlyTheirOwnExceptions) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  std::vector<int> wrong(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &wrong, c] {
      const std::string mine = "caller " + std::to_string(c);
      for (int r = 0; r < kRounds; ++r) {
        try {
          ParallelFor(pool, 8, [&](int64_t i) {
            if (c % 2 == 1 && i == 3) throw std::runtime_error(mine);
          });
          if (c % 2 == 1) ++wrong[c];  // lost its own exception
        } catch (const std::runtime_error& e) {
          if (c % 2 == 0 || e.what() != mine) ++wrong[c];
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(wrong[c], 0) << "caller " << c;
}

// ---- Nesting -------------------------------------------------------------------

TEST(ThreadPoolTest, RunTasksAreSerialRegions) {
  ThreadPool pool(4);
  EXPECT_FALSE(InSerialRegion());
  std::atomic<int> serial{0};
  pool.Run(8, [&serial](int64_t) {
    if (InSerialRegion()) serial++;
  });
  EXPECT_EQ(serial.load(), 8);
  // The inline path marks the caller for the call's duration only.
  pool.Run(1, [&serial](int64_t) {
    if (InSerialRegion()) serial++;
  });
  EXPECT_EQ(serial.load(), 9);
  EXPECT_FALSE(InSerialRegion());
}

// A task that reaches ParallelFor on its own pool runs it inline on its
// own thread instead of queueing behind itself.
TEST(ThreadPoolTest, NestedParallelForRunsOnTheTaskThread) {
  ThreadPool pool(2);
  std::atomic<int> off_thread{0};
  std::atomic<int> visited{0};
  ParallelFor(pool, 4, [&](int64_t) {
    const std::thread::id task = std::this_thread::get_id();
    ParallelFor(pool, 64, [&](int64_t) {
      if (std::this_thread::get_id() != task) off_thread++;
      visited++;
    });
  });
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(visited.load(), 4 * 64);
}

// ParallelFor tasks on the global pool whose kernels are large enough to
// split (above ParallelMinWork) must run those kernels inline: a worker
// that submitted to its own pool and waited could wait for itself.
TEST(ThreadPoolTest, KernelsInsideGlobalPoolTasksRunInline) {
  kernels::SetNumThreads(4);
  const int64_t submitted_before = static_cast<int64_t>(
      kernels::GlobalPool().tasks_submitted());
  constexpr int64_t kTasks = 8;
  const int64_t n = 2 * kernels::ParallelMinWork();
  std::vector<int64_t> covered(kTasks, 0);
  ParallelFor(kernels::GlobalPool(), kTasks, [&](int64_t t) {
    const std::thread::id task = std::this_thread::get_id();
    kernels::ParallelRanges(n, 1, [&](int64_t begin, int64_t end) {
      EXPECT_EQ(std::this_thread::get_id(), task);
      covered[static_cast<size_t>(t)] += end - begin;
    });
  });
  for (int64_t t = 0; t < kTasks; ++t) EXPECT_EQ(covered[t], n) << t;
  // Only ParallelFor's own chunks went through the pool.
  EXPECT_LE(static_cast<int64_t>(kernels::GlobalPool().tasks_submitted()) -
                submitted_before,
            kTasks);
  kernels::SetNumThreads(1);
}

}  // namespace
}  // namespace stisan
