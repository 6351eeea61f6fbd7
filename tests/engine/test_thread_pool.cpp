// ThreadPool: execution, idle barrier, stealing, exception containment,
// and teardown — the properties the batch engine's determinism and
// liveness rest on.

#include "engine/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace lion::engine {
namespace {

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, SingleThreadRunsEachTaskExactlyOnce) {
  // Execution *order* is deliberately unspecified (the owner pops its queue
  // LIFO, so a backed-up single worker runs late submissions first); the
  // engine's determinism rests only on each task running exactly once. The
  // unsynchronized vector doubles as a race detector: with one worker,
  // tasks never overlap, so plain push_back is safe.
  ThreadPool pool(1);
  std::vector<int> ran;
  for (int i = 0; i < 64; ++i) {
    pool.submit([&ran, i] { ran.push_back(i); });
  }
  pool.wait_idle();
  ASSERT_EQ(ran.size(), 64u);
  std::vector<int> sorted = ran;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ThreadPool, WaitIdleIsABarrier) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // no tasks ever submitted
  SUCCEED();
}

TEST(ThreadPool, StealsFromABlockedWorkersQueue) {
  // Pin worker A in a task that cannot finish until 8 follow-up tasks have
  // run. Round-robin assignment puts half of those follow-ups in A's own
  // queue — the test only terminates if worker B steals them. A pool
  // without stealing deadlocks here (and is killed by the ctest timeout).
  ThreadPool pool(2);
  std::atomic<int> followups{0};
  std::atomic<bool> blocker_started{false};
  pool.submit([&] {
    blocker_started.store(true);
    while (followups.load(std::memory_order_acquire) < 8) {
      std::this_thread::yield();
    }
  });
  while (!blocker_started.load()) std::this_thread::yield();
  for (int i = 0; i < 8; ++i) {
    pool.submit([&followups] {
      followups.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(followups.load(), 8);
  EXPECT_GE(pool.steal_count(), 1u);
}

TEST(ThreadPool, TaskExceptionIsContained) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  pool.submit([] { throw 42; });  // non-std exception too
  for (int i = 0; i < 10; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(pool.exception_count(), 2u);
  // The pool is still alive and accepts more work.
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPool, DestructorJoinsWithoutHanging) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 6; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      });
    }
    // No wait_idle: destructor must stop cleanly regardless of progress.
  }
  // Whatever ran, ran fully; nothing crashed or deadlocked.
  EXPECT_LE(ran.load(), 6);
}

TEST(ThreadPool, ManyWaitIdleCyclesReuseTheSamePool) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.submit([&total] { total.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(total.load(), (round + 1) * 50);
  }
}

TEST(ThreadPool, WaitIdleCoversTasksSubmittedFromWorkers) {
  // Sweep helpers are submitted from inside a running task. A child is
  // counted as pending before its parent finishes, so wait_idle() cannot
  // slip through between the two — on one worker (the child lands in the
  // submitter's own queue) or several.
  for (const std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    for (int i = 0; i < 4; ++i) {
      pool.submit([&pool, &ran] {
        for (int c = 0; c < 3; ++c) {
          pool.submit([&pool, &ran] {
            pool.submit([&ran] { ran.fetch_add(1); });
            ran.fetch_add(1);
          });
        }
        ran.fetch_add(1);
      });
    }
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 4 + 4 * 3 + 4 * 3) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace lion::engine
