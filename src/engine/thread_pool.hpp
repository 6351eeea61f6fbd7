// Fixed-size work-stealing thread pool — the execution substrate of the
// batch calibration engine.
//
// Design constraints, in order:
//  1. *Determinism of the work itself*: the pool never reorders a task's
//     side effects relative to another task's — tasks must be independent,
//     and the engine guarantees that by giving each job its own output
//     slot and its own RNG seed. The pool only decides *where/when* a task
//     runs, never *what* it computes.
//  2. *No deadlocks on teardown*: the destructor drains nothing — it stops
//     accepting work, wakes every worker, and joins. wait_idle() is the
//     explicit barrier for callers that need completion.
//  3. *Work stealing*: submissions are distributed round-robin across
//     per-worker deques; an idle worker first drains its own deque
//     (LIFO, cache-friendly) and then steals from its siblings' opposite
//     end (FIFO, contention-friendly).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lion::engine {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawn `threads` workers. Throws std::invalid_argument on 0: callers
  /// pass explicit counts, so 0 is a caller bug.
  explicit ThreadPool(std::size_t threads);

  /// Stops accepting work, wakes all workers, joins. Tasks already
  /// submitted but not yet started are abandoned (the batch engine always
  /// wait_idle()s before destruction; a serve pool may still hold sweep
  /// helpers, which are safe to drop unrun).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Thread-safe, including from worker threads: a serve
  /// solve submits its sweep helpers (engine/pool_executor.hpp) from the
  /// worker running it. A nested task counts as pending before its
  /// submitter finishes, so wait_idle() waits for it too. Tasks must not
  /// throw — a throwing task is caught, counted, and dropped so one bad
  /// job can never take the pool down.
  void submit(Task task);

  /// Block until every submitted task has finished running.
  void wait_idle();

  std::size_t thread_count() const { return workers_.size(); }

  /// Tasks that ran on a worker other than the one they were assigned to
  /// (diagnostic; proves stealing actually happens under imbalance).
  std::size_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Tasks whose invocation threw (caught and swallowed by the pool).
  std::size_t exception_count() const {
    return task_exceptions_.load(std::memory_order_relaxed);
  }

 private:
  // One mutex-guarded deque per worker. A lock-free Chase-Lev deque would
  // shave nanoseconds that calibration jobs (~10^7 ns each) cannot feel;
  // the mutexed deque is trivially correct under ASan/TSan.
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t self);
  bool try_take(std::size_t self, Task& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;   ///< workers sleep here when starved
  std::condition_variable idle_cv_;   ///< wait_idle() sleeps here

  std::atomic<std::size_t> pending_{0};  ///< submitted but not finished
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::size_t> steals_{0};
  std::atomic<std::size_t> task_exceptions_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace lion::engine
