// The serving layer's bridge to the core adaptive sweep: a
// core::SweepExecutor over ThreadPool, and the one per-thread solver
// workspace every serve solve on a thread shares.
#pragma once

#include <cstddef>

#include "core/adaptive.hpp"
#include "engine/thread_pool.hpp"
#include "linalg/small.hpp"

namespace lion::engine {

/// The calling thread's solver scratch for serve solves. One per thread,
/// shared by every solve the thread runs — whole calibrations, restore
/// replays and sweep cells it helps with alike — so a serve pool worker
/// keeps exactly one warm workspace.
linalg::SolverWorkspace& thread_workspace();

/// Sweep helpers as pool submissions, each running on its worker's
/// thread_workspace(). Submitted tasks never reference the executor, so
/// it can live on the stack of the solve that uses it.
class PoolSweepExecutor final : public core::SweepExecutor {
 public:
  PoolSweepExecutor(ThreadPool& pool, std::size_t helpers)
      : pool_(pool), helpers_(helpers) {}

  std::size_t helpers() const override { return helpers_; }
  void spawn(Task task) override;

 private:
  ThreadPool& pool_;
  std::size_t helpers_;
};

}  // namespace lion::engine
