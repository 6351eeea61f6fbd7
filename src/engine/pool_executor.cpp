#include "engine/pool_executor.hpp"

#include <utility>

namespace lion::engine {

linalg::SolverWorkspace& thread_workspace() {
  thread_local linalg::SolverWorkspace ws;
  return ws;
}

void PoolSweepExecutor::spawn(Task task) {
  pool_.submit([task = std::move(task)] { task(&thread_workspace()); });
}

}  // namespace lion::engine
