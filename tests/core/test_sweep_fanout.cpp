// Differential fan-out suite: the adaptive sweep's cells may run on the
// caller alone, on real pool helpers, on helpers that never start, or on
// helpers that start only after the caller returned — and every variant
// must produce the same calibration bytes, down to each candidate cell.

#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "engine/pool_executor.hpp"
#include "engine/thread_pool.hpp"
#include "io/report_json.hpp"
#include "obs/obs.hpp"
#include "sim/scenario.hpp"

namespace lion {
namespace {

using linalg::Vec3;

constexpr Vec3 kPhysical{0.0, 0.8, 0.0};

/// The paper's three-line rig (Fig. 11) under a clean lab channel.
std::vector<sim::PhaseSample> rig_scan(std::uint64_t seed) {
  auto scenario = sim::Scenario::Builder{}
                      .environment(sim::EnvironmentKind::kLabClean)
                      .add_antenna(kPhysical)
                      .add_tag()
                      .seed(seed)
                      .build();
  sim::ThreeLineRig rig;
  rig.x_min = -0.55;
  rig.x_max = 0.55;
  return scenario.sweep(0, 0, rig.build());
}

/// One straight line: no 3D fix, so the sweep runs twice (3D, then 2D).
std::vector<sim::PhaseSample> line_scan(std::uint64_t seed) {
  auto scenario = sim::Scenario::Builder{}
                      .add_antenna(kPhysical)
                      .add_tag()
                      .seed(seed)
                      .build();
  return scenario.sweep(
      0, 0, sim::LinearTrajectory({-0.5, 0.0, 0.0}, {0.5, 0.0, 0.0}, 0.1));
}

/// Spawned tasks are kept until run_all() — which a test may call after
/// the sweep returned, or never (the destructor drops them unrun).
class DeferredExecutor : public core::SweepExecutor {
 public:
  explicit DeferredExecutor(std::size_t helpers) : helpers_(helpers) {}
  std::size_t helpers() const override { return helpers_; }
  void spawn(Task task) override { tasks_.push_back(std::move(task)); }
  std::size_t pending() const { return tasks_.size(); }
  void run_all() {
    for (auto& task : tasks_) task(&ws_);
    tasks_.clear();
  }

 private:
  std::size_t helpers_;
  std::vector<Task> tasks_;
  linalg::SolverWorkspace ws_;
};

/// Runs each task inside spawn(), before the caller claims anything.
class InlineExecutor : public core::SweepExecutor {
 public:
  std::size_t helpers() const override { return 1; }
  void spawn(Task task) override { task(&ws_); }

 private:
  linalg::SolverWorkspace ws_;
};

std::uint64_t counter(const char* name) {
  for (const auto& [n, v] :
       obs::MetricsRegistry::instance().snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

/// Every candidate cell, bit for bit (%a), plus the report bytes.
std::string fingerprint(const core::CalibrationReport& report) {
  std::string out = io::report_json(report);
  char buf[512];
  for (const auto& c : report.center.details.candidates) {
    const auto& r = c.result;
    std::snprintf(buf, sizeof buf,
                  "\n%a %a %d %zu %a %a %a %a %a %a %a %a", c.range,
                  c.interval, c.usable ? 1 : 0, r.equations, r.position[0],
                  r.position[1], r.position[2], r.reference_distance,
                  r.mean_residual, r.rms_residual, r.condition,
                  r.inlier_fraction);
    out += buf;
  }
  return out;
}

class SweepFanout : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_metrics_enabled(true); }
  void TearDown() override { obs::set_metrics_enabled(false); }

  /// Calibrate `samples` under every executor shape and expect each
  /// fingerprint to equal the no-executor oracle. Returns the oracle.
  core::CalibrationReport expect_identical_everywhere(
      const std::vector<sim::PhaseSample>& samples,
      const core::RobustCalibrationConfig& config = {}) {
    linalg::SolverWorkspace ws;
    const auto solve = [&](core::SweepExecutor* executor) {
      return core::calibrate_antenna_robust(samples, kPhysical, config, &ws,
                                            executor);
    };
    const core::CalibrationReport oracle = solve(nullptr);
    const std::string want = fingerprint(oracle);

    engine::ThreadPool pool(3);
    for (const std::size_t helpers : {1u, 3u}) {
      SCOPED_TRACE("pool helpers=" + std::to_string(helpers));
      engine::PoolSweepExecutor executor(pool, helpers);
      EXPECT_EQ(fingerprint(solve(&executor)), want);
    }
    {
      SCOPED_TRACE("helpers never run");
      DeferredExecutor never(3);
      EXPECT_EQ(fingerprint(solve(&never)), want);
      EXPECT_GT(never.pending(), 0u);
    }
    {
      SCOPED_TRACE("helpers run after the caller returned");
      const std::uint64_t offloaded = counter("adaptive.cells_offloaded");
      DeferredExecutor late(3);
      {
        // The late tasks must not need the scan, the config or the
        // caller's workspace: all of them are gone before the tasks run.
        const auto scan = samples;
        const core::RobustCalibrationConfig cfg = config;
        linalg::SolverWorkspace caller_ws;
        EXPECT_EQ(fingerprint(core::calibrate_antenna_robust(
                      scan, kPhysical, cfg, &caller_ws, &late)),
                  want);
      }
      late.run_all();
      EXPECT_EQ(counter("adaptive.cells_offloaded"), offloaded);
    }
    {
      SCOPED_TRACE("helper runs inside spawn");
      const std::uint64_t cells = counter("adaptive.cells");
      const std::uint64_t offloaded = counter("adaptive.cells_offloaded");
      InlineExecutor inline_exec;
      EXPECT_EQ(fingerprint(solve(&inline_exec)), want);
      // The helper starts before the caller claims, so it runs every cell.
      EXPECT_GT(counter("adaptive.cells"), cells);
      EXPECT_EQ(counter("adaptive.cells_offloaded") - offloaded,
                counter("adaptive.cells") - cells);
    }
    pool.wait_idle();
    return oracle;
  }
};

// One seed per test keeps each case well inside the per-test timeout
// under ThreadSanitizer.
class SweepFanoutRig : public SweepFanout,
                       public ::testing::WithParamInterface<std::uint64_t> {};

TEST_P(SweepFanoutRig, ScanIsByteIdenticalAcrossExecutors) {
  const auto oracle = expect_identical_everywhere(rig_scan(GetParam()));
  EXPECT_EQ(oracle.status, core::CalibrationStatus::kOk);
  EXPECT_EQ(oracle.center.details.candidates.size(), 36u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepFanoutRig, ::testing::Values(11, 12));

TEST_F(SweepFanout, PlanarFallbackIsByteIdenticalAcrossExecutors) {
  const auto oracle = expect_identical_everywhere(line_scan(13));
  EXPECT_EQ(oracle.status, core::CalibrationStatus::kDegraded2D);
}

TEST_F(SweepFanout, ThrowingCellsAreByteIdenticalAcrossExecutors) {
  // A 2 cm scanning range holds too few reads to pair at any interval:
  // those cells' solves throw and must come back marked unusable, in
  // their own slots, whichever thread ran them.
  core::RobustCalibrationConfig config;
  config.adaptive.ranges = {0.02, 0.6, 0.8, 1.0};
  const auto oracle = expect_identical_everywhere(rig_scan(14), config);
  ASSERT_EQ(oracle.status, core::CalibrationStatus::kOk);
  std::size_t threw = 0;
  for (const auto& c : oracle.center.details.candidates) {
    if (c.result.equations == 0) {
      EXPECT_FALSE(c.usable);
      ++threw;
    }
  }
  EXPECT_GT(threw, 0u);
}

TEST_F(SweepFanout, SaturatedPoolLeavesEveryCellToTheCaller) {
  // The pool's only worker is parked until the calibration is over, so
  // no helper can start: the caller must claim every cell and return
  // without waiting for one.
  engine::ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.submit([gate] { gate.wait(); });

  const auto scan = rig_scan(15);
  const auto oracle = core::calibrate_antenna_robust(scan, kPhysical);
  const std::uint64_t offloaded = counter("adaptive.cells_offloaded");
  engine::PoolSweepExecutor executor(pool, 3);
  const auto report = core::calibrate_antenna_robust(
      scan, kPhysical, {}, &engine::thread_workspace(), &executor);
  EXPECT_EQ(fingerprint(report), fingerprint(oracle));

  release.set_value();
  pool.wait_idle();  // the queued helpers start now, find nothing, leave
  EXPECT_EQ(counter("adaptive.cells_offloaded"), offloaded);
}

TEST_F(SweepFanout, LargestFirstClaimOrderKeepsCandidatesInCellOrder) {
  // Unsorted ranges and intervals make the claim order (largest window,
  // smallest interval first) differ from cell order everywhere. Candidates
  // must still come back in cell order and byte-identical with and
  // without an executor.
  core::RobustCalibrationConfig config;
  config.adaptive.ranges = {0.8, 1.1, 0.6, 1.0};
  config.adaptive.intervals = {0.30, 0.10, 0.20};
  const auto oracle = expect_identical_everywhere(rig_scan(16), config);
  ASSERT_EQ(oracle.status, core::CalibrationStatus::kOk);
  const auto& candidates = oracle.center.details.candidates;
  ASSERT_EQ(candidates.size(), 12u);
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    EXPECT_EQ(candidates[k].range, config.adaptive.ranges[k / 3]) << k;
    EXPECT_EQ(candidates[k].interval, config.adaptive.intervals[k % 3]) << k;
  }
}

}  // namespace
}  // namespace lion
