#include "engine/batch.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "engine/thread_pool.hpp"
#include "linalg/small.hpp"
#include "obs/obs.hpp"
#include "sim/scenario.hpp"
#include "sim/trajectory.hpp"

namespace lion::engine {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

std::uint64_t job_seed(std::uint64_t id) {
  // splitmix64: adjacent job ids map to decorrelated seeds, so job 0 and
  // job 1 never sample overlapping consensus subsets.
  std::uint64_t z = id + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

CalibrationJob make_calibration_job(std::uint64_t id,
                                    std::vector<sim::PhaseSample> samples,
                                    const Vec3& physical_center,
                                    core::RobustCalibrationConfig config) {
  CalibrationJob job;
  job.id = id;
  job.samples = std::move(samples);
  job.physical_center = physical_center;
  job.config = std::move(config);
  job.config.adaptive.base.ransac.seed = job_seed(id);
  return job;
}

std::size_t BatchResult::succeeded() const {
  std::size_t n = 0;
  for (const auto& r : results) {
    if (r.report.ok()) ++n;
  }
  return n;
}

BatchEngine::BatchEngine(BatchEngineOptions options) {
  threads_ = options.threads;
  if (threads_ == 0) {
    threads_ = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
}

BatchResult BatchEngine::run(const std::vector<CalibrationJob>& jobs) const {
  BatchResult out;
  out.results.resize(jobs.size());
  out.stats.jobs = jobs.size();
  out.stats.threads = threads_;
  if (jobs.empty()) return out;

  const auto batch_start = Clock::now();
  {
    ThreadPool pool(threads_);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // Each task touches only jobs[i] (const) and results[i] (its own
      // slot) — the no-shared-mutable-state leg of the determinism
      // contract.
      pool.submit([&jobs, &out, i, batch_start] {
        const CalibrationJob& job = jobs[i];
        JobResult& slot = out.results[i];
        slot.id = job.id;
        LION_OBS_SPAN_TAGGED(obs::Stage::kJob, job.id);
        // One solver workspace per pool thread: after the first job warms
        // it, the per-job RANSAC/IRLS core stops allocating. Safe because
        // a task runs on exactly one worker and never shares the
        // workspace (results are workspace-independent anyway). No sweep
        // executor: the jobs themselves already fill every worker.
        thread_local linalg::SolverWorkspace solver_ws;
        try {
          slot.report = job.work
                            ? job.work(job)
                            : core::calibrate_antenna_robust(
                                  job.samples, job.physical_center, job.config,
                                  &solver_ws);
        } catch (const std::exception& e) {
          slot.threw = true;
          slot.error = e.what();
          slot.report = core::CalibrationReport{};
          slot.report.status = core::CalibrationStatus::kSolverFailure;
          slot.report.diagnostics.message =
              std::string("job raised: ") + e.what();
        } catch (...) {
          slot.threw = true;
          slot.error = "unknown exception";
          slot.report = core::CalibrationReport{};
          slot.report.status = core::CalibrationStatus::kSolverFailure;
          slot.report.diagnostics.message = "job raised: unknown exception";
        }
        slot.latency_s = seconds_between(batch_start, Clock::now());
      });
    }
    pool.wait_idle();
    out.stats.steals = pool.steal_count();
  }
  out.stats.wall_s = seconds_between(batch_start, Clock::now());
  out.stats.throughput_jps =
      out.stats.wall_s > 0.0 ? jobs.size() / out.stats.wall_s : 0.0;

  out.stats.latency = obs::HistogramData(obs::duration_bounds());
  for (const auto& r : out.results) {
    out.stats.latency.record(r.latency_s);
    const auto idx = static_cast<std::size_t>(r.report.status);
    if (idx < out.stats.status_histogram.size()) {
      ++out.stats.status_histogram[idx];
    }
    if (r.threw) ++out.stats.exceptions;
  }
  out.stats.latency_mean_s = out.stats.latency.mean();
  out.stats.latency_p50_s = out.stats.latency.percentile(50.0);
  out.stats.latency_p95_s = out.stats.latency.percentile(95.0);
  out.stats.latency_p99_s = out.stats.latency.percentile(99.0);

  LION_OBS_COUNT("engine.jobs", jobs.size());
  LION_OBS_COUNT("engine.steals", out.stats.steals);
  LION_OBS_COUNT("engine.exceptions", out.stats.exceptions);
  return out;
}

std::vector<CalibrationJob> make_simulated_batch(
    const SimulatedBatchSpec& spec) {
  std::vector<CalibrationJob> jobs;
  jobs.reserve(spec.jobs);
  for (std::size_t i = 0; i < spec.jobs; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    const Vec3 physical{0.0, spec.antenna_depth, 0.0};
    // Each job gets its own antenna unit (own displacement/offset quirks)
    // and its own sim seed, both derived from the job id — two batches
    // with the same spec are sample-for-sample identical.
    auto scenario =
        sim::Scenario::Builder{}
            .environment(spec.environment)
            .add_antenna(rf::make_antenna(
                physical, static_cast<std::uint32_t>(id & 0xFFFFFFFFULL)))
            .add_tag()
            .seed(spec.base_seed ^ job_seed(id))
            .build();
    sim::ThreeLineRig rig;
    rig.x_min = -spec.rig_half_span;
    rig.x_max = spec.rig_half_span;
    auto samples = scenario.sweep(0, 0, rig.build());
    jobs.push_back(make_calibration_job(id, std::move(samples), physical,
                                        spec.config));
  }
  return jobs;
}

}  // namespace lion::engine
