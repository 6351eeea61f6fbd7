// Micro-benchmarks of the hot paths behind Fig. 13(b)'s time-consumption
// claim: phase unwrapping, system assembly, the LS/IRLS/RANSAC solves,
// the end-to-end LION localization, and the hologram cell scan they
// replace. The IRLS workload runs twice — method=legacy, the classic
// Matrix solve_irls allocating per call, and method=workspace, reusing one
// warm SolverWorkspace — so the cost of a cold solve is a first-class
// bench result (and the CI perf gate can watch it). RANSAC always solves
// in a workspace, so its one row reuses a warm one.
//
// Timing is a self-calibrating repetition loop on the shared Timer (no
// external benchmark framework): each workload is warmed once, then
// repeated until a fixed wall budget elapses, and the mean rate is
// reported. `--json <file>` additionally writes one lion.bench.v1 record
// per row.

#include <cstdio>
#include <cstring>
#include <vector>

#include "baseline/hologram.hpp"
#include "bench/common.hpp"
#include "core/lion.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/small.hpp"
#include "rf/phase_model.hpp"
#include "rf/rng.hpp"
#include "signal/unwrap.hpp"

using namespace lion;
using linalg::Vec3;

namespace {

// Defeats dead-code elimination: every workload folds some result into
// this sink, which is printed (as a checksum nobody reads) at the end.
double g_sink = 0.0;

signal::PhaseProfile make_profile(std::size_t n) {
  rf::Rng rng(1);
  const Vec3 target{0.1, 0.8, 0.0};
  signal::PhaseProfile p;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = -0.55 + 1.1 * static_cast<double>(i) /
                                 static_cast<double>(n - 1);
    for (double y : {0.0, -0.2}) {
      const Vec3 pos{x, y, 0.0};
      p.push_back({pos,
                   rf::distance_phase(linalg::distance(pos, target)) +
                       rng.gaussian(0.1),
                   0.0});
    }
  }
  return p;
}

/// Warm `fn` once, then repeat it until `budget_s` of wall time elapses;
/// returns executions per second.
template <typename Fn>
double ops_per_sec(Fn&& fn, double budget_s = 0.25) {
  fn();  // warm-up (first call pays cold caches / lazy allocations)
  std::size_t iters = 0;
  bench::Timer timer;
  do {
    fn();
    ++iters;
  } while (timer.seconds() < budget_s);
  return static_cast<double>(iters) / timer.seconds();
}

void report(bench::BenchReporter& reporter, const char* name,
            const char* method, double ops, double items_per_op = 0.0) {
  std::printf("%-18s %-10s %12.1f ops/s", name, method, ops);
  auto& row = reporter.row(name);
  row.tag("method", method).value("ops_per_s", ops);
  if (items_per_op > 0.0) {
    std::printf(" %14.0f items/s", ops * items_per_op);
    row.value("items_per_s", ops * items_per_op);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("micro_solvers", argc, argv);

  bench::banner("Micro-benchmarks: solver hot paths",
                "Fig. 13(b): LION's solve is a negligible slice of the "
                "pipeline; hologram scanning is not");
  std::printf("%-18s %-10s %16s\n", "workload", "method", "rate");

  {
    rf::Rng rng(2);
    std::vector<double> wrapped;
    for (int i = 0; i < 5000; ++i) {
      wrapped.push_back(rf::wrap_phase(0.13 * i + rng.gaussian(0.1)));
    }
    const double ops = ops_per_sec([&] {
      const auto u = signal::unwrap(wrapped);
      g_sink += u.back();
    });
    report(reporter, "unwrap", "-", ops, 5000.0);
  }

  for (std::size_t n : {std::size_t{256}, std::size_t{1024},
                        std::size_t{4096}}) {
    const auto profile = make_profile(n);
    const auto frame = core::analyze_frame(profile, 2);
    const auto pairs = core::ladder_pairs(profile, 0.2, 0.02);
    const double ops = ops_per_sec([&] {
      const auto sys = core::build_system(profile, frame, pairs,
                                          profile.size() / 2,
                                          rf::kDefaultWavelength);
      g_sink += sys.k.back();
    });
    char name[32];
    std::snprintf(name, sizeof(name), "build_system_%zu", n);
    report(reporter, name, "-", ops, static_cast<double>(pairs.size()));
  }

  // Shared solver workload: the 1024-point two-line system.
  const auto profile = make_profile(1024);
  const auto frame = core::analyze_frame(profile, 2);
  const auto pairs = core::ladder_pairs(profile, 0.2, 0.02);
  const auto sys = core::build_system(profile, frame, pairs,
                                      profile.size() / 2,
                                      rf::kDefaultWavelength);

  {
    const double ops = ops_per_sec([&] {
      g_sink += linalg::solve_least_squares(sys.a, sys.k).x[0];
    });
    report(reporter, "solve_ls", "legacy", ops);
  }

  {
    const double ops = ops_per_sec([&] {
      g_sink += linalg::solve_irls(sys.a, sys.k, {}).x[0];
    });
    report(reporter, "solve_irls", "legacy", ops);
    linalg::SolverWorkspace ws;
    linalg::LstsqResult out;
    const double ops_ws = ops_per_sec([&] {
      linalg::solve_irls(sys.a, sys.k, {}, ws, out);
      g_sink += out.x[0];
    });
    report(reporter, "solve_irls", "workspace", ops_ws);
  }

  {
    core::RansacOptions opt;
    linalg::SolverWorkspace ws;
    core::RansacResult out;
    const double ops = ops_per_sec([&] {
      core::ransac_solve(sys.a, sys.k, opt, ws, out);
      g_sink += out.solution.x[0];
    });
    report(reporter, "ransac_solve", "workspace", ops);
  }

  for (std::size_t n : {std::size_t{256}, std::size_t{1024},
                        std::size_t{4096}}) {
    const auto p = make_profile(n);
    core::LocalizerConfig cfg;
    cfg.target_dim = 2;
    cfg.pair_interval = 0.2;
    const core::LinearLocalizer localizer(cfg);
    const double ops = ops_per_sec([&] {
      g_sink += localizer.locate(p).position[0];
    });
    char name[32];
    std::snprintf(name, sizeof(name), "lion_locate2d_%zu", n);
    report(reporter, name, "-", ops);
  }

  {
    const auto p = make_profile(128);
    baseline::HologramConfig cfg;
    cfg.min_corner = {0.05, 0.75, 0.0};
    cfg.max_corner = {0.15, 0.85, 0.0};
    cfg.grid_size = 0.005;  // 21 x 21 cells
    cfg.augmented = false;
    std::size_t cells = 0;
    const double ops = ops_per_sec([&] {
      const auto r = baseline::locate_hologram(p, cfg);
      cells = r.cells;
      g_sink += r.position[0];
    });
    report(reporter, "hologram", "-", ops, static_cast<double>(cells));
  }

  std::printf("(checksum %g)\n", g_sink);
  return 0;
}
