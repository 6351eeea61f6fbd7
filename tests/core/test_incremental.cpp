// Conformance suite for the incremental per-session solver.
//
// Three layers of proof, matching the module's contract:
//   1. Metamorphic kernel properties of linalg::IncrementalNormals — the
//      rank-1 update/downdate must round-trip (1e-12), be row-order
//      invariant, and match fresh accumulation across window slides.
//   2. Differential properties of core::IncrementalTrackSolver — the
//      maintained normal equations must match a fresh batch accumulation
//      over the currently included rows (1e-12 after pure append /
//      retire, 1e-9 across rebuild boundaries), across >= 200 seeded
//      append/retire/tick interleavings; ticking is pure (bit-identical
//      on repeat); degenerate windows trip the fallback gate.
//   3. Warm-started RANSAC — an empty prior is bit-identical to the cold
//      solver; a good prior still finds the consensus.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental.hpp"
#include "core/ransac.hpp"
#include "linalg/small.hpp"
#include "rf/constants.hpp"
#include "rf/phase_model.hpp"
#include "sim/reader.hpp"

namespace lion {
namespace {

using core::IncrementalTrackConfig;
using core::IncrementalTrackSolver;
using linalg::IncrementalNormals;
using linalg::Vec3;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

struct RawRow {
  double a[2];
  double k;
};

std::vector<RawRow> random_rows(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<RawRow> rows(n);
  for (auto& r : rows) {
    r.a[0] = u(rng);
    r.a[1] = u(rng);
    r.k = u(rng);
  }
  return rows;
}

// `tol` is relative: each entry is compared within tol * (1 + |want|),
// since Gram magnitudes scale with the row count.
void expect_normals_near(const IncrementalNormals& got,
                         const IncrementalNormals& want, double tol) {
  ASSERT_EQ(got.cols(), want.cols());
  ASSERT_EQ(got.rows(), want.rows());
  const auto near = [tol](double g, double w) {
    return std::abs(g - w) <= tol * (1.0 + std::abs(w));
  };
  const std::size_t packed = got.cols() * (got.cols() + 1) / 2;
  for (std::size_t i = 0; i < packed; ++i) {
    EXPECT_TRUE(near(got.gram_packed()[i], want.gram_packed()[i]))
        << "gram entry " << i << ": " << got.gram_packed()[i] << " vs "
        << want.gram_packed()[i];
  }
  for (std::size_t i = 0; i < got.cols(); ++i) {
    EXPECT_TRUE(near(got.rhs()[i], want.rhs()[i]))
        << "rhs entry " << i << ": " << got.rhs()[i] << " vs "
        << want.rhs()[i];
  }
  EXPECT_TRUE(near(got.rhs_squared_sum(), want.rhs_squared_sum()))
      << got.rhs_squared_sum() << " vs " << want.rhs_squared_sum();
}

/// Synthetic conveyor stream: a tag riding the belt past a fixed antenna,
/// exact Eq. (1) phases (no hardware offsets — they cancel in the deltas
/// anyway) plus optional Gaussian phase noise.
struct StreamParams {
  Vec3 antenna{0.0, 0.0, 0.0};
  Vec3 belt_dir{1.0, 0.0, 0.0};
  double belt_speed = 1.0;        // [m/s]
  double read_rate = 100.0;       // [Hz]
  Vec3 tag_start{-1.0, 0.6, 0.0}; // position at t = 0
  double wavelength = rf::kDefaultWavelength;
  double phase_noise = 0.0;       // [rad]
};

std::vector<sim::PhaseSample> make_stream(std::size_t n,
                                          const StreamParams& p,
                                          std::uint64_t seed = 1) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  std::vector<sim::PhaseSample> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / p.read_rate;
    const Vec3 pos = p.tag_start + (p.belt_speed * t) * p.belt_dir;
    const double d = (pos - p.antenna).norm();
    double phase = rf::distance_phase(d, p.wavelength);
    if (p.phase_noise > 0.0) phase += p.phase_noise * noise(rng);
    out[i].t = t;
    out[i].position = pos;
    out[i].phase = rf::wrap_phase(phase);
  }
  return out;
}

IncrementalTrackConfig config_for(const StreamParams& p) {
  IncrementalTrackConfig cfg;
  cfg.antenna_phase_center = p.antenna;
  cfg.belt_direction = p.belt_dir;
  cfg.belt_speed = p.belt_speed;
  cfg.wavelength = p.wavelength;
  cfg.side_hint = p.tag_start;  // pick the true perpendicular sign
  return cfg;
}

Vec3 tag_position_at(const StreamParams& p, double t) {
  return p.tag_start + (p.belt_speed * t) * p.belt_dir;
}

// ---------------------------------------------------------------------------
// 1. IncrementalNormals metamorphic kernel properties
// ---------------------------------------------------------------------------

TEST(IncrementalNormals, ResetValidatesColumnCount) {
  IncrementalNormals n;
  EXPECT_THROW(n.reset(0), std::invalid_argument);
  EXPECT_THROW(n.reset(linalg::kSmallMaxCols + 1), std::invalid_argument);
  n.reset(2);
  EXPECT_EQ(n.cols(), 2u);
  EXPECT_TRUE(n.empty());
}

TEST(IncrementalNormals, AppendThenDowndateRoundTripsToPriorGram) {
  const auto base = random_rows(40, 11);
  const auto extra = random_rows(16, 12);
  IncrementalNormals n;
  n.reset(2);
  for (const auto& r : base) n.append(r.a, r.k);

  IncrementalNormals before = n;  // value copy: the prior Gram
  for (const auto& r : extra) n.append(r.a, r.k);
  for (const auto& r : extra) n.downdate(r.a, r.k);

  expect_normals_near(n, before, 1e-12);
}

TEST(IncrementalNormals, RowShuffleLeavesSolutionInvariant) {
  auto rows = random_rows(64, 21);
  IncrementalNormals fwd;
  fwd.reset(2);
  for (const auto& r : rows) fwd.append(r.a, r.k);

  std::mt19937_64 rng(22);
  std::shuffle(rows.begin(), rows.end(), rng);
  IncrementalNormals shuffled;
  shuffled.reset(2);
  for (const auto& r : rows) shuffled.append(r.a, r.k);

  double xf[2], xs[2];
  ASSERT_TRUE(fwd.solve(xf));
  ASSERT_TRUE(shuffled.solve(xs));
  EXPECT_NEAR(xf[0], xs[0], 1e-12);
  EXPECT_NEAR(xf[1], xs[1], 1e-12);
  EXPECT_NEAR(fwd.rms(xf), shuffled.rms(xs), 1e-12);
}

TEST(IncrementalNormals, WindowSlideEqualsFreshReaccumulation) {
  const auto rows = random_rows(200, 31);
  const std::size_t window = 48;
  IncrementalNormals live;
  live.reset(2);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    live.append(rows[i].a, rows[i].k);
    if (i + 1 > window) {
      live.downdate(rows[i - window].a, rows[i - window].k);
    }
    if (i + 1 < window) continue;
    IncrementalNormals fresh;
    fresh.reset(2);
    for (std::size_t j = i + 1 - window; j <= i; ++j) {
      fresh.append(rows[j].a, rows[j].k);
    }
    ASSERT_NO_FATAL_FAILURE(expect_normals_near(live, fresh, 1e-10))
        << "slide at row " << i;
    double xl[2], xf[2];
    ASSERT_EQ(live.solve(xl), fresh.solve(xf));
    if (live.solve(xl) && fresh.solve(xf)) {
      EXPECT_NEAR(xl[0], xf[0], 1e-9);
      EXPECT_NEAR(xl[1], xf[1], 1e-9);
    }
  }
}

TEST(IncrementalNormals, RmsMatchesDirectResidualNorm) {
  const auto rows = random_rows(50, 41);
  IncrementalNormals n;
  n.reset(2);
  for (const auto& r : rows) n.append(r.a, r.k);
  double x[2];
  ASSERT_TRUE(n.solve(x));
  double ss = 0.0;
  for (const auto& r : rows) {
    const double res = r.a[0] * x[0] + r.a[1] * x[1] - r.k;
    ss += res * res;
  }
  EXPECT_NEAR(n.rms(x), std::sqrt(ss / static_cast<double>(rows.size())),
              1e-9);
}

TEST(IncrementalNormals, UnderdeterminedAndRankDeficientSolvesFail) {
  IncrementalNormals n;
  n.reset(2);
  double x[2];
  EXPECT_FALSE(n.solve(x));  // no rows
  const double a0[2] = {1.0, 2.0};
  n.append(a0, 1.0);
  EXPECT_FALSE(n.solve(x));  // 1 row < 2 cols
  // Collinear rows: Gram is singular, Cholesky must refuse.
  const double a1[2] = {2.0, 4.0};
  n.append(a1, 2.0);
  n.append(a1, 2.0);
  EXPECT_FALSE(n.solve(x));
}

TEST(IncrementalNormals, CancellationGrowsAsMassLeaves) {
  const auto rows = random_rows(100, 51);
  IncrementalNormals n;
  n.reset(2);
  for (const auto& r : rows) n.append(r.a, r.k);
  const double before = n.cancellation();
  EXPECT_GE(before, 1.0 - 1e-12);
  for (std::size_t i = 0; i < 90; ++i) n.downdate(rows[i].a, rows[i].k);
  // 90% of the diagonal mass has been subtracted back out: the ratio of
  // ever-appended to live mass must reflect it.
  EXPECT_GT(n.cancellation(), before * 2.0);
}

// ---------------------------------------------------------------------------
// 2. IncrementalTrackSolver differential properties
// ---------------------------------------------------------------------------

TEST(IncrementalTrackSolver, ConstructorValidatesGeometry) {
  IncrementalTrackConfig cfg;
  cfg.belt_direction = Vec3{0.0, 0.0, 0.0};
  EXPECT_THROW(IncrementalTrackSolver{cfg}, std::invalid_argument);
  cfg = IncrementalTrackConfig{};
  cfg.belt_speed = 0.0;
  EXPECT_THROW(IncrementalTrackSolver{cfg}, std::invalid_argument);
  cfg = IncrementalTrackConfig{};
  cfg.pair_interval = -1.0;
  EXPECT_THROW(IncrementalTrackSolver{cfg}, std::invalid_argument);
}

TEST(IncrementalTrackSolver, CleanStreamRecoversTheTagPose) {
  StreamParams p;
  const auto stream = make_stream(400, p);
  IncrementalTrackSolver solver(config_for(p));
  for (const auto& s : stream) solver.push(s);

  const core::TickResult tick = solver.tick();
  ASSERT_TRUE(tick.valid);
  EXPECT_FALSE(tick.fallback);
  EXPECT_GT(tick.rows, 8u);
  // A clean stream keeps every row in the consensus.
  EXPECT_EQ(tick.rows, solver.row_count());
  const Vec3 truth = tag_position_at(p, stream.back().t);
  EXPECT_NEAR((tick.position - truth).norm(), 0.0, 1e-5);
  const Vec3 start_truth = tag_position_at(p, stream.front().t);
  EXPECT_NEAR((tick.start - start_truth).norm(), 0.0, 1e-5);
  EXPECT_LT(tick.rms, 1e-6);
}

TEST(IncrementalTrackSolver, TickIsPureAndBitStable) {
  StreamParams p;
  p.phase_noise = 0.02;
  const auto stream = make_stream(300, p, 7);
  IncrementalTrackSolver solver(config_for(p));
  for (const auto& s : stream) solver.push(s);
  const core::TickResult a = solver.tick();
  const core::TickResult b = solver.tick();
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.fallback, b.fallback);
  EXPECT_EQ(a.position[0], b.position[0]);
  EXPECT_EQ(a.position[1], b.position[1]);
  EXPECT_EQ(a.position[2], b.position[2]);
  EXPECT_EQ(a.sigma, b.sigma);
  EXPECT_EQ(a.rms, b.rms);
  EXPECT_EQ(a.rows, b.rows);
}

TEST(IncrementalTrackSolver, NormalsMatchBatchAccumulationAfterAppends) {
  StreamParams p;
  p.phase_noise = 0.05;
  const auto stream = make_stream(500, p, 13);
  IncrementalTrackSolver solver(config_for(p));
  for (const auto& s : stream) solver.push(s);
  expect_normals_near(solver.normals(), solver.batch_normals(), 1e-10);
}

// Satellite regression: rows evicted by a window slide must leave the
// normal equations via downdate — after retire(), the maintained normals
// equal a fresh accumulation over the *surviving* included rows.
TEST(IncrementalTrackSolver, RetiredRowsLeaveByDowndate) {
  StreamParams p;
  p.phase_noise = 0.05;
  const auto stream = make_stream(600, p, 17);
  IncrementalTrackSolver solver(config_for(p));
  for (const auto& s : stream) solver.push(s);

  const std::uint64_t rebuilds_before = solver.rebuilds();
  solver.retire(150);
  // The slide stayed on the downdate path (no re-accumulation kicked in),
  // so this genuinely exercises subtraction, not a rebuild.
  EXPECT_EQ(solver.rebuilds(), rebuilds_before);
  EXPECT_EQ(solver.sample_count(), 450u);
  expect_normals_near(solver.normals(), solver.batch_normals(), 1e-10);

  double xi[2], xb[2];
  const auto batch = solver.batch_normals();
  ASSERT_TRUE(solver.normals().solve(xi));
  ASSERT_TRUE(batch.solve(xb));
  EXPECT_NEAR(xi[0], xb[0], 1e-9);
  EXPECT_NEAR(xi[1], xb[1], 1e-9);
}

TEST(IncrementalTrackSolver, SlideEqualsFreshSolverOverSurvivors) {
  StreamParams p;
  const auto stream = make_stream(700, p, 19);
  IncrementalTrackSolver slid(config_for(p));
  for (const auto& s : stream) slid.push(s);
  slid.retire(200);
  slid.force_rebuild();

  IncrementalTrackSolver fresh(config_for(p));
  for (std::size_t i = 200; i < stream.size(); ++i) fresh.push(stream[i]);
  fresh.force_rebuild();

  // Same surviving samples, same epoch datum after the rebuild: the two
  // solvers must agree on the re-accumulated system and the pose.
  expect_normals_near(slid.normals(), fresh.normals(), 1e-9);
  const core::TickResult a = slid.tick();
  const core::TickResult b = fresh.tick();
  ASSERT_TRUE(a.valid);
  ASSERT_TRUE(b.valid);
  EXPECT_NEAR((a.position - b.position).norm(), 0.0, 1e-9);
  EXPECT_NEAR(a.rms, b.rms, 1e-9);
}

TEST(IncrementalTrackSolver, DegenerateWindowsTripTheFallbackGate) {
  StreamParams p;
  IncrementalTrackSolver solver(config_for(p));
  EXPECT_TRUE(solver.tick().fallback);  // empty

  const auto stream = make_stream(10, p);  // far too short to pair
  for (const auto& s : stream) solver.push(s);
  EXPECT_TRUE(solver.tick().fallback);
  EXPECT_FALSE(solver.tick().valid);

  solver.clear();
  EXPECT_EQ(solver.sample_count(), 0u);
  EXPECT_EQ(solver.included_rows(), 0u);
  EXPECT_TRUE(solver.tick().fallback);
}

TEST(IncrementalTrackSolver, ClearThenRefillMatchesFreshSolver) {
  StreamParams p;
  const auto first = make_stream(300, p, 23);
  StreamParams p2 = p;
  p2.tag_start = Vec3{-0.5, 0.8, 0.1};
  const auto second = make_stream(300, p2, 29);

  IncrementalTrackSolver reused(config_for(p));
  for (const auto& s : first) reused.push(s);
  reused.clear();
  for (const auto& s : second) reused.push(s);

  IncrementalTrackSolver fresh(config_for(p));
  for (const auto& s : second) fresh.push(s);

  expect_normals_near(reused.normals(), fresh.normals(), 1e-12);
  const core::TickResult a = reused.tick();
  const core::TickResult b = fresh.tick();
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.position[0], b.position[0]);
  EXPECT_EQ(a.position[1], b.position[1]);
  EXPECT_EQ(a.position[2], b.position[2]);
}

// The core differential property, >= 200 seeded interleavings: random
// append / retire / clear / tick schedules, with the maintained normals
// checked against fresh accumulation at every probe, and the whole
// schedule replayed on a second solver to prove determinism.
TEST(IncrementalTrackSolver, SeededInterleavingsMatchBatchAndReplay) {
  StreamParams p;
  p.phase_noise = 0.03;
  const auto stream = make_stream(4000, p, 31);

  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(seed * 2654435761ULL + 1);
    IncrementalTrackSolver solver(config_for(p));
    IncrementalTrackSolver replay(config_for(p));
    std::size_t cursor = 0;
    std::vector<core::TickResult> ticks;

    for (int op = 0; op < 60; ++op) {
      const std::uint32_t dice = static_cast<std::uint32_t>(rng() % 100);
      if (dice < 70) {  // push a burst
        const std::size_t burst = 1 + rng() % 40;
        for (std::size_t i = 0; i < burst && cursor < stream.size(); ++i) {
          solver.push(stream[cursor]);
          replay.push(stream[cursor]);
          ++cursor;
        }
      } else if (dice < 85) {  // slide
        const std::size_t count = 1 + rng() % 30;
        solver.retire(count);
        replay.retire(count);
      } else if (dice < 90) {  // flush
        solver.clear();
        replay.clear();
      } else {  // probe
        ticks.push_back(solver.tick());
        expect_normals_near(solver.normals(), solver.batch_normals(), 1e-9);
      }
    }
    // Determinism: the replayed schedule lands in a bit-identical state.
    const core::TickResult a = solver.tick();
    const core::TickResult b = replay.tick();
    ASSERT_EQ(a.valid, b.valid) << "seed " << seed;
    ASSERT_EQ(a.fallback, b.fallback) << "seed " << seed;
    ASSERT_EQ(a.position[0], b.position[0]) << "seed " << seed;
    ASSERT_EQ(a.position[1], b.position[1]) << "seed " << seed;
    ASSERT_EQ(a.position[2], b.position[2]) << "seed " << seed;
    ASSERT_EQ(a.rms, b.rms) << "seed " << seed;
    ASSERT_EQ(a.rows, b.rows) << "seed " << seed;
    ASSERT_EQ(solver.rebuilds(), replay.rebuilds()) << "seed " << seed;
    // Every valid probe taken while the geometry is informative carried a
    // sane pose. Probes far past the antenna (end-fire: the q and dd
    // columns turn collinear) or over a thin consensus are information-
    // starved — the *batch* pipeline is equally wrong there, and the
    // differential checks above already pin the incremental path to it —
    // so the accuracy claim is scoped to the aperture.
    for (const auto& t : ticks) {
      if (!t.valid || t.rows < 64) continue;
      const Vec3 truth = tag_position_at(p, t.t);
      const double along =
          std::fabs((truth - p.antenna).dot(p.belt_dir));
      if (along > 2.0) continue;
      EXPECT_LT((t.position - truth).norm(), 0.25) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Warm-started RANSAC
// ---------------------------------------------------------------------------

struct ContaminatedSystem {
  linalg::Matrix a{1, 1};
  std::vector<double> b;
  std::vector<char> truth;  // true inlier mask
};

ContaminatedSystem contaminated_line(std::size_t n, double outlier_frac,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ux(-3.0, 3.0);
  std::normal_distribution<double> noise(0.0, 0.01);
  std::uniform_real_distribution<double> burst(3.0, 8.0);
  ContaminatedSystem sys;
  sys.a = linalg::Matrix(n, 2);
  sys.b.resize(n);
  sys.truth.resize(n, 1);
  const std::size_t outliers = static_cast<std::size_t>(outlier_frac * n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = ux(rng);
    sys.a(i, 0) = x;
    sys.a(i, 1) = 1.0;
    sys.b[i] = 2.0 * x + 1.0 + noise(rng);
    if (i < outliers) {
      sys.b[i] += burst(rng);
      sys.truth[i] = 0;
    }
  }
  return sys;
}

TEST(RansacWarm, EmptyPriorIsBitIdenticalToColdSolve) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto sys = contaminated_line(80, 0.3, 100 + seed);
    core::RansacOptions opt;

    linalg::SolverWorkspace ws_cold;
    core::RansacResult cold;
    core::ransac_solve(sys.a, sys.b, opt, ws_cold, cold);

    linalg::SolverWorkspace ws_warm;
    ws_warm.load(sys.a, sys.b);
    core::RansacResult warm;
    core::ransac_solve_loaded(opt, ws_warm, warm, nullptr);

    ASSERT_EQ(cold.solution.x.size(), warm.solution.x.size());
    for (std::size_t i = 0; i < cold.solution.x.size(); ++i) {
      EXPECT_EQ(cold.solution.x[i], warm.solution.x[i]) << "seed " << seed;
    }
    EXPECT_EQ(cold.inlier_mask, warm.inlier_mask) << "seed " << seed;
    EXPECT_EQ(cold.consensus, warm.consensus) << "seed " << seed;
  }
}

TEST(RansacWarm, GoodPriorFindsTheConsensus) {
  const auto sys = contaminated_line(120, 0.35, 7);
  core::RansacOptions opt;
  linalg::SolverWorkspace ws;
  core::RansacResult out;
  ws.load(sys.a, sys.b);
  ASSERT_EQ(core::ransac_solve_loaded(opt, ws, out, sys.truth.data()),
            linalg::SolveStatus::kOk);
  ASSERT_TRUE(out.consensus);
  ASSERT_EQ(out.solution.x.size(), 2u);
  EXPECT_NEAR(out.solution.x[0], 2.0, 0.05);
  EXPECT_NEAR(out.solution.x[1], 1.0, 0.05);
  // The consensus must reject essentially all planted outliers.
  std::size_t kept_outliers = 0;
  for (std::size_t i = 0; i < sys.truth.size(); ++i) {
    if (!sys.truth[i] && out.inlier_mask[i]) ++kept_outliers;
  }
  EXPECT_LE(kept_outliers, 2u);
}

TEST(RansacWarm, StalePriorStillConverges) {
  const auto sys = contaminated_line(120, 0.3, 9);
  core::RansacOptions opt;
  // Worst-case prior: everything (outliers included) marked inlier.
  const std::vector<char> stale(sys.b.size(), 1);
  linalg::SolverWorkspace ws;
  core::RansacResult out;
  ws.load(sys.a, sys.b);
  ASSERT_EQ(core::ransac_solve_loaded(opt, ws, out, stale.data()),
            linalg::SolveStatus::kOk);
  ASSERT_TRUE(out.consensus);
  EXPECT_NEAR(out.solution.x[0], 2.0, 0.05);
  EXPECT_NEAR(out.solution.x[1], 1.0, 0.05);
}

}  // namespace
}  // namespace lion
