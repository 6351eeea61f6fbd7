// Consensus-solver tests: recovery under block contamination that defeats
// reweighting from a poisoned start, plus the fallback behaviour on
// degenerate or tiny systems.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/ransac.hpp"
#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "rf/rng.hpp"

namespace lion {
namespace {

// y = 2x - 3 with mild noise, plus a coherent block of wrong equations.
struct Problem {
  linalg::Matrix a;
  std::vector<double> b;
};

Problem line_problem(std::size_t n, double outlier_fraction,
                     std::uint64_t seed) {
  rf::Rng rng(seed);
  Problem p{linalg::Matrix(n, 2), std::vector<double>(n)};
  const std::size_t bad = static_cast<std::size_t>(
      outlier_fraction * static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const double x = 0.1 * static_cast<double>(i);
    p.a(i, 0) = x;
    p.a(i, 1) = 1.0;
    p.b[i] = 2.0 * x - 3.0 + rng.gaussian(0.01);
    // A coherent block (not scattered): all shifted the same way, the
    // regime that drags an OLS-seeded IRLS into the wrong basin.
    if (i < bad) p.b[i] += 5.0;
  }
  return p;
}

TEST(Ransac, RecoversUnderThirtyPercentCoherentOutliers) {
  const auto p = line_problem(100, 0.3, 1);
  const auto r = core::ransac_solve(p.a, p.b);
  ASSERT_TRUE(r.consensus);
  EXPECT_NEAR(r.solution.x[0], 2.0, 0.05);
  EXPECT_NEAR(r.solution.x[1], -3.0, 0.05);
  EXPECT_GT(r.inlier_fraction, 0.6);
  EXPECT_LT(r.inlier_fraction, 0.8);
  // The contaminated block is excluded from the consensus set.
  std::size_t bad_kept = 0;
  for (std::size_t i = 0; i < 30; ++i) bad_kept += r.inlier_mask[i] ? 1 : 0;
  EXPECT_EQ(bad_kept, 0u);
}

TEST(Ransac, CleanSystemKeepsEveryRow) {
  const auto p = line_problem(80, 0.0, 2);
  const auto r = core::ransac_solve(p.a, p.b);
  ASSERT_TRUE(r.consensus);
  EXPECT_NEAR(r.solution.x[0], 2.0, 0.01);
  EXPECT_GT(r.inlier_fraction, 0.9);
}

TEST(Ransac, TinySystemFallsBackToRobustIrls) {
  // Four rows, two unknowns: below the sampling floor.
  linalg::Matrix a(4, 2);
  std::vector<double> b(4);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i);
    a(i, 1) = 1.0;
    b[i] = 2.0 * static_cast<double>(i) + 1.0;
  }
  const auto r = core::ransac_solve(a, b);
  EXPECT_FALSE(r.consensus);
  EXPECT_NEAR(r.solution.x[0], 2.0, 1e-9);
  EXPECT_NEAR(r.solution.x[1], 1.0, 1e-9);
  EXPECT_EQ(r.inlier_fraction, 1.0);
}

TEST(Ransac, UnderdeterminedThrows) {
  linalg::Matrix a(1, 2);
  EXPECT_THROW(core::ransac_solve(a, {1.0}), std::invalid_argument);
  linalg::Matrix a2(3, 2);
  EXPECT_THROW(core::ransac_solve(a2, {1.0}), std::invalid_argument);
}

TEST(Ransac, MajorityContaminationDoesNotCrash) {
  // 60% outliers exceeds the LMedS breakdown point; demand only a finite,
  // consensus-or-fallback answer, never a throw.
  const auto p = line_problem(100, 0.6, 3);
  const auto r = core::ransac_solve(p.a, p.b);
  ASSERT_EQ(r.solution.x.size(), 2u);
  EXPECT_TRUE(std::isfinite(r.solution.x[0]));
  EXPECT_TRUE(std::isfinite(r.solution.x[1]));
}

TEST(Ransac, DeterministicForFixedSeed) {
  const auto p = line_problem(100, 0.25, 4);
  core::RansacOptions opts;
  opts.seed = 99;
  const auto r1 = core::ransac_solve(p.a, p.b, opts);
  const auto r2 = core::ransac_solve(p.a, p.b, opts);
  ASSERT_EQ(r1.solution.x.size(), r2.solution.x.size());
  EXPECT_EQ(r1.solution.x[0], r2.solution.x[0]);
  EXPECT_EQ(r1.solution.x[1], r2.solution.x[1]);
  EXPECT_EQ(r1.inlier_fraction, r2.inlier_fraction);
}

TEST(Ransac, WorkspacePathBitIdenticalToDefaultPath) {
  linalg::SolverWorkspace ws;
  // Reuse the workspace across several unrelated systems: reuse must not
  // leak state between solves, so the caller-owned workspace and result
  // match the call-local default bit for bit.
  for (std::uint64_t seed : {5, 6, 7}) {
    const auto p = line_problem(100, 0.3, seed);
    const auto ref = core::ransac_solve(p.a, p.b);
    core::RansacResult got;
    ASSERT_EQ(core::ransac_solve(p.a, p.b, {}, ws, got),
              linalg::SolveStatus::kOk);
    ASSERT_TRUE(got.consensus);
    EXPECT_EQ(got.solution.x, ref.solution.x);
    EXPECT_EQ(got.solution.residuals, ref.solution.residuals);
    EXPECT_EQ(got.solution.weights, ref.solution.weights);
    EXPECT_EQ(got.solution.mean_residual, ref.solution.mean_residual);
    EXPECT_EQ(got.solution.rms_residual, ref.solution.rms_residual);
    EXPECT_EQ(got.solution.iterations, ref.solution.iterations);
    EXPECT_EQ(got.inlier_mask, ref.inlier_mask);
    EXPECT_EQ(got.inlier_fraction, ref.inlier_fraction);
    EXPECT_EQ(got.iterations, ref.iterations);
    EXPECT_EQ(got.consensus, ref.consensus);

    // The refit is the classic Huber IRLS on the consensus rows.
    std::size_t count = 0;
    for (char m : got.inlier_mask) count += m ? 1 : 0;
    linalg::Matrix sub(count, 2);
    std::vector<double> sub_b(count);
    for (std::size_t i = 0, r = 0; i < p.b.size(); ++i) {
      if (!got.inlier_mask[i]) continue;
      sub(r, 0) = p.a(i, 0);
      sub(r, 1) = p.a(i, 1);
      sub_b[r++] = p.b[i];
    }
    linalg::IrlsOptions huber;
    huber.loss = linalg::RobustLoss::kHuber;
    const auto refit = linalg::solve_irls(sub, sub_b, huber);
    EXPECT_EQ(got.solution.x, refit.x);
    EXPECT_EQ(got.solution.residuals, refit.residuals);
    EXPECT_EQ(got.solution.weights, refit.weights);
    EXPECT_EQ(got.solution.rms_residual, refit.rms_residual);
    EXPECT_EQ(got.solution.iterations, refit.iterations);
  }
}

TEST(Ransac, RejectsZeroAndWideSystems) {
  // Only 1..kSmallMaxCols unknowns run in the workspace core; anything
  // else is a caller error, not a silent detour to another solver.
  for (const std::size_t p : {std::size_t{0}, linalg::kSmallMaxCols + 1}) {
    const linalg::Matrix a(12, p);
    const std::vector<double> b(12, 1.0);
    EXPECT_THROW(core::ransac_solve(a, b), std::invalid_argument)
        << p << " columns";
    linalg::SolverWorkspace ws;
    core::RansacResult out;
    EXPECT_THROW(core::ransac_solve(a, b, {}, ws, out), std::invalid_argument)
        << p << " columns";
  }
}

TEST(Ransac, FailedSolveIsAStatus) {
  // A zero column: every subset and the full-row fallback are rank
  // deficient. The workspace entries return the status; the value-returning
  // overload throws std::domain_error naming it.
  linalg::Matrix a(12, 2);
  std::vector<double> b(12);
  for (std::size_t i = 0; i < 12; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    b[i] = static_cast<double>(i % 3);
  }
  linalg::SolverWorkspace ws;
  core::RansacResult out;
  EXPECT_EQ(core::ransac_solve(a, b, {}, ws, out),
            linalg::SolveStatus::kRankDeficient);
  try {
    core::ransac_solve(a, b);
    ADD_FAILURE() << "expected std::domain_error";
  } catch (const std::domain_error& e) {
    EXPECT_NE(std::string(e.what()).find("rank_deficient"), std::string::npos)
        << e.what();
  }
  ws.reshape(1, 2);
  EXPECT_EQ(core::ransac_solve_loaded({}, ws, out),
            linalg::SolveStatus::kUnderdetermined);
}

TEST(Ransac, DegenerateSubsetsAreCountedNotThrown) {
  // 15 of 20 rows are copies of one row: a minimal subset drawn from the
  // duplicated block is rank deficient. The sampling loop must classify
  // and count those draws (ransac.degenerate_subsets) instead of burning
  // an exception per draw, and still produce a finite answer.
  const std::size_t n = 20;
  linalg::Matrix a(n, 2);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < 15) {
      a(i, 0) = 1.0;
      a(i, 1) = 1.0;
      b[i] = -1.0;
    } else {
      const double x = static_cast<double>(i);
      a(i, 0) = x;
      a(i, 1) = 1.0;
      b[i] = 2.0 * x - 3.0;
    }
  }

  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::instance().reset();
  const auto r = core::ransac_solve(a, b);
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  obs::set_metrics_enabled(false);

  ASSERT_EQ(r.solution.x.size(), 2u);
  EXPECT_TRUE(std::isfinite(r.solution.x[0]));
  EXPECT_TRUE(std::isfinite(r.solution.x[1]));

  std::uint64_t degenerate = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "ransac.degenerate_subsets") degenerate = value;
  }
  // P(all-duplicate 3-row subset) ~ 0.34 per iteration; over 64 seeded
  // iterations at least one degenerate draw is certain in practice.
  EXPECT_GT(degenerate, 0u);
}

}  // namespace
}  // namespace lion
