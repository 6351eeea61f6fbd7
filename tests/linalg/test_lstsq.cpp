#include "linalg/lstsq.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>

#include "linalg/small.hpp"
#include "linalg/stats.hpp"

namespace lion::linalg {
namespace {

TEST(LeastSquares, ExactSystemHasZeroResiduals) {
  const Matrix a{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const std::vector<double> b{2.0, 3.0, 5.0};
  const auto r = solve_least_squares(a, b);
  EXPECT_NEAR(r.x[0], 2.0, 1e-12);
  EXPECT_NEAR(r.x[1], 3.0, 1e-12);
  EXPECT_NEAR(r.rms_residual, 0.0, 1e-12);
  EXPECT_NEAR(r.mean_residual, 0.0, 1e-12);
}

TEST(LeastSquares, LinearRegressionClosedForm) {
  const Matrix a{{1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}, {1.0, 4.0}};
  const std::vector<double> b{6.0, 5.0, 7.0, 10.0};
  const auto r = solve_least_squares(a, b);
  EXPECT_NEAR(r.x[0], 3.5, 1e-12);
  EXPECT_NEAR(r.x[1], 1.4, 1e-12);
}

TEST(LeastSquares, ResidualsMatchDefinition) {
  const Matrix a{{1.0}, {1.0}, {1.0}};
  const std::vector<double> b{1.0, 2.0, 6.0};
  const auto r = solve_least_squares(a, b);
  EXPECT_NEAR(r.x[0], 3.0, 1e-12);  // mean
  ASSERT_EQ(r.residuals.size(), 3u);
  EXPECT_NEAR(r.residuals[0], 2.0, 1e-12);
  EXPECT_NEAR(r.residuals[1], 1.0, 1e-12);
  EXPECT_NEAR(r.residuals[2], -3.0, 1e-12);
}

TEST(LeastSquares, OlsWeightsAreAllOne) {
  const Matrix a{{1.0}, {2.0}};
  const auto r = solve_least_squares(a, {1.0, 2.0});
  EXPECT_EQ(r.weights, (std::vector<double>{1.0, 1.0}));
}

TEST(LeastSquares, UnderdeterminedThrows) {
  EXPECT_THROW(solve_least_squares(Matrix(1, 2), {1.0}), std::domain_error);
}

TEST(LeastSquares, RhsSizeMismatchThrows) {
  EXPECT_THROW(solve_least_squares(Matrix(3, 2), {1.0}),
               std::invalid_argument);
}

TEST(LeastSquares, RankDeficientFallsToQrAndThrows) {
  // Two identical columns: no unique solution even via QR.
  const Matrix a{{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  EXPECT_THROW(solve_least_squares(a, {1.0, 2.0, 3.0}), std::domain_error);
}

TEST(WeightedLeastSquares, ZeroWeightIgnoresRow) {
  // Three observations of a constant; the wild third one has zero weight.
  const Matrix a{{1.0}, {1.0}, {1.0}};
  const std::vector<double> b{2.0, 2.0, 100.0};
  const auto r = solve_weighted_least_squares(a, b, {1.0, 1.0, 0.0});
  EXPECT_NEAR(r.x[0], 2.0, 1e-12);
}

TEST(WeightedLeastSquares, MatchesClosedFormWeightedMean) {
  const Matrix a{{1.0}, {1.0}};
  const std::vector<double> b{0.0, 10.0};
  const auto r = solve_weighted_least_squares(a, b, {3.0, 1.0});
  EXPECT_NEAR(r.x[0], 2.5, 1e-12);  // (3*0 + 1*10) / 4
}

TEST(WeightedLeastSquares, UniformWeightsMatchOls) {
  const Matrix a{{1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}};
  const std::vector<double> b{1.0, 2.0, 2.5};
  const auto ols = solve_least_squares(a, b);
  const auto wls = solve_weighted_least_squares(a, b, {2.0, 2.0, 2.0});
  EXPECT_NEAR(ols.x[0], wls.x[0], 1e-12);
  EXPECT_NEAR(ols.x[1], wls.x[1], 1e-12);
}

TEST(WeightedLeastSquares, SizeMismatchThrows) {
  EXPECT_THROW(
      solve_weighted_least_squares(Matrix(2, 1), {1.0, 2.0}, {1.0}),
      std::invalid_argument);
}

TEST(GaussianResidualWeights, CleanResidualGetsHighWeight) {
  // One outlier among small residuals.
  const std::vector<double> residuals{0.01, -0.02, 0.015, -0.01, 5.0};
  const auto w = gaussian_residual_weights(residuals);
  ASSERT_EQ(w.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_GT(w[i], w[4]);
  EXPECT_LT(w[4], 0.2);
}

TEST(GaussianResidualWeights, AllWeightsInUnitInterval) {
  const auto w = gaussian_residual_weights({1.0, -2.0, 0.5, 0.0});
  for (double v : w) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(GaussianResidualWeights, EqualResidualsGetWeightOne) {
  // Degenerate spread: sigma floored, all residuals at the mean.
  const auto w = gaussian_residual_weights({0.5, 0.5, 0.5});
  for (double v : w) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Irls, ConvergesOnCleanData) {
  const Matrix a{{1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}, {1.0, 4.0}};
  std::vector<double> b{3.0, 5.0, 7.0, 9.0};  // y = 1 + 2x exactly
  const auto r = solve_irls(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 2.0, 1e-9);
}

TEST(Irls, DownweightsOutlier) {
  // y = 2x with one corrupted observation; IRLS should sit closer to the
  // clean slope than OLS does.
  Matrix a(9, 1);
  std::vector<double> b(9);
  for (std::size_t i = 0; i < 9; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    b[i] = 2.0 * static_cast<double>(i + 1);
  }
  b[4] += 30.0;  // outlier
  const auto ols = solve_least_squares(a, b);
  const auto irls = solve_irls(a, b);
  EXPECT_LT(std::abs(irls.x[0] - 2.0), std::abs(ols.x[0] - 2.0));
}

TEST(Irls, OutlierWeightIsSmallest) {
  Matrix a(7, 1);
  std::vector<double> b(7);
  for (std::size_t i = 0; i < 7; ++i) {
    a(i, 0) = 1.0;
    b[i] = 1.0;
  }
  b[3] = 50.0;
  const auto r = solve_irls(a, b);
  const auto min_it = std::min_element(r.weights.begin(), r.weights.end());
  EXPECT_EQ(std::distance(r.weights.begin(), min_it), 3);
}

TEST(Irls, RespectsIterationCap) {
  IrlsOptions opts;
  opts.max_iterations = 2;
  opts.tolerance = 0.0;  // never converges by tolerance
  Matrix a(4, 1);
  std::vector<double> b{1.0, 2.0, 3.0, 10.0};
  for (std::size_t i = 0; i < 4; ++i) a(i, 0) = 1.0;
  const auto r = solve_irls(a, b, opts);
  EXPECT_EQ(r.iterations, 2u);
  EXPECT_FALSE(r.converged);
}

TEST(Irls, ReportsIterationCount) {
  const Matrix a{{1.0}, {1.0}, {1.0}};
  const auto r = solve_irls(a, {1.0, 1.0, 1.0});
  EXPECT_GE(r.iterations, 1u);
  EXPECT_TRUE(r.converged);
}

TEST(RobustWeights, HuberKeepsSmallResidualsAtFullWeight) {
  const std::vector<double> residuals{0.01, -0.02, 0.015, -0.01, 5.0};
  const auto w = robust_residual_weights(residuals, RobustLoss::kHuber);
  ASSERT_EQ(w.size(), residuals.size());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(w[i], 1.0);
  EXPECT_LT(w[4], 0.1);
}

TEST(RobustWeights, TukeyZerosGrossOutliers) {
  const std::vector<double> residuals{0.01, -0.02, 0.015, -0.01, 0.02, 50.0};
  const auto w = robust_residual_weights(residuals, RobustLoss::kTukey);
  EXPECT_EQ(w.back(), 0.0);
  for (std::size_t i = 0; i + 1 < w.size(); ++i) EXPECT_GT(w[i], 0.5);
}

TEST(RobustWeights, ScaleInvariant) {
  // MAD normalization: multiplying every residual by a constant must not
  // change the weights.
  const std::vector<double> r1{0.1, -0.2, 0.15, -0.1, 3.0};
  std::vector<double> r2 = r1;
  for (auto& v : r2) v *= 1000.0;
  const auto w1 = robust_residual_weights(r1, RobustLoss::kHuber);
  const auto w2 = robust_residual_weights(r2, RobustLoss::kHuber);
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_NEAR(w1[i], w2[i], 1e-12);
  }
}

TEST(RobustWeights, TukeyAllZeroFallsBackToHuber) {
  // Identical residual magnitudes make MAD zero; the guard must not return
  // an all-zero weight vector that would make the refit singular.
  const std::vector<double> residuals{1.0, 1.0, 1.0, 1.0};
  const auto w = robust_residual_weights(residuals, RobustLoss::kTukey);
  double total = 0.0;
  for (const double v : w) total += v;
  EXPECT_GT(total, 0.0);
}

TEST(Irls, HuberLossRecoversFromCoherentBlock) {
  // Scattered-outlier robustness is shared; the block case is where the
  // Gaussian weighting (centered on the poisoned OLS fit) struggles most.
  Matrix a(30, 1);
  std::vector<double> b(30);
  for (std::size_t i = 0; i < 30; ++i) {
    a(i, 0) = 1.0;
    b[i] = 2.0;
  }
  for (std::size_t i = 0; i < 6; ++i) b[i] = 12.0;
  IrlsOptions huber;
  huber.loss = RobustLoss::kHuber;
  const auto r = solve_irls(a, b, huber);
  EXPECT_NEAR(r.x[0], 2.0, 0.2);
}

TEST(Irls, TukeyLossIgnoresCoherentBlockCompletely) {
  Matrix a(30, 1);
  std::vector<double> b(30);
  for (std::size_t i = 0; i < 30; ++i) {
    a(i, 0) = 1.0;
    b[i] = 2.0;
  }
  for (std::size_t i = 0; i < 6; ++i) b[i] = 12.0;
  IrlsOptions tukey;
  tukey.loss = RobustLoss::kTukey;
  const auto r = solve_irls(a, b, tukey);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TEST(RobustLossNames, AreStable) {
  EXPECT_STREQ(robust_loss_name(RobustLoss::kGaussian), "gaussian");
  EXPECT_STREQ(robust_loss_name(RobustLoss::kHuber), "huber");
  EXPECT_STREQ(robust_loss_name(RobustLoss::kTukey), "tukey");
}

TEST(SolveStatusNames, AreStable) {
  EXPECT_STREQ(solve_status_name(SolveStatus::kOk), "ok");
  EXPECT_STREQ(solve_status_name(SolveStatus::kUnderdetermined),
               "underdetermined");
  EXPECT_STREQ(solve_status_name(SolveStatus::kRankDeficient),
               "rank_deficient");
}

TEST(RobustWeights, TukeyHardZerosSurviveLargeMinSigma) {
  // Regression for the weight-mass gate: the old check compared the total
  // weight mass against min_sigma — a residual *scale* in measurement
  // units — so a large scale floor silently replaced valid Tukey weights
  // with Huber ones. The gate is now a dimensionless mean-weight floor
  // (kMinMeanRobustWeight); total mass 3.0 < min_sigma 6.0 must keep the
  // Tukey weights, hard zeros included.
  const std::vector<double> residuals{0.0, 0.0, 0.0, 50.0, -50.0};
  const auto w =
      robust_residual_weights(residuals, RobustLoss::kTukey, 0.0, 6.0);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_EQ(w[0], 1.0);  // at the median: weight 1
  EXPECT_EQ(w[1], 1.0);
  EXPECT_EQ(w[2], 1.0);
  EXPECT_EQ(w[3], 0.0);  // |z| = 50/6 beyond the 4.685 cutoff: rejected
  EXPECT_EQ(w[4], 0.0);
}

TEST(RobustWeights, AllRejectingTukeyStillFallsBackToHuber) {
  // Every row beyond a tiny tuning cutoff: the whole system would be
  // zeroed, so the Huber weights (never zero) must take over.
  const std::vector<double> residuals{1.0, 2.0, 4.0, 5.0};
  const auto w =
      robust_residual_weights(residuals, RobustLoss::kTukey, 0.1, 1e-12);
  ASSERT_EQ(w.size(), 4u);
  for (double v : w) EXPECT_GT(v, 0.0);
}

TEST(Irls, WorkspaceOverloadBitIdenticalAcrossLosses) {
  std::mt19937 rng(33);
  std::uniform_real_distribution<double> d(-1.5, 1.5);
  for (std::size_t p = 2; p <= 4; ++p) {
    for (RobustLoss loss :
         {RobustLoss::kGaussian, RobustLoss::kHuber, RobustLoss::kTukey}) {
      Matrix a(24, p);
      std::vector<double> b(24);
      for (std::size_t i = 0; i < 24; ++i) {
        for (std::size_t j = 0; j < p; ++j) a(i, j) = d(rng);
        b[i] = d(rng) + (i % 7 == 0 ? 4.0 : 0.0);  // a few outliers
      }
      IrlsOptions opt;
      opt.loss = loss;

      const auto legacy = solve_irls(a, b, opt);
      SolverWorkspace ws;
      LstsqResult got;
      ASSERT_EQ(solve_irls(a, b, opt, ws, got), SolveStatus::kOk);

      EXPECT_EQ(got.x, legacy.x);
      EXPECT_EQ(got.residuals, legacy.residuals);
      EXPECT_EQ(got.weights, legacy.weights);
      EXPECT_EQ(got.mean_residual, legacy.mean_residual);
      EXPECT_EQ(got.rms_residual, legacy.rms_residual);
      EXPECT_EQ(got.iterations, legacy.iterations);
      EXPECT_EQ(got.converged, legacy.converged);
    }
  }
}

TEST(Irls, MaskedSolveMatchesMaterializedSubsystemBitExact) {
  std::mt19937 rng(34);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  const std::size_t n = 40;
  const std::size_t p = 3;
  Matrix a(n, p);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) a(i, j) = d(rng);
    b[i] = d(rng);
  }
  std::vector<char> mask(n, 0);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += (mask[i] = (i % 3 != 0));

  Matrix sub(count, p);
  std::vector<double> sub_b(count);
  std::size_t r = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!mask[i]) continue;
    for (std::size_t j = 0; j < p; ++j) sub(r, j) = a(i, j);
    sub_b[r] = b[i];
    ++r;
  }

  IrlsOptions opt;
  opt.loss = RobustLoss::kHuber;
  const auto ref = solve_irls(sub, sub_b, opt);

  SolverWorkspace ws;
  ws.load(a, b);
  LstsqResult got;
  ASSERT_EQ(solve_irls_masked(ws, mask.data(), count, opt, got),
            SolveStatus::kOk);
  EXPECT_EQ(got.x, ref.x);
  EXPECT_EQ(got.residuals, ref.residuals);
  EXPECT_EQ(got.weights, ref.weights);
  EXPECT_EQ(got.mean_residual, ref.mean_residual);
  EXPECT_EQ(got.rms_residual, ref.rms_residual);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.converged, ref.converged);
}

TEST(Irls, WorkspaceOverloadRejectsZeroAndWideSystems) {
  // Only 1..kSmallMaxCols unknowns run in the workspace core; anything
  // else is a caller error, not a silent detour to another solver.
  for (const std::size_t p : {std::size_t{0}, kSmallMaxCols + 1}) {
    SolverWorkspace ws;
    LstsqResult out;
    EXPECT_THROW(solve_irls(Matrix(12, p), std::vector<double>(12, 1.0), {},
                            ws, out),
                 std::invalid_argument)
        << p << " columns";
  }
}

TEST(Irls, WorkspaceOverloadReportsWhereClassicThrows) {
  // Identical columns: the classic IRLS throws std::domain_error, the
  // workspace overload returns the status instead.
  const Matrix deficient{{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  const std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_THROW(solve_irls(deficient, b), std::domain_error);
  SolverWorkspace ws;
  LstsqResult out;
  EXPECT_EQ(solve_irls(deficient, b, {}, ws, out),
            SolveStatus::kRankDeficient);
  EXPECT_EQ(solve_irls(Matrix(1, 2), {1.0}, {}, ws, out),
            SolveStatus::kUnderdetermined);
}

TEST(Irls, MaskedSolveReportsUnderdeterminedStatus) {
  SolverWorkspace ws;
  ws.load(Matrix(5, 3), std::vector<double>(5, 0.0));
  const std::vector<char> mask{1, 1, 0, 0, 0};
  LstsqResult out;
  EXPECT_EQ(solve_irls_masked(ws, mask.data(), 2, {}, out),
            SolveStatus::kUnderdetermined);
}

}  // namespace
}  // namespace lion::linalg
