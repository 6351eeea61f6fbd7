#include "core/localizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "linalg/decompositions.hpp"
#include "rf/phase_model.hpp"
#include "rf/rng.hpp"

namespace lion::core {
namespace {

using linalg::Vec3;

signal::PhaseProfile synthetic(const std::vector<Vec3>& positions,
                               const Vec3& target, double noise_sigma = 0.0,
                               std::uint64_t seed = 1) {
  rf::Rng rng(seed);
  signal::PhaseProfile p;
  for (const auto& pos : positions) {
    const double d = linalg::distance(pos, target);
    p.push_back(
        {pos, rf::distance_phase(d) + 0.777 + rng.gaussian(noise_sigma), 0.0});
  }
  return p;
}

std::vector<Vec3> dense_line(double x0, double x1, double y, double z,
                             double step = 0.005) {
  std::vector<Vec3> ps;
  for (double x = x0; x <= x1 + 1e-12; x += step) ps.push_back({x, y, z});
  return ps;
}

std::vector<Vec3> two_lines_2d() {
  auto ps = dense_line(-0.5, 0.5, 0.0, 0.0);
  const auto second = dense_line(-0.5, 0.5, -0.2, 0.0);
  ps.insert(ps.end(), second.begin(), second.end());
  return ps;
}

TEST(Localizer, FullRank2DNoiselessIsExact) {
  const Vec3 target{0.2, 0.9, 0.0};
  const auto profile = synthetic(two_lines_2d(), target);
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  cfg.method = SolveMethod::kLeastSquares;
  const auto r = LinearLocalizer(cfg).locate(profile);
  EXPECT_NEAR(linalg::distance(r.position, target), 0.0, 1e-6);
  EXPECT_EQ(r.trajectory_rank, 2u);
  EXPECT_FALSE(r.perpendicular_recovered);
  EXPECT_NEAR(r.rms_residual, 0.0, 1e-9);
}

TEST(Localizer, ReferenceDistanceMatchesGeometry) {
  const Vec3 target{0.0, 0.8, 0.0};
  const auto profile = synthetic(two_lines_2d(), target);
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  cfg.reference_index = 0;
  const auto r = LinearLocalizer(cfg).locate(profile);
  EXPECT_NEAR(r.reference_distance,
              linalg::distance(target, profile[0].position), 1e-6);
}

TEST(Localizer, LowerDimension2DLinearTrajectory) {
  // The paper's Fig. 9 setup: tag on the x-axis, antenna at (0.2, 1).
  const Vec3 target{0.2, 1.0, 0.0};
  const auto profile = synthetic(dense_line(-0.3, 0.3, 0.0, 0.0), target);
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  cfg.side_hint = Vec3{0.0, 0.5, 0.0};
  const auto r = LinearLocalizer(cfg).locate(profile);
  EXPECT_TRUE(r.perpendicular_recovered);
  EXPECT_EQ(r.trajectory_rank, 1u);
  EXPECT_NEAR(linalg::distance(r.position, target), 0.0, 1e-5);
}

TEST(Localizer, SideHintPicksCorrectHalfPlane) {
  const Vec3 target{0.2, -1.0, 0.0};  // below the scan line
  const auto profile = synthetic(dense_line(-0.3, 0.3, 0.0, 0.0), target);
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  cfg.side_hint = Vec3{0.0, -0.5, 0.0};
  const auto r = LinearLocalizer(cfg).locate(profile);
  EXPECT_NEAR(linalg::distance(r.position, target), 0.0, 1e-5);
}

TEST(Localizer, WithoutHintReturnsOneOfTheMirrorSolutions) {
  const Vec3 target{0.1, 0.9, 0.0};
  const Vec3 mirror{0.1, -0.9, 0.0};
  const auto profile = synthetic(dense_line(-0.3, 0.3, 0.0, 0.0), target);
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  const auto r = LinearLocalizer(cfg).locate(profile);
  const double err_t = linalg::distance(r.position, target);
  const double err_m = linalg::distance(r.position, mirror);
  EXPECT_LT(std::min(err_t, err_m), 1e-5);
}

TEST(Localizer, ThreeDFullRankThreeLines) {
  std::vector<Vec3> ps = dense_line(-0.5, 0.5, 0.0, 0.0);
  const auto l2 = dense_line(-0.5, 0.5, 0.0, 0.2);
  const auto l3 = dense_line(-0.5, 0.5, -0.2, 0.0);
  ps.insert(ps.end(), l2.begin(), l2.end());
  ps.insert(ps.end(), l3.begin(), l3.end());
  const Vec3 target{0.05, 0.8, 0.1};
  const auto profile = synthetic(ps, target);
  LocalizerConfig cfg;
  cfg.target_dim = 3;
  const auto r = LinearLocalizer(cfg).locate(profile);
  EXPECT_EQ(r.trajectory_rank, 3u);
  EXPECT_NEAR(linalg::distance(r.position, target), 0.0, 1e-4);
}

TEST(Localizer, ThreeDPlanarTrajectoryRecoversZ) {
  // Two lines in the z=0 plane; target above the plane.
  const Vec3 target{0.0, 0.8, 0.25};
  const auto profile = synthetic(two_lines_2d(), target);
  LocalizerConfig cfg;
  cfg.target_dim = 3;
  cfg.side_hint = Vec3{0.0, 0.0, 1.0};
  const auto r = LinearLocalizer(cfg).locate(profile);
  EXPECT_TRUE(r.perpendicular_recovered);
  EXPECT_EQ(r.trajectory_rank, 2u);
  EXPECT_NEAR(linalg::distance(r.position, target), 0.0, 1e-4);
}

TEST(Localizer, SingleLineCannotGive3DFix) {
  const auto profile =
      synthetic(dense_line(-0.5, 0.5, 0.0, 0.0), {0.0, 1.0, 0.0});
  LocalizerConfig cfg;
  cfg.target_dim = 3;
  EXPECT_THROW(LinearLocalizer(cfg).locate(profile), std::invalid_argument);
}

TEST(Localizer, NoisyDataStillAccurate) {
  // The paper's simulation default: N(0, 0.1) phase noise.
  const Vec3 target{0.0, 1.0, 0.0};
  const auto profile = synthetic(two_lines_2d(), target, 0.1, 77);
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  cfg.method = SolveMethod::kWeightedLeastSquares;
  const auto r = LinearLocalizer(cfg).locate(profile);
  EXPECT_LT(linalg::distance(r.position, target), 0.03);
}

TEST(Localizer, WlsIterationCountReported) {
  const auto profile = synthetic(two_lines_2d(), {0.0, 0.8, 0.0}, 0.05);
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  cfg.method = SolveMethod::kWeightedLeastSquares;
  const auto r = LinearLocalizer(cfg).locate(profile);
  EXPECT_EQ(r.solver_iterations, 1u);
}

TEST(Localizer, IrlsRunsMultipleIterations) {
  const auto profile = synthetic(two_lines_2d(), {0.0, 0.8, 0.0}, 0.1, 5);
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  cfg.method = SolveMethod::kIterativeReweighted;
  const auto r = LinearLocalizer(cfg).locate(profile);
  EXPECT_GE(r.solver_iterations, 1u);
}

TEST(Localizer, EquationsCountReported) {
  const auto profile = synthetic(two_lines_2d(), {0.0, 0.8, 0.0});
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  const auto r = LinearLocalizer(cfg).locate(profile);
  EXPECT_GT(r.equations, 10u);
}

TEST(Localizer, CustomPairsPath) {
  const auto profile = synthetic(two_lines_2d(), {0.1, 0.7, 0.0});
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  const auto pairs = spread_pairs(profile, 0.2, 300);
  const auto r = LinearLocalizer(cfg).locate_with_pairs(profile, pairs);
  EXPECT_NEAR(linalg::distance(r.position, {0.1, 0.7, 0.0}), 0.0, 1e-5);
}

TEST(Localizer, ValidatesConfig) {
  LocalizerConfig bad_dim;
  bad_dim.target_dim = 4;
  EXPECT_THROW(LinearLocalizer{bad_dim}, std::invalid_argument);
  LocalizerConfig bad_wl;
  bad_wl.wavelength = 0.0;
  EXPECT_THROW(LinearLocalizer{bad_wl}, std::invalid_argument);
  LocalizerConfig bad_int;
  bad_int.pair_interval = -1.0;
  EXPECT_THROW(LinearLocalizer{bad_int}, std::invalid_argument);
}

TEST(Localizer, ThrowsOnTinyProfile) {
  LocalizerConfig cfg;
  signal::PhaseProfile tiny{{{0.0, 0.0, 0.0}, 0.0, 0.0},
                            {{0.1, 0.0, 0.0}, 0.1, 0.0}};
  EXPECT_THROW(LinearLocalizer(cfg).locate(tiny), std::invalid_argument);
}

TEST(Localizer, ThrowsWhenNoPairsFit) {
  const auto profile = synthetic(dense_line(-0.05, 0.05, 0.0, 0.0),
                                 {0.0, 1.0, 0.0});
  LocalizerConfig cfg;
  cfg.pair_interval = 0.5;  // longer than the whole scan
  EXPECT_THROW(LinearLocalizer(cfg).locate(profile), std::invalid_argument);
}

TEST(Localizer, SolveMethodNames) {
  EXPECT_EQ(std::string(solve_method_name(SolveMethod::kLeastSquares)), "LS");
  EXPECT_EQ(std::string(solve_method_name(SolveMethod::kWeightedLeastSquares)),
            "WLS");
  EXPECT_EQ(std::string(solve_method_name(SolveMethod::kIterativeReweighted)),
            "IRLS");
}

TEST(Localizer, SigmaNearZeroOnNoiselessData) {
  const auto profile = synthetic(two_lines_2d(), {0.1, 0.8, 0.0});
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  const auto r = LinearLocalizer(cfg).locate(profile);
  ASSERT_EQ(r.sigma.size(), 3u);  // x, y, d_r
  EXPECT_LT(r.position_sigma, 1e-6);
}

TEST(Localizer, SigmaGrowsWithNoise) {
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  const auto quiet_r = LinearLocalizer(cfg).locate(
      synthetic(two_lines_2d(), {0.1, 0.8, 0.0}, 0.02, 9));
  const auto loud_r = LinearLocalizer(cfg).locate(
      synthetic(two_lines_2d(), {0.1, 0.8, 0.0}, 0.2, 9));
  EXPECT_GT(loud_r.position_sigma, 3.0 * quiet_r.position_sigma);
}

TEST(Localizer, SigmaPredictsActualErrorScale) {
  // The reported one-sigma should be within an order of magnitude of the
  // realized error, averaged over trials.
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  const Vec3 target{0.0, 0.8, 0.0};
  double err_sum = 0.0;
  double sigma_sum = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto r = LinearLocalizer(cfg).locate(
        synthetic(two_lines_2d(), target, 0.1, seed));
    err_sum += linalg::distance(r.position, target);
    sigma_sum += r.position_sigma;
  }
  EXPECT_GT(sigma_sum, 0.1 * err_sum);
  EXPECT_LT(sigma_sum, 10.0 * err_sum);
}

TEST(Localizer, SigmaGrowsWithDepth) {
  // Geometric dilution: a farther target is less constrained by the same
  // scan, so the predicted uncertainty must grow.
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  const auto near_r = LinearLocalizer(cfg).locate(
      synthetic(two_lines_2d(), {0.0, 0.6, 0.0}, 0.1, 3));
  const auto far_r = LinearLocalizer(cfg).locate(
      synthetic(two_lines_2d(), {0.0, 1.6, 0.0}, 0.1, 3));
  EXPECT_GT(far_r.position_sigma, near_r.position_sigma);
}

TEST(Localizer, CircularTrajectory2D) {
  // Fig. 6 setup: circle of radius 0.3 m, antenna 1 m away.
  std::vector<Vec3> ps;
  for (int i = 0; i < 120; ++i) {
    const double a = rf::kTwoPi * i / 120.0;
    ps.push_back({0.3 * std::cos(a), 0.3 * std::sin(a), 0.0});
  }
  const Vec3 target{1.0, 0.0, 0.0};
  const auto profile = synthetic(ps, target);
  LocalizerConfig cfg;
  cfg.target_dim = 2;
  cfg.pair_interval = 0.25;
  const auto r = LinearLocalizer(cfg).locate(profile);
  EXPECT_NEAR(linalg::distance(r.position, target), 0.0, 1e-4);
}

void expect_same_result(const LocalizationResult& got,
                        const LocalizationResult& want) {
  EXPECT_EQ(got.position, want.position);
  EXPECT_EQ(got.reference_distance, want.reference_distance);
  EXPECT_EQ(got.mean_residual, want.mean_residual);
  EXPECT_EQ(got.rms_residual, want.rms_residual);
  EXPECT_EQ(got.equations, want.equations);
  EXPECT_EQ(got.trajectory_rank, want.trajectory_rank);
  EXPECT_EQ(got.perpendicular_recovered, want.perpendicular_recovered);
  EXPECT_EQ(got.solver_iterations, want.solver_iterations);
  EXPECT_EQ(got.inlier_fraction, want.inlier_fraction);
  EXPECT_EQ(got.condition, want.condition);
  EXPECT_EQ(got.sigma, want.sigma);
  EXPECT_EQ(got.position_sigma, want.position_sigma);
}

TEST(Localizer, PreparedProfileLocatesBitIdenticallyAtEveryInterval) {
  // One prepare() serves every interval, as the adaptive sweep's interval
  // cells share their window's: each answer must equal a plain locate().
  auto ps = dense_line(-0.5, 0.5, 0.0, 0.0, 0.01);
  const auto l2 = dense_line(-0.5, 0.5, -0.2, 0.0, 0.01);
  ps.insert(ps.end(), l2.begin(), l2.end());
  const auto profile = synthetic(ps, {0.05, 0.8, 0.0}, 0.05, 9);
  linalg::SolverWorkspace ws;
  for (const SolveMethod m :
       {SolveMethod::kWeightedLeastSquares, SolveMethod::kHuberIrls,
        SolveMethod::kRansac}) {
    linalg::SolverWorkspace* const none = nullptr;
    for (linalg::SolverWorkspace* w : {&ws, none}) {
      LocalizerConfig cfg;
      cfg.method = m;
      cfg.workspace = w;
      const ProfilePrep prep = LinearLocalizer(cfg).prepare(profile);
      for (const double interval : {0.1, 0.2, 0.35}) {
        SCOPED_TRACE(std::string(solve_method_name(m)) +
                     (w ? " workspace" : " call-local workspace") +
                     " interval " + std::to_string(interval));
        cfg.pair_interval = interval;
        const LinearLocalizer localizer(cfg);
        expect_same_result(localizer.locate(profile, prep),
                           localizer.locate(profile));
      }
      // No pairs fit: the same throw as locate().
      cfg.pair_interval = 5.0;
      EXPECT_THROW(LinearLocalizer(cfg).locate(profile, prep),
                   std::invalid_argument);
    }
  }
  // prepare() rejects what locate() rejects before pairing.
  LocalizerConfig cfg3;
  cfg3.target_dim = 3;
  const auto line =
      synthetic(dense_line(-0.5, 0.5, 0.0, 0.0), {0.0, 1.0, 0.0});
  EXPECT_THROW(LinearLocalizer(cfg3).prepare(line), std::invalid_argument);
  EXPECT_THROW(LinearLocalizer({}).prepare(signal::PhaseProfile(2)),
               std::invalid_argument);
}

TEST(Localizer, WorkspacePathBitIdenticalForRobustMethods) {
  // Three lines (3D fix) with noise and a burst of corrupted phases: the
  // robust methods, built straight into a workspace (rows factored in
  // place for the condition estimate), must answer exactly as the Matrix
  // references on the same system: the classic IRLS (on the consensus
  // rows, for RANSAC) and HouseholderQR's condition estimate.
  auto ps = dense_line(-0.5, 0.5, 0.0, 0.0, 0.01);
  const auto l2 = dense_line(-0.5, 0.5, -0.2, 0.0, 0.01);
  const auto l3 = dense_line(-0.5, 0.5, 0.0, 0.2, 0.01);
  ps.insert(ps.end(), l2.begin(), l2.end());
  ps.insert(ps.end(), l3.begin(), l3.end());
  auto profile = synthetic(ps, {0.05, 0.8, 0.1}, 0.05, 7);
  for (std::size_t i = 40; i < 55; ++i) profile[i].phase += 1.5;
  const TrajectoryFrame frame = analyze_frame(profile, 3);
  ASSERT_EQ(frame.rank, 3u);
  linalg::SolverWorkspace ws;
  for (const SolveMethod m :
       {SolveMethod::kIterativeReweighted, SolveMethod::kHuberIrls,
        SolveMethod::kTukeyIrls, SolveMethod::kRansac}) {
    SCOPED_TRACE(solve_method_name(m));
    LocalizerConfig cfg;
    cfg.target_dim = 3;
    cfg.method = m;
    cfg.pair_interval = 0.1;
    cfg.side_hint = Vec3{0.0, 1.0, 0.0};

    const auto pairs = ladder_pairs(profile, cfg.pair_interval,
                                    cfg.pair_tolerance, cfg.pair_stride);
    const LinearSystem sys = build_system(profile, frame, pairs,
                                          profile.size() / 2, cfg.wavelength);
    linalg::IrlsOptions irls = cfg.irls;
    if (m == SolveMethod::kHuberIrls) irls.loss = linalg::RobustLoss::kHuber;
    if (m == SolveMethod::kTukeyIrls) irls.loss = linalg::RobustLoss::kTukey;
    linalg::Matrix a = sys.a;
    std::vector<double> k = sys.k;
    double inliers = 1.0;
    if (m == SolveMethod::kRansac) {
      const RansacResult rr = ransac_solve(sys.a, sys.k, cfg.ransac);
      inliers = rr.inlier_fraction;
      k.clear();
      for (std::size_t i = 0; i < sys.k.size(); ++i) {
        if (rr.inlier_mask[i]) k.push_back(sys.k[i]);
      }
      a = linalg::Matrix(k.size(), sys.a.cols());
      for (std::size_t i = 0, r = 0; i < sys.k.size(); ++i) {
        if (!rr.inlier_mask[i]) continue;
        for (std::size_t c = 0; c < a.cols(); ++c) a(r, c) = sys.a(i, c);
        ++r;
      }
      irls = cfg.ransac.irls;
      irls.loss = cfg.ransac.refit_loss;
    }
    const linalg::LstsqResult ref = linalg::solve_irls(a, k, irls);

    const auto want = LinearLocalizer(cfg).locate(profile);
    EXPECT_EQ(want.equations, sys.a.rows());
    EXPECT_EQ(want.rms_residual, ref.rms_residual);
    EXPECT_EQ(want.mean_residual, ref.mean_residual);
    EXPECT_EQ(want.solver_iterations, ref.iterations);
    EXPECT_EQ(want.inlier_fraction, inliers);
    EXPECT_EQ(want.condition,
              linalg::HouseholderQR(sys.a).condition_estimate());
    EXPECT_EQ(want.position,
              frame.from_local({ref.x[0], ref.x[1], ref.x[2]}));
    EXPECT_EQ(want.reference_distance, std::abs(ref.x[3]));

    // Twice through one caller-owned workspace: the same answer as the
    // call-local one, and the first solve's in-place QR must not leak
    // into the second.
    cfg.workspace = &ws;
    for (int pass = 0; pass < 2; ++pass) {
      SCOPED_TRACE("pass " + std::to_string(pass));
      expect_same_result(LinearLocalizer(cfg).locate(profile), want);
    }
  }
}

TEST(Localizer, FailedRobustSolveThrowsDomainErrorNamingStatus) {
  // Constant phase: every distance delta is zero, so the d_r column of
  // the system is zero and no robust method can solve it.
  auto ps = dense_line(-0.5, 0.5, 0.0, 0.0, 0.01);
  const auto l2 = dense_line(-0.5, 0.5, -0.2, 0.0, 0.01);
  ps.insert(ps.end(), l2.begin(), l2.end());
  signal::PhaseProfile profile;
  for (const auto& pos : ps) profile.push_back({pos, 1.0, 0.0});
  linalg::SolverWorkspace ws;
  for (const SolveMethod m :
       {SolveMethod::kIterativeReweighted, SolveMethod::kHuberIrls,
        SolveMethod::kTukeyIrls, SolveMethod::kRansac}) {
    linalg::SolverWorkspace* const none = nullptr;
    for (linalg::SolverWorkspace* w : {&ws, none}) {
      SCOPED_TRACE(std::string(solve_method_name(m)) +
                   (w ? " workspace" : " call-local workspace"));
      LocalizerConfig cfg;
      cfg.method = m;
      cfg.workspace = w;
      try {
        LinearLocalizer(cfg).locate(profile);
        ADD_FAILURE() << "expected std::domain_error";
      } catch (const std::domain_error& e) {
        EXPECT_NE(std::string(e.what()).find(linalg::solve_status_name(
                      linalg::SolveStatus::kRankDeficient)),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace lion::core
