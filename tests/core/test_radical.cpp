#include "core/radical.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "rf/phase_model.hpp"

namespace lion::core {
namespace {

using linalg::Vec3;

// Noiseless unwrapped phases for a known target, arbitrary constant offset.
signal::PhaseProfile synthetic_profile(const std::vector<Vec3>& positions,
                                       const Vec3& target,
                                       double offset = 1.234) {
  signal::PhaseProfile p;
  for (const auto& pos : positions) {
    const double d = linalg::distance(pos, target);
    p.push_back({pos, rf::distance_phase(d) + offset, 0.0});
  }
  return p;
}

std::vector<Vec3> grid_positions() {
  std::vector<Vec3> ps;
  for (int i = 0; i <= 10; ++i) {
    ps.push_back({-0.5 + 0.1 * i, 0.0, 0.0});
    ps.push_back({-0.5 + 0.1 * i, -0.2, 0.0});
  }
  return ps;
}

TEST(BuildSystem, TrueSolutionSatisfiesEquationsExactly) {
  const Vec3 target{0.1, 0.8, 0.0};
  const auto profile = synthetic_profile(grid_positions(), target);
  const auto frame = analyze_frame(profile, 2);
  ASSERT_EQ(frame.rank, 2u);
  const auto pairs = spread_pairs(profile, 0.15, 500);
  const std::size_t ref = profile.size() / 2;
  const auto sys = build_system(profile, frame, pairs, ref, rf::kDefaultWavelength);

  // x_true = [local target coords, d_r].
  const auto local = frame.to_local(target);
  const double d_r = linalg::distance(target, profile[ref].position);
  std::vector<double> x_true{local[0], local[1], d_r};

  const auto lhs = sys.a.multiply(x_true);
  for (std::size_t r = 0; r < lhs.size(); ++r) {
    EXPECT_NEAR(lhs[r], sys.k[r], 1e-9) << "row " << r;
  }
}

TEST(BuildSystem, DeltaDMatchesGroundTruthDistances) {
  const Vec3 target{0.0, 1.0, 0.0};
  const auto profile = synthetic_profile(grid_positions(), target);
  const auto frame = analyze_frame(profile, 2);
  const auto pairs = spread_pairs(profile, 0.1, 100);
  const std::size_t ref = 3;
  const auto sys = build_system(profile, frame, pairs, ref, rf::kDefaultWavelength);
  const double d_ref = linalg::distance(target, profile[ref].position);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const double d_i = linalg::distance(target, profile[i].position);
    EXPECT_NEAR(sys.delta_d[i], d_i - d_ref, 1e-9);
  }
}

TEST(BuildSystem, RowCountMatchesPairs) {
  const auto profile = synthetic_profile(grid_positions(), {0.0, 1.0, 0.0});
  const auto frame = analyze_frame(profile, 2);
  const auto pairs = spread_pairs(profile, 0.2, 50);
  const auto sys = build_system(profile, frame, pairs, 0, rf::kDefaultWavelength);
  EXPECT_EQ(sys.a.rows(), pairs.size());
  EXPECT_EQ(sys.a.cols(), frame.rank + 1);
  EXPECT_EQ(sys.k.size(), pairs.size());
}

TEST(BuildSystem, CoefficientsMatchPaperFormulas) {
  // Hand-check one row against Eq. (7)'s alpha/omega for a rank-1 scan.
  std::vector<Vec3> positions;
  for (int i = 0; i <= 10; ++i) positions.push_back({0.1 * i, 0.0, 0.0});
  const Vec3 target{0.3, 0.9, 0.0};
  const auto profile = synthetic_profile(positions, target);
  const auto frame = analyze_frame(profile, 2);
  ASSERT_EQ(frame.rank, 1u);
  const std::vector<IndexPair> pairs{{2, 7}};
  const std::size_t ref = 5;
  const auto sys = build_system(profile, frame, pairs, ref, rf::kDefaultWavelength);

  const double qi = frame.to_local(profile[2].position)[0];
  const double qj = frame.to_local(profile[7].position)[0];
  EXPECT_NEAR(sys.a(0, 0), 2.0 * (qi - qj), 1e-12);
  EXPECT_NEAR(sys.a(0, 1), 2.0 * (sys.delta_d[2] - sys.delta_d[7]), 1e-12);
  EXPECT_NEAR(sys.k[0],
              qi * qi - qj * qj - sys.delta_d[2] * sys.delta_d[2] +
                  sys.delta_d[7] * sys.delta_d[7],
              1e-12);
}

TEST(BuildSystem, ReferenceChoiceDoesNotBreakConsistency) {
  const Vec3 target{-0.2, 0.7, 0.0};
  const auto profile = synthetic_profile(grid_positions(), target);
  const auto frame = analyze_frame(profile, 2);
  const auto pairs = spread_pairs(profile, 0.15, 200);
  for (std::size_t ref : {std::size_t{0}, profile.size() / 2,
                          profile.size() - 1}) {
    const auto sys =
        build_system(profile, frame, pairs, ref, rf::kDefaultWavelength);
    const auto local = frame.to_local(target);
    const double d_r = linalg::distance(target, profile[ref].position);
    const auto lhs = sys.a.multiply({local[0], local[1], d_r});
    for (std::size_t r = 0; r < lhs.size(); ++r) {
      EXPECT_NEAR(lhs[r], sys.k[r], 1e-9);
    }
  }
}

TEST(BuildSystem, ValidatesArguments) {
  const auto profile = synthetic_profile(grid_positions(), {0.0, 1.0, 0.0});
  const auto frame = analyze_frame(profile, 2);
  const auto pairs = spread_pairs(profile, 0.2, 10);
  EXPECT_THROW(
      build_system(profile, frame, pairs, profile.size(), rf::kDefaultWavelength),
      std::invalid_argument);
  EXPECT_THROW(build_system(profile, frame, {}, 0, rf::kDefaultWavelength),
               std::invalid_argument);
  EXPECT_THROW(build_system(profile, frame, {{0, profile.size()}}, 0,
                            rf::kDefaultWavelength),
               std::invalid_argument);
}

TEST(BuildSystem, ReferenceIndexExtremesProduceUsableSystems) {
  // First and last sample as reference: both are legal, and pairs that
  // contain the reference itself must not corrupt the rows.
  const Vec3 target{0.1, 0.8, 0.0};
  const auto profile = synthetic_profile(grid_positions(), target);
  const auto frame = analyze_frame(profile, 2);
  const std::vector<IndexPair> pairs{
      {0, profile.size() - 1}, {0, profile.size() / 2}, {1, profile.size() - 2}};
  for (std::size_t ref : {std::size_t{0}, profile.size() - 1}) {
    const auto sys =
        build_system(profile, frame, pairs, ref, rf::kDefaultWavelength);
    ASSERT_EQ(sys.a.rows(), pairs.size());
    // delta_d of the reference against itself must be exactly zero.
    EXPECT_EQ(sys.delta_d[ref], 0.0);
    const auto local = frame.to_local(target);
    const double d_r = linalg::distance(target, profile[ref].position);
    const auto lhs = sys.a.multiply({local[0], local[1], d_r});
    for (std::size_t r = 0; r < lhs.size(); ++r) {
      EXPECT_NEAR(lhs[r], sys.k[r], 1e-9) << "ref " << ref << " row " << r;
    }
  }
}

TEST(BuildSystem, CollinearProfileYieldsRankOneFrame) {
  // A single-line scan must come back rank 1 — the radical-line system
  // then has 2 unknowns, which is what the 2D/3D fallback logic keys on.
  std::vector<Vec3> positions;
  for (int i = 0; i <= 20; ++i) positions.push_back({0.05 * i, 0.3, 0.1});
  const auto profile = synthetic_profile(positions, {0.5, 1.0, 0.1});
  const auto frame = analyze_frame(profile, 3);
  EXPECT_EQ(frame.rank, 1u);
  const auto pairs = spread_pairs(profile, 0.1, 50);
  const auto sys = build_system(profile, frame, pairs, 0, rf::kDefaultWavelength);
  EXPECT_EQ(sys.a.cols(), 2u);
}

TEST(BuildSystem, NearCollinearProfileStaysFiniteEvenIfIllConditioned) {
  // Sub-millimetre lateral spread: whether analyze_frame keeps or drops the
  // weak direction, the assembled system must be finite.
  std::vector<Vec3> positions;
  for (int i = 0; i <= 20; ++i) {
    positions.push_back({0.05 * i, 0.3 + 2e-5 * (i % 3), 0.1});
  }
  const auto profile = synthetic_profile(positions, {0.5, 1.0, 0.1});
  const auto frame = analyze_frame(profile, 3);
  EXPECT_GE(frame.rank, 1u);
  const auto pairs = spread_pairs(profile, 0.1, 50);
  const auto sys = build_system(profile, frame, pairs, 5, rf::kDefaultWavelength);
  for (std::size_t r = 0; r < sys.a.rows(); ++r) {
    for (std::size_t c = 0; c < sys.a.cols(); ++c) {
      EXPECT_TRUE(std::isfinite(sys.a(r, c)));
    }
    EXPECT_TRUE(std::isfinite(sys.k[r]));
  }
}

TEST(BuildSystem, ThreeDSystemSatisfiedByTruth) {
  std::vector<Vec3> positions;
  for (int i = 0; i <= 10; ++i) {
    positions.push_back({-0.5 + 0.1 * i, 0.0, 0.0});
    positions.push_back({-0.5 + 0.1 * i, 0.0, 0.2});
    positions.push_back({-0.5 + 0.1 * i, -0.2, 0.0});
  }
  const Vec3 target{0.05, 0.75, 0.1};
  const auto profile = synthetic_profile(positions, target);
  const auto frame = analyze_frame(profile, 3);
  ASSERT_EQ(frame.rank, 3u);
  const auto pairs = spread_pairs(profile, 0.15, 500);
  const std::size_t ref = 7;
  const auto sys =
      build_system(profile, frame, pairs, ref, rf::kDefaultWavelength);
  const auto local = frame.to_local(target);
  const double d_r = linalg::distance(target, profile[ref].position);
  const auto lhs = sys.a.multiply({local[0], local[1], local[2], d_r});
  for (std::size_t r = 0; r < lhs.size(); ++r) {
    EXPECT_NEAR(lhs[r], sys.k[r], 1e-9);
  }
}

TEST(BuildSystem, IntoWorkspaceMatchesLoadedMatrixBitExact) {
  const Vec3 target{0.1, 0.8, 0.05};
  std::vector<Vec3> ps = grid_positions();
  for (int i = 0; i <= 10; ++i) ps.push_back({-0.5 + 0.1 * i, -0.1, 0.2});
  for (const std::size_t dim : {2, 3}) {
    const auto profile = synthetic_profile(ps, target);
    const auto frame = analyze_frame(profile, dim);
    const auto pairs = spread_pairs(profile, 0.15, 500);
    const std::size_t ref = profile.size() / 3;
    const auto sys =
        build_system(profile, frame, pairs, ref, rf::kDefaultWavelength);
    linalg::SolverWorkspace loaded;
    loaded.load(sys.a, sys.k);
    linalg::SolverWorkspace built;
    build_system_into(
        profile_terms(profile, frame, ref, rf::kDefaultWavelength),
        frame.rank, pairs, built);
    ASSERT_EQ(built.rows(), loaded.rows());
    ASSERT_EQ(built.cols(), loaded.cols());
    for (std::size_t r = 0; r < built.rows(); ++r) {
      for (std::size_t c = 0; c < built.cols(); ++c) {
        EXPECT_EQ(built.row(r)[c], loaded.row(r)[c]) << r << "," << c;
      }
      EXPECT_EQ(built.rhs(r), loaded.rhs(r)) << r;
    }
  }
}

}  // namespace
}  // namespace lion::core
