#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "rf/phase_model.hpp"
#include "rf/rng.hpp"

namespace lion::core {
namespace {

using linalg::Vec3;

signal::PhaseProfile noisy_two_line_profile(const Vec3& target, double sigma,
                                            std::uint64_t seed) {
  rf::Rng rng(seed);
  signal::PhaseProfile p;
  for (double y : {0.0, -0.2}) {
    for (double x = -0.6; x <= 0.6 + 1e-12; x += 0.005) {
      const Vec3 pos{x, y, 0.0};
      const double d = linalg::distance(pos, target);
      p.push_back({pos, rf::distance_phase(d) + rng.gaussian(sigma), 0.0});
    }
  }
  return p;
}

TEST(Adaptive, EvaluatesFullCandidateGrid) {
  const Vec3 target{0.0, 0.8, 0.0};
  const auto profile = noisy_two_line_profile(target, 0.05, 1);
  AdaptiveConfig cfg;
  cfg.ranges = {0.6, 0.8, 1.0};
  cfg.intervals = {0.15, 0.25};
  cfg.base.target_dim = 2;
  const auto r = locate_adaptive(profile, cfg);
  EXPECT_EQ(r.candidates.size(), 6u);
}

TEST(Adaptive, SelectedSubsetNonEmptyAndSorted) {
  const Vec3 target{0.0, 0.8, 0.0};
  const auto profile = noisy_two_line_profile(target, 0.08, 2);
  AdaptiveConfig cfg;
  cfg.base.target_dim = 2;
  const auto r = locate_adaptive(profile, cfg);
  ASSERT_FALSE(r.selected.empty());
  for (std::size_t i = 1; i < r.selected.size(); ++i) {
    EXPECT_LE(std::abs(r.selected[i - 1].result.mean_residual),
              std::abs(r.selected[i].result.mean_residual));
  }
}

TEST(Adaptive, EstimateIsAccurateUnderNoise) {
  const Vec3 target{0.0, 0.8, 0.0};
  const auto profile = noisy_two_line_profile(target, 0.1, 3);
  AdaptiveConfig cfg;
  cfg.base.target_dim = 2;
  const auto r = locate_adaptive(profile, cfg);
  EXPECT_LT(linalg::distance(r.position, target), 0.03);
}

TEST(Adaptive, BestCandidateHasSmallestAbsMeanResidual) {
  const auto profile = noisy_two_line_profile({0.0, 0.8, 0.0}, 0.08, 4);
  AdaptiveConfig cfg;
  cfg.base.target_dim = 2;
  const auto r = locate_adaptive(profile, cfg);
  double best = std::abs(r.selected.front().result.mean_residual);
  for (const auto& c : r.candidates) {
    if (c.usable) {
      EXPECT_GE(std::abs(c.result.mean_residual), best - 1e-15);
    }
  }
  EXPECT_EQ(r.best_range, r.selected.front().range);
  EXPECT_EQ(r.best_interval, r.selected.front().interval);
}

TEST(Adaptive, KeepFractionOneAveragesAllUsable) {
  const auto profile = noisy_two_line_profile({0.0, 0.8, 0.0}, 0.05, 5);
  AdaptiveConfig cfg;
  cfg.base.target_dim = 2;
  cfg.keep_fraction = 1.0;
  const auto r = locate_adaptive(profile, cfg);
  std::size_t usable = 0;
  for (const auto& c : r.candidates) usable += c.usable ? 1 : 0;
  EXPECT_EQ(r.selected.size(), usable);
}

TEST(Adaptive, UnusableCombinationsAreMarkedNotFatal) {
  const auto profile = noisy_two_line_profile({0.0, 0.8, 0.0}, 0.05, 6);
  AdaptiveConfig cfg;
  cfg.base.target_dim = 2;
  cfg.ranges = {0.05, 0.8};      // 5 cm window: too small for the intervals
  cfg.intervals = {0.25};
  const auto r = locate_adaptive(profile, cfg);
  bool any_unusable = false;
  bool any_usable = false;
  for (const auto& c : r.candidates) {
    any_unusable = any_unusable || !c.usable;
    any_usable = any_usable || c.usable;
  }
  EXPECT_TRUE(any_unusable);
  EXPECT_TRUE(any_usable);
}

TEST(Adaptive, ThrowsWhenNothingSolvable) {
  const auto profile = noisy_two_line_profile({0.0, 0.8, 0.0}, 0.05, 7);
  AdaptiveConfig cfg;
  cfg.base.target_dim = 2;
  cfg.ranges = {0.01};      // nothing fits
  cfg.intervals = {0.5};
  EXPECT_THROW(locate_adaptive(profile, cfg), std::invalid_argument);
}

TEST(Adaptive, ThrowsOnEmptyCandidateLists) {
  const auto profile = noisy_two_line_profile({0.0, 0.8, 0.0}, 0.05, 8);
  AdaptiveConfig cfg;
  cfg.ranges = {};
  EXPECT_THROW(locate_adaptive(profile, cfg), std::invalid_argument);
}

TEST(Adaptive, RejectsIllConditionedWindows) {
  // A window whose pairs barely span one axis solves but with a huge
  // condition estimate; max_condition must keep it out of the average.
  const auto profile = noisy_two_line_profile({0.0, 0.8, 0.0}, 0.05, 21);
  AdaptiveConfig strict;
  strict.base.target_dim = 2;
  strict.max_condition = 1.0;  // nothing passes
  EXPECT_THROW(locate_adaptive(profile, strict), std::invalid_argument);

  AdaptiveConfig lax;
  lax.base.target_dim = 2;
  lax.max_condition = 1e12;
  EXPECT_NO_THROW(locate_adaptive(profile, lax));
}

TEST(Adaptive, MinEquationsGuardsOverfit) {
  const auto profile = noisy_two_line_profile({0.0, 0.8, 0.0}, 0.05, 22);
  AdaptiveConfig cfg;
  cfg.base.target_dim = 2;
  cfg.min_equations = 100000;  // no candidate can reach this
  EXPECT_THROW(locate_adaptive(profile, cfg), std::invalid_argument);
}

TEST(Adaptive, RangeCenterShiftsWindow) {
  // Profile spanning 0..1.2 m: centering at 0.6 keeps data, centering at
  // -5 m discards everything.
  rf::Rng rng(9);
  signal::PhaseProfile p;
  const Vec3 target{0.6, 0.8, 0.0};
  for (double y : {0.0, -0.2}) {
    for (double x = 0.0; x <= 1.2; x += 0.005) {
      const Vec3 pos{x, y, 0.0};
      p.push_back({pos, rf::distance_phase(linalg::distance(pos, target)) +
                            rng.gaussian(0.05),
                   0.0});
    }
  }
  AdaptiveConfig cfg;
  cfg.base.target_dim = 2;
  cfg.range_center_x = 0.6;
  const auto r = locate_adaptive(p, cfg);
  EXPECT_LT(linalg::distance(r.position, target), 0.03);

  cfg.range_center_x = -5.0;
  EXPECT_THROW(locate_adaptive(p, cfg), std::invalid_argument);
}

TEST(Adaptive, InvalidIntervalCellIsUnusableNotFatal) {
  // A non-positive interval fails the localizer's own config check; that
  // cell is unusable and the window's other cells still share its prep.
  const auto profile = noisy_two_line_profile({0.0, 0.8, 0.0}, 0.05, 6);
  AdaptiveConfig cfg;
  cfg.base.target_dim = 2;
  cfg.ranges = {0.8};
  cfg.intervals = {0.0, 0.25};
  const auto r = locate_adaptive(profile, cfg);
  ASSERT_EQ(r.candidates.size(), 2u);
  EXPECT_FALSE(r.candidates[0].usable);
  EXPECT_TRUE(r.candidates[1].usable);
}

TEST(Adaptive, FailedRobustSolveCellIsUnusableNotFatal) {
  // Phase held constant over the inner 0.6 m window: its distance deltas
  // are all zero, so its systems have a zero d_r column and every robust
  // solve there fails (the localizer's std::domain_error). The wider
  // window sees the varying phase outside and still solves.
  const Vec3 target{0.0, 0.8, 0.0};
  signal::PhaseProfile profile;
  for (double y : {0.0, -0.2}) {
    for (double x = -0.6; x <= 0.6 + 1e-12; x += 0.005) {
      const Vec3 pos{x, y, 0.0};
      profile.push_back(
          {pos,
           std::abs(x) <= 0.32
               ? 1.0
               : rf::distance_phase(linalg::distance(pos, target)),
           0.0});
    }
  }
  for (const SolveMethod m : {SolveMethod::kHuberIrls, SolveMethod::kRansac}) {
    SCOPED_TRACE(solve_method_name(m));
    AdaptiveConfig cfg;
    cfg.base.target_dim = 2;
    cfg.base.method = m;
    cfg.ranges = {0.6, 1.2};
    cfg.intervals = {0.25};
    cfg.max_condition = 1e12;
    const auto r = locate_adaptive(profile, cfg);
    ASSERT_EQ(r.candidates.size(), 2u);
    EXPECT_FALSE(r.candidates[0].usable);
    EXPECT_TRUE(r.candidates[1].usable);
  }
}

TEST(Adaptive, ClaimOrderPutsLargestWindowsAndSmallestIntervalsFirst) {
  AdaptiveConfig config;
  config.ranges = {0.6, 1.1, 0.8, 0.7};
  config.intervals = {0.2, 0.1};
  // Cells: k = range k / 2, interval k % 2. Window 1 (300 samples) comes
  // first, then window 2 (200), smaller interval first within a window;
  // windows 0 and 3 tie at 150 samples, so their cells go by interval and
  // then in cell order.
  const std::vector<std::size_t> order =
      adaptive_claim_order(config, {150, 300, 200, 150});
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 2, 5, 4, 1, 7, 0, 6}));
  // The library default grid claims the 1.1 m window's cells first.
  const AdaptiveConfig defaults;
  const auto grid = adaptive_claim_order(
      defaults, {100, 120, 140, 160, 180, 200});
  ASSERT_EQ(grid.size(), 36u);
  EXPECT_EQ(grid.front(), 30u);
  EXPECT_EQ(grid.back(), 5u);
  std::vector<bool> seen(36, false);
  for (const std::size_t k : grid) {
    ASSERT_LT(k, 36u);
    EXPECT_FALSE(seen[k]) << "cell " << k << " claimed twice";
    seen[k] = true;
  }
}

}  // namespace
}  // namespace lion::core
