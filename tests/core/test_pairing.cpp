#include "core/pairing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>

#include "rf/rng.hpp"
#include "sim/trajectory.hpp"

namespace lion::core {
namespace {

using linalg::Vec3;

// Evenly spaced points along x, 1 cm apart.
signal::PhaseProfile x_line(std::size_t n, double spacing = 0.01) {
  signal::PhaseProfile p;
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back({{spacing * static_cast<double>(i), 0.0, 0.0}, 0.0, 0.0});
  }
  return p;
}

TEST(IntervalPairs, PairsAreRequestedDistanceApart) {
  const auto profile = x_line(101);  // 0..1 m
  const auto pairs = interval_pairs(profile, 0.2);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [i, j] : pairs) {
    const double d =
        linalg::distance(profile[i].position, profile[j].position);
    EXPECT_NEAR(d, 0.2, 0.011);
  }
}

TEST(IntervalPairs, CountMatchesGeometry) {
  const auto profile = x_line(101);
  // Interval 0.2 m on a 1 m scan with stride 1: anchors 0..80 cm -> 81.
  const auto pairs = interval_pairs(profile, 0.2);
  EXPECT_EQ(pairs.size(), 81u);
}

TEST(IntervalPairs, StrideSubsamples) {
  const auto profile = x_line(101);
  const auto dense = interval_pairs(profile, 0.2, 0.02, 1);
  const auto sparse = interval_pairs(profile, 0.2, 0.02, 10);
  EXPECT_GT(dense.size(), 5 * sparse.size());
}

TEST(IntervalPairs, TooLargeIntervalYieldsNothing) {
  const auto profile = x_line(11);  // 10 cm scan
  EXPECT_TRUE(interval_pairs(profile, 0.5).empty());
}

TEST(IntervalPairs, RejectsNonPositiveInterval) {
  const auto profile = x_line(10);
  EXPECT_THROW(interval_pairs(profile, 0.0), std::invalid_argument);
  EXPECT_THROW(interval_pairs(profile, -0.1), std::invalid_argument);
}

TEST(IntervalPairs, SkipsAcrossStreamGaps) {
  // A big hole in the stream: anchors just before the hole would need a
  // partner deep inside it; the tolerance must reject the overshoot.
  signal::PhaseProfile profile;
  for (int i = 0; i <= 20; ++i) {
    profile.push_back({{0.01 * i, 0.0, 0.0}, 0.0, 0.0});
  }
  for (int i = 0; i <= 20; ++i) {
    profile.push_back({{0.8 + 0.01 * i, 0.0, 0.0}, 0.0, 0.0});
  }
  const auto pairs = interval_pairs(profile, 0.1, 0.02);
  for (const auto& [i, j] : pairs) {
    const double d =
        linalg::distance(profile[i].position, profile[j].position);
    EXPECT_LT(d, 0.13);
  }
}

TEST(LadderPairs, RungsAreGeometric) {
  const auto profile = x_line(201);  // 0..2 m
  const auto pairs = ladder_pairs(profile, 0.1, 0.02, 50);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [i, j] : pairs) {
    const double d =
        linalg::distance(profile[i].position, profile[j].position);
    // Every rung is ~0.1 * 2^k for some k >= 0.
    const double k = std::log2(d / 0.1);
    EXPECT_NEAR(k, std::round(k), 0.3) << "distance " << d;
  }
}

TEST(LadderPairs, ReachesAcrossSegmentGaps) {
  // Two parallel lines recorded back to back: ladder pairs must include
  // cross-line pairs so the perpendicular coordinate stays observable.
  signal::PhaseProfile profile;
  for (int i = 0; i <= 100; ++i) {
    profile.push_back({{0.01 * i, 0.0, 0.0}, 0.0, 0.0});
  }
  for (int i = 0; i <= 100; ++i) {
    profile.push_back({{0.01 * i, -0.2, 0.0}, 0.0, 0.0});
  }
  const auto pairs = ladder_pairs(profile, 0.2, 0.05);
  bool any_cross = false;
  for (const auto& [i, j] : pairs) {
    if (std::abs(profile[i].position[1] - profile[j].position[1]) > 0.1) {
      any_cross = true;
    }
  }
  EXPECT_TRUE(any_cross);
}

TEST(LadderPairs, MoreThanIntervalPairsAlone) {
  const auto profile = x_line(201);
  EXPECT_GT(ladder_pairs(profile, 0.2, 0.02).size(),
            interval_pairs(profile, 0.2, 0.02).size());
}

TEST(LadderPairs, RejectsNonPositiveInterval) {
  EXPECT_THROW(ladder_pairs(x_line(10), 0.0), std::invalid_argument);
}

TEST(LadderPairs, EmptyProfileGivesNoPairs) {
  EXPECT_TRUE(ladder_pairs({}, 0.1).empty());
}

// ladder_pairs as it was written with one binary search per (anchor,
// rung): the reference the cursor implementation must reproduce pair for
// pair.
std::vector<IndexPair> ladder_pairs_by_search(
    const signal::PhaseProfile& profile, double interval, double tolerance,
    std::size_t stride) {
  if (stride == 0) stride = 1;
  const auto arcs = signal::arc_lengths(profile);
  if (arcs.empty()) return {};
  const double total = arcs.back();
  std::vector<IndexPair> pairs;
  for (std::size_t i = 0; i < profile.size(); i += stride) {
    for (double offset = interval; arcs[i] + offset <= total + tolerance;
         offset *= 2.0) {
      const double target = arcs[i] + offset;
      const auto it = std::lower_bound(
          arcs.begin() + static_cast<std::ptrdiff_t>(i) + 1, arcs.end(),
          target);
      if (it == arcs.end()) break;
      const auto j = static_cast<std::size_t>(std::distance(arcs.begin(), it));
      if (*it - target <= tolerance && j != i) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

void expect_same_ladder(const signal::PhaseProfile& profile, double interval,
                        double tolerance, std::size_t stride,
                        const std::string& what) {
  const auto want = ladder_pairs_by_search(profile, interval, tolerance,
                                           stride);
  const auto got = ladder_pairs(profile, interval, tolerance, stride);
  EXPECT_EQ(got, want) << what << ": interval " << interval << ", tolerance "
                       << tolerance << ", stride " << stride;
}

// The paper's three-line rig sampled at jittered read times, as a reader
// would report it (~4.5k reads at 10 cm/s).
signal::PhaseProfile rig_scan(std::uint64_t seed) {
  sim::ThreeLineRig rig;
  rig.x_min = -0.55;
  rig.x_max = 0.55;
  const auto path = rig.build();
  rf::Rng rng(seed);
  signal::PhaseProfile p;
  for (double t = 0.0; t <= path.duration();
       t += rng.uniform(0.0085, 0.0125)) {
    p.push_back({path.position(t), 0.0, t});
  }
  return p;
}

TEST(LadderPairs, CursorsMatchBinarySearchOnRigScans) {
  for (std::uint64_t seed : {1, 2, 3}) {
    const auto scan = rig_scan(seed);
    ASSERT_GT(scan.size(), 1000u);
    for (double interval : {0.10, 0.15, 0.20, 0.25, 0.30, 0.35}) {
      expect_same_ladder(scan, interval, 0.02, 1, "rig scan");
      // The adaptive sweep's windows: the rig cropped to an x range, which
      // leaves each line's middle and jumps between lines.
      for (double range : {0.6, 0.9, 1.1}) {
        expect_same_ladder(restrict_to_x_range(scan, 0.0, range), interval,
                           0.02, 1, "windowed rig scan");
      }
    }
  }
}

TEST(LadderPairs, CursorsMatchBinarySearchOnGappedSegments) {
  // Two lines recorded back to back with dropped stretches (stream gaps)
  // inside each: rungs land in gaps and fetch samples past the tolerance.
  signal::PhaseProfile profile;
  rf::Rng rng(5);
  for (double y : {0.0, -0.2, 0.2}) {
    for (int i = 0; i <= 400; ++i) {
      if ((i / 37) % 3 == 1) continue;  // a gap every third stretch
      profile.push_back({{0.0025 * i, y, 0.0}, 0.0, 0.0});
    }
  }
  for (double interval : {0.01, 0.05, 0.2, 0.33}) {
    for (double tolerance : {0.0, 0.005, 0.02, 0.1}) {
      for (std::size_t stride : {1, 2, 3, 7}) {
        expect_same_ladder(profile, interval, tolerance, stride, "gapped");
      }
    }
  }
}

TEST(LadderPairs, CursorsMatchBinarySearchOnExactTargets) {
  // Binary-exact spacing (1/8 m) so arc lengths and targets are exact:
  // with tolerance 1/8 a rung whose target sample was dropped fetches the
  // next sample at exactly target + tolerance (kept), and with tolerance
  // 1/16 just past it (skipped). Targets that land exactly on a sample
  // test lower_bound's "first >= target" edge.
  signal::PhaseProfile profile;
  for (int i = 0; i < 64; ++i) {
    if (i % 5 == 3) continue;
    profile.push_back({{0.125 * i, 0.0, 0.0}, 0.0, 0.0});
  }
  for (double interval : {0.125, 0.25, 0.375, 0.5}) {
    for (double tolerance : {0.0, 0.0625, 0.125, 0.25}) {
      for (std::size_t stride : {1, 2, 4}) {
        expect_same_ladder(profile, interval, tolerance, stride, "exact");
      }
    }
  }
}

TEST(LadderPairs, TinyIntervalNeedsManyRungs) {
  // interval 2^-60 m on a 2 m line: ~61 rungs per anchor.
  const auto profile = x_line(201);
  const double interval = std::ldexp(1.0, -60);
  const auto pairs = ladder_pairs(profile, interval, 0.02, 1);
  std::size_t longest = 0;
  for (const auto& [i, j] : pairs) {
    ASSERT_GT(j, i);
    longest = std::max(longest, j - i);
  }
  EXPECT_GT(longest, 100u);  // the top rungs reach across the line
  expect_same_ladder(profile, interval, 0.02, 1, "tiny interval");
  expect_same_ladder(profile, interval, 0.02, 3, "tiny interval");
}

TEST(SpreadPairs, AllPairsRespectMinSeparation) {
  const auto profile = x_line(51);
  const auto pairs = spread_pairs(profile, 0.3);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [i, j] : pairs) {
    EXPECT_GE(linalg::distance(profile[i].position, profile[j].position),
              0.3 - 1e-12);
  }
}

TEST(SpreadPairs, CapRespected) {
  const auto profile = x_line(101);
  const auto pairs = spread_pairs(profile, 0.05, 17);
  EXPECT_EQ(pairs.size(), 17u);
}

TEST(SpreadPairs, ZeroSeparationGivesAllPairs) {
  const auto profile = x_line(5);
  const auto pairs = spread_pairs(profile, 1e-9, 1000);
  EXPECT_EQ(pairs.size(), 10u);  // C(5,2)
}

TEST(ThreeLinePairs, GeneratesAllThreeKinds) {
  sim::ThreeLineRig rig;
  rig.x_min = -0.4;
  rig.x_max = 0.4;
  // Build a dense profile on the rig lines (no transits for simplicity).
  signal::PhaseProfile profile;
  for (int line = 0; line < 3; ++line) {
    for (double x = rig.x_min; x <= rig.x_max + 1e-9; x += 0.005) {
      profile.push_back({rig.point_on_line(line, x), 0.0, 0.0});
    }
  }
  const auto pairs = three_line_pairs(profile, rig, 0.2);
  ASSERT_FALSE(pairs.empty());
  int along = 0;
  int cross_y = 0;
  int cross_z = 0;
  for (const auto& [i, j] : pairs) {
    const Vec3 diff = profile[j].position - profile[i].position;
    if (std::abs(diff[0]) > 0.1) {
      ++along;
    } else if (std::abs(diff[1]) > 0.1) {
      ++cross_y;
    } else if (std::abs(diff[2]) > 0.1) {
      ++cross_z;
    }
  }
  EXPECT_GT(along, 0);
  EXPECT_GT(cross_y, 0);
  EXPECT_GT(cross_z, 0);
}

TEST(ThreeLinePairs, EmptyWhenProfileOffRig) {
  sim::ThreeLineRig rig;
  signal::PhaseProfile profile;
  for (int i = 0; i < 20; ++i) {
    profile.push_back({{0.01 * i, 5.0, 5.0}, 0.0, 0.0});  // far from rig
  }
  EXPECT_TRUE(three_line_pairs(profile, rig, 0.2).empty());
}

TEST(ThreeLinePairs, RejectsNonPositiveInterval) {
  sim::ThreeLineRig rig;
  EXPECT_THROW(three_line_pairs(x_line(10), rig, 0.0), std::invalid_argument);
}

TEST(RestrictToXRange, KeepsOnlyWindow) {
  // Power-of-two spacing keeps the boundary arithmetic exact.
  const auto profile = x_line(65, 0.015625);  // 0..1 m in 1/64 steps
  const auto windowed = restrict_to_x_range(profile, 0.5, 0.5);
  ASSERT_FALSE(windowed.empty());
  for (const auto& p : windowed) {
    EXPECT_GE(p.position[0], 0.25);
    EXPECT_LE(p.position[0], 0.75);
  }
  // x in [0.25, 0.75] -> i in [16, 48] -> 33 points.
  EXPECT_EQ(windowed.size(), 33u);
}

TEST(RestrictToXRange, EmptyWindowWhenOutside) {
  const auto profile = x_line(11);
  EXPECT_TRUE(restrict_to_x_range(profile, 5.0, 0.2).empty());
}

TEST(RestrictToXRange, RejectsNonPositiveRange) {
  EXPECT_THROW(restrict_to_x_range(x_line(5), 0.0, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace lion::core
