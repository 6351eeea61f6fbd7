#include "core/pairing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "signal/profile.hpp"

namespace lion::core {

using linalg::Vec3;

std::vector<IndexPair> interval_pairs(const signal::PhaseProfile& profile,
                                      double interval, double tolerance,
                                      std::size_t stride) {
  if (interval <= 0.0) {
    throw std::invalid_argument("interval_pairs: interval must be positive");
  }
  if (stride == 0) stride = 1;
  const auto arcs = signal::arc_lengths(profile);
  std::vector<IndexPair> pairs;
  std::size_t j = 0;
  for (std::size_t i = 0; i < profile.size(); i += stride) {
    const double target = arcs[i] + interval;
    if (j < i + 1) j = i + 1;
    while (j < profile.size() && arcs[j] < target) ++j;
    if (j >= profile.size()) break;
    if (arcs[j] - target <= tolerance) pairs.emplace_back(i, j);
  }
  return pairs;
}

std::vector<IndexPair> ladder_pairs(const signal::PhaseProfile& profile,
                                    double interval, double tolerance,
                                    std::size_t stride) {
  return ladder_pairs_from_arcs(signal::arc_lengths(profile), interval,
                                tolerance, stride);
}

std::vector<IndexPair> ladder_pairs_from_arcs(const std::vector<double>& arcs,
                                              double interval,
                                              double tolerance,
                                              std::size_t stride) {
  if (interval <= 0.0) {
    throw std::invalid_argument("ladder_pairs: interval must be positive");
  }
  if (stride == 0) stride = 1;
  if (arcs.empty()) return {};
  const double total = arcs.back();
  // One cursor per rung L (offset interval * 2^L): arcs is nondecreasing
  // and so is arcs[i] + offset as i grows, so each rung's lower_bound
  // target only moves forward and a monotone cursor finds the same j as a
  // binary search from i + 1 would.
  std::vector<std::size_t> cursor;
  std::vector<IndexPair> pairs;
  for (std::size_t i = 0; i < arcs.size(); i += stride) {
    std::size_t rung = 0;
    for (double offset = interval; arcs[i] + offset <= total + tolerance;
         offset *= 2.0, ++rung) {
      if (rung == cursor.size()) cursor.push_back(0);
      const double target = arcs[i] + offset;
      std::size_t j = std::max(cursor[rung], i + 1);
      while (j < arcs.size() && arcs[j] < target) ++j;
      cursor[rung] = j;
      if (j == arcs.size()) break;
      if (arcs[j] - target <= tolerance) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

std::vector<IndexPair> spread_pairs(const signal::PhaseProfile& profile,
                                    double min_separation,
                                    std::size_t max_pairs,
                                    std::size_t stride) {
  if (stride == 0) stride = 1;
  const double min_sep2 = min_separation * min_separation;
  std::vector<IndexPair> pairs;
  for (std::size_t i = 0; i < profile.size() && pairs.size() < max_pairs;
       i += stride) {
    for (std::size_t j = i + stride;
         j < profile.size() && pairs.size() < max_pairs; j += stride) {
      if (linalg::squared_distance(profile[i].position, profile[j].position) >=
          min_sep2) {
        pairs.emplace_back(i, j);
      }
    }
  }
  return pairs;
}

namespace {

// Index of the profile point nearest to `target`, or npos when nothing is
// within tol.
std::size_t find_near(const signal::PhaseProfile& profile, const Vec3& target,
                      double tol) {
  std::size_t best = std::numeric_limits<std::size_t>::max();
  double best_d2 = tol * tol;
  for (std::size_t k = 0; k < profile.size(); ++k) {
    const double d2 = linalg::squared_distance(profile[k].position, target);
    if (d2 <= best_d2) {
      best_d2 = d2;
      best = k;
    }
  }
  return best;
}

}  // namespace

std::vector<IndexPair> three_line_pairs(const signal::PhaseProfile& profile,
                                        const sim::ThreeLineRig& rig,
                                        double interval,
                                        double match_tolerance) {
  if (interval <= 0.0) {
    throw std::invalid_argument("three_line_pairs: interval must be positive");
  }
  constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
  std::vector<IndexPair> pairs;
  // Anchor x positions stepped by interval across the rig span.
  for (double x = rig.x_min; x <= rig.x_max + 1e-9; x += interval) {
    const std::size_t p1 = find_near(profile, rig.point_on_line(0, x),
                                     match_tolerance);
    if (p1 == kNpos) continue;
    // Along-line pair for the x coordinate.
    if (x + interval <= rig.x_max + 1e-9) {
      const std::size_t p1_next = find_near(
          profile, rig.point_on_line(0, x + interval), match_tolerance);
      if (p1_next != kNpos && p1_next != p1) pairs.emplace_back(p1, p1_next);
    }
    // Cross-line pair L1-L3 for the y coordinate.
    const std::size_t p3 = find_near(profile, rig.point_on_line(2, x),
                                     match_tolerance);
    if (p3 != kNpos && p3 != p1) pairs.emplace_back(p1, p3);
    // Cross-line pair L1-L2 for the z coordinate.
    const std::size_t p2 = find_near(profile, rig.point_on_line(1, x),
                                     match_tolerance);
    if (p2 != kNpos && p2 != p1) pairs.emplace_back(p1, p2);
  }
  return pairs;
}

signal::PhaseProfile restrict_to_x_range(const signal::PhaseProfile& profile,
                                         double center_x, double range) {
  if (range <= 0.0) {
    throw std::invalid_argument("restrict_to_x_range: range must be positive");
  }
  signal::PhaseProfile out;
  out.reserve(profile.size());
  const double lo = center_x - 0.5 * range;
  const double hi = center_x + 0.5 * range;
  for (const auto& p : profile) {
    if (p.position[0] >= lo && p.position[0] <= hi) out.push_back(p);
  }
  return out;
}

}  // namespace lion::core
