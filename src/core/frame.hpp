// Trajectory frame analysis.
//
// The linear model can only resolve antenna coordinates along directions
// the tag actually moved (Sec. III-C): subtracting two circle equations
// cancels any component orthogonal to the scan. We therefore express the
// problem in the scan's own principal frame — centroid + orthonormal axes
// from the position covariance — and flag the affine rank so the localizer
// knows whether a perpendicular coordinate must be recovered from d_r.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/vec.hpp"
#include "signal/profile.hpp"

namespace lion::core {

using linalg::Vec2;
using linalg::Vec3;

/// Principal frame of a set of scan positions.
struct TrajectoryFrame {
  Vec3 centroid{};           ///< mean position
  std::vector<Vec3> axes;    ///< orthonormal principal directions, size rank
  std::vector<double> spread;///< RMS extent along each axis [m]
  std::size_t rank = 0;      ///< affine rank of the scan

  /// The unique direction orthogonal to the scan inside the target space.
  /// Only meaningful when rank == target_dim - 1; see analyze_frame.
  Vec3 perpendicular{};
  bool has_perpendicular = false;

  /// Local (rank-dimensional) coordinates of a point: projections of
  /// (p - centroid) onto each axis.
  std::vector<double> to_local(const Vec3& p) const;
  /// The same projections written to out[0..rank) (no allocation).
  void to_local(const Vec3& p, double* out) const;

  /// Reconstruct a global point from local coordinates plus a perpendicular
  /// offset (0 when has_perpendicular is false).
  Vec3 from_local(const std::vector<double>& local, double perp = 0.0) const;
};

/// Analyze scan positions for localization in a `target_dim`-dimensional
/// space (2 or 3).
///
/// For target_dim == 2 the z coordinates are ignored (planar problem) and
/// the perpendicular, when rank == 1, is the in-plane normal of the scan
/// line. For target_dim == 3 the perpendicular, when rank == 2, is the scan
/// plane's normal. Throws std::invalid_argument for target_dim not in
/// {2, 3} or fewer than 2 positions.
///
/// `rank_tol` is the relative eigenvalue threshold deciding whether a
/// direction counts as "moved along" (default treats sub-millimetre RMS
/// wobble on a metre-scale scan as noise).
TrajectoryFrame analyze_frame(const signal::PhaseProfile& profile,
                              std::size_t target_dim, double rank_tol = 1e-6);

}  // namespace lion::core
