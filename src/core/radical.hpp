// Radical-line / intersection-circle equation construction (Eq. 5-9).
//
// For a pair of scan positions (i, j) with unwrapped phases theta_i,
// theta_j, express distances as d = d_r + delta_d (Eq. 6) with
// delta_d = lambda/(4*pi) * (theta - theta_ref), and subtract the two
// circle/sphere equations. In the scan's local frame with coordinates q
// this yields one *linear* equation in the unknowns [a; d_r] (a = antenna
// coordinates in the frame):
//
//   2 (q_i - q_j) . a + 2 (dd_i - dd_j) d_r
//       = |q_i|^2 - |q_j|^2 - dd_i^2 + dd_j^2.
//
// Components of the antenna position orthogonal to the frame cancel in the
// subtraction — that is the lower-dimension issue, handled downstream.
#pragma once

#include <cstddef>
#include <vector>

#include "core/frame.hpp"
#include "core/pairing.hpp"
#include "linalg/matrix.hpp"
#include "linalg/small.hpp"
#include "signal/profile.hpp"

namespace lion::core {

/// The assembled linear system A x = k with x = [a_1..a_rank, d_r].
struct LinearSystem {
  linalg::Matrix a;           ///< N x (rank + 1) coefficient matrix
  std::vector<double> k;      ///< right-hand side
  std::size_t reference_index = 0;  ///< profile index of the reference
  std::vector<double> delta_d;      ///< per-profile-point distance deltas
};

/// What every system over one profile shares, whatever its pairs: the
/// reference sample, each point's distance delta relative to it (Eq. 6)
/// and each point's local frame coordinates (frame.rank per point,
/// point-major).
struct ProfileTerms {
  std::size_t reference_index = 0;
  std::vector<double> delta_d;
  std::vector<double> local;
};

/// The ProfileTerms of `profile` in `frame`. Throws std::invalid_argument
/// on an out-of-range reference.
ProfileTerms profile_terms(const signal::PhaseProfile& profile,
                           const TrajectoryFrame& frame,
                           std::size_t reference_index, double wavelength);

/// Build the system for the given pairs. `reference_index` selects the
/// reference sample whose distance becomes the unknown d_r. Throws
/// std::invalid_argument on an out-of-range reference or empty pairs.
LinearSystem build_system(const signal::PhaseProfile& profile,
                          const TrajectoryFrame& frame,
                          const std::vector<IndexPair>& pairs,
                          std::size_t reference_index, double wavelength);

/// The same system from precomputed terms of a frame of rank `rank`.
/// Throws std::invalid_argument on empty pairs or a pair index past the
/// terms' points.
LinearSystem build_system(const ProfileTerms& terms, std::size_t rank,
                          const std::vector<IndexPair>& pairs);

/// The same rows and rhs written straight into a solver workspace (rank +
/// 1 must be at most linalg::kSmallMaxCols), bit-identical to
/// ws.load(build_system(...).a, .k) without the Matrix. Same checks.
void build_system_into(const ProfileTerms& terms, std::size_t rank,
                       const std::vector<IndexPair>& pairs,
                       linalg::SolverWorkspace& ws);

}  // namespace lion::core
