// Robust row-subset solving for the radical-line system.
//
// The IRLS weights of Eq. (15) assume residuals are unimodal around the
// true solution; a multipath burst or a cycle slip puts a *coherent* block
// of wrong equations into A x = k, and every reweighting scheme seeded
// from the contaminated OLS fit can converge to the wrong basin. The
// classic fix is consensus sampling: fit tiny random row subsets, score
// each candidate by the median squared residual over all rows (LMedS —
// threshold-free, tolerant of up to ~50% contamination), take the
// consensus set of the best candidate, and polish it with a Huber/Tukey
// IRLS refit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"
#include "linalg/small.hpp"

namespace lion::core {

/// Consensus-solver knobs.
struct RansacOptions {
  std::size_t max_iterations = 64;  ///< random subsets tried
  /// Absolute inlier residual threshold; <= 0 derives it from the best
  /// candidate's robust scale (2.5 * LMedS sigma), which adapts to the
  /// stream's own noise floor.
  double inlier_threshold = 0.0;
  /// Minimum fraction of rows the consensus set must reach; below it the
  /// sampling result is distrusted and a full-row Huber IRLS is returned.
  double min_inlier_fraction = 0.25;
  std::uint64_t seed = 0x5EEDC0DEULL;  ///< subset-sampling seed
  /// Loss used for the final refit on the consensus rows.
  linalg::RobustLoss refit_loss = linalg::RobustLoss::kHuber;
  linalg::IrlsOptions irls{};  ///< refit convergence control
};

/// Consensus-solve outcome.
struct RansacResult {
  linalg::LstsqResult solution;    ///< refit on the consensus rows
  std::vector<char> inlier_mask;   ///< per-row consensus membership
  double inlier_fraction = 0.0;    ///< |consensus| / rows
  std::size_t iterations = 0;      ///< subsets actually evaluated
  /// True when a consensus set was found; false when sampling failed and
  /// `solution` is the full-row robust-IRLS fallback.
  bool consensus = false;
};

/// Solve A x = b by LMedS consensus sampling + robust refit. Requires
/// b.size() == a.rows(); throws std::invalid_argument otherwise or when
/// the system is underdetermined (fewer rows than columns).
RansacResult ransac_solve(const linalg::Matrix& a,
                          const std::vector<double>& b,
                          const RansacOptions& options = {});

/// Same solve through a caller-owned SolverWorkspace: bit-identical
/// results, but for systems with cols <= linalg::kSmallMaxCols every
/// sampling iteration, score, and refit runs on the workspace's cached
/// row products and scratch buffers — a warmed workspace makes the whole
/// consensus loop allocation-free apart from the returned result. The
/// workspace is (re)loaded with this system.
RansacResult ransac_solve(const linalg::Matrix& a,
                          const std::vector<double>& b,
                          const RansacOptions& options,
                          linalg::SolverWorkspace& ws);

/// Same, writing into a caller-owned result: reusing `out` across calls
/// removes the last steady-state allocations (mask + solution vectors).
void ransac_solve(const linalg::Matrix& a, const std::vector<double>& b,
                  const RansacOptions& options, linalg::SolverWorkspace& ws,
                  RansacResult& out);

/// Same solve over the system already loaded into `ws` (built in place
/// with SolverWorkspace::reshape / commit, so cols() <= kSmallMaxCols):
/// bit-identical to ransac_solve on that system. Throws
/// std::invalid_argument when it has fewer rows than columns.
void ransac_solve_loaded(const RansacOptions& options,
                         linalg::SolverWorkspace& ws, RansacResult& out);

/// Warm-started consensus solve for sliding-window callers: seed the
/// sampling tournament with the OLS fit over `prior_inliers` (the previous
/// window's consensus mask, mapped onto this system's rows — one char per
/// row; any other length is treated as no prior). A still-valid prior sets
/// the LMedS bar immediately, so the median prescreen rejects most random
/// candidates in one comparison pass; a stale prior simply loses the
/// tournament. With an empty prior this is bit-identical to ransac_solve.
void ransac_solve_warm(const linalg::Matrix& a, const std::vector<double>& b,
                       const RansacOptions& options,
                       linalg::SolverWorkspace& ws,
                       const std::vector<char>& prior_inliers,
                       RansacResult& out);

}  // namespace lion::core
