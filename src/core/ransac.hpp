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

/// Solve A x = b by LMedS consensus sampling + robust refit, through a
/// call-local SolverWorkspace. Throws std::invalid_argument when
/// b.size() != a.rows(), the system is underdetermined (fewer rows than
/// columns) or a.cols() is not in [1, linalg::kSmallMaxCols]; throws
/// std::domain_error naming the linalg::SolveStatus when even the
/// full-row fallback cannot solve the system.
RansacResult ransac_solve(const linalg::Matrix& a,
                          const std::vector<double>& b,
                          const RansacOptions& options = {});

/// Same solve through a caller-owned workspace and result: (re)loads `ws`
/// with the system and runs ransac_solve_loaded. Reusing both across
/// calls makes the solve allocation-free. Throws std::invalid_argument as
/// the overload above; a solver failure is the returned status.
linalg::SolveStatus ransac_solve(const linalg::Matrix& a,
                                 const std::vector<double>& b,
                                 const RansacOptions& options,
                                 linalg::SolverWorkspace& ws,
                                 RansacResult& out);

/// The consensus solve over the system already loaded into `ws` (load, or
/// built in place with SolverWorkspace::reshape). Every sampling
/// iteration, score and refit runs on the workspace's rows and scratch.
///
/// `prior_mask` (one char per row, or nullptr) warm-starts the sampling
/// tournament for sliding-window callers: the OLS fit over the previous
/// window's consensus rows sets the LMedS bar before any random subset is
/// drawn, so the median prescreen rejects most candidates in one
/// comparison pass; a stale prior simply loses the tournament. With no
/// prior the solve is the cold one.
///
/// Returns kUnderdetermined when the system has fewer rows than columns,
/// and the full-row fallback's status when it has to run and fails; `out`
/// is unspecified unless the status is kOk.
linalg::SolveStatus ransac_solve_loaded(const RansacOptions& options,
                                        linalg::SolverWorkspace& ws,
                                        RansacResult& out,
                                        const char* prior_mask = nullptr);

}  // namespace lion::core
