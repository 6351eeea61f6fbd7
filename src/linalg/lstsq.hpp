// Least-squares solvers: ordinary, weighted, and iteratively reweighted.
//
// These implement Eq. (13)-(16) of the paper:
//   X* = (A^T A)^{-1} A^T K                 (ordinary LS)
//   X* = (A^T W A)^{-1} A^T W K             (weighted LS)
// with Gaussian residual weights w_i = exp(-(r_i - mu)^2 / (2 sigma^2))
// refreshed each iteration until the estimate stabilizes.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace lion::linalg {

/// Result of a least-squares solve.
struct LstsqResult {
  std::vector<double> x;          ///< optimal solution
  std::vector<double> residuals;  ///< per-row residual r_i = A_i x - k_i
  std::vector<double> weights;    ///< final per-row weights (all 1 for OLS)
  double mean_residual = 0.0;     ///< average of residuals
  double rms_residual = 0.0;      ///< root-mean-square residual
  std::size_t iterations = 0;     ///< reweighting iterations performed
  bool converged = true;          ///< false if iteration cap was hit
};

/// Outcome of the workspace solvers. The general Matrix solvers signal a
/// failed solve by throwing std::domain_error; the workspace core returns
/// one of these instead, so a degenerate RANSAC subset is a counted
/// branch and the caller decides what a failed solve means.
enum class SolveStatus {
  kOk,               ///< solution written
  kUnderdetermined,  ///< fewer (selected) rows than unknowns
  kRankDeficient,    ///< Cholesky failed and QR found |R_ii| < kSingularTol
};

/// Stable short name ("ok", "underdetermined", "rank_deficient").
const char* solve_status_name(SolveStatus status);

/// Rows, rhs and scratch of the zero-allocation solver core; defined in
/// linalg/small.hpp.
class SolverWorkspace;

/// Ordinary least squares via the normal equations (Cholesky fast path, QR
/// fallback for ill-conditioned systems). Throws std::domain_error when the
/// system is rank deficient.
LstsqResult solve_least_squares(const Matrix& a, const std::vector<double>& b);

/// Weighted least squares with fixed per-row weights.
LstsqResult solve_weighted_least_squares(const Matrix& a,
                                         const std::vector<double>& b,
                                         const std::vector<double>& weights);

/// Robust loss selecting how residuals map to IRLS weights.
enum class RobustLoss {
  kGaussian,  ///< the paper's Eq. (15): w = exp(-z^2/2); soft down-weighting
  kHuber,     ///< w = 1 inside the tuning band, c/|z| outside; never zero
  kTukey,     ///< biweight: w = (1 - (z/c)^2)^2 inside, 0 outside; rejects
};

const char* robust_loss_name(RobustLoss loss);

/// Options for iteratively-reweighted least squares.
struct IrlsOptions {
  std::size_t max_iterations = 20;  ///< cap on reweighting rounds
  double tolerance = 1e-9;          ///< stop when ||x_k - x_{k-1}||_inf < tol
  double min_sigma = 1e-12;         ///< residual-spread floor (all-equal case)
  RobustLoss loss = RobustLoss::kGaussian;  ///< weight function
  /// Tuning constant c of the loss in robust-sigma units; 0 picks the
  /// textbook 95%-efficiency default (Huber 1.345, Tukey 4.685).
  double tuning = 0.0;
};

/// Iteratively-reweighted least squares with the paper's Gaussian weight
/// function (Eq. 15): start from OLS, compute residuals, set
/// w_i = exp(-(r_i - mu)^2 / (2 sigma^2)), re-solve, repeat to convergence.
LstsqResult solve_irls(const Matrix& a, const std::vector<double>& b,
                       const IrlsOptions& options = {});

/// The same IRLS through a SolverWorkspace: (re)loads `ws` with the system
/// and runs solve_irls_masked over every row, so a warmed workspace and a
/// reused `out` make repeated solves allocation-free. Bit-identical to the
/// overload above on the systems both solve. Throws std::invalid_argument
/// when b.size() != a.rows() or a.cols() is not in [1, kSmallMaxCols];
/// a failed solve is the returned status (`out` is then unspecified).
SolveStatus solve_irls(const Matrix& a, const std::vector<double>& b,
                       const IrlsOptions& options, SolverWorkspace& ws,
                       LstsqResult& out);

/// Non-throwing IRLS over the rows of the system *already loaded* into
/// `ws` that `mask` selects (mask == nullptr selects all rows; `count`
/// must equal the number of selected rows). Equivalent to solve_irls on
/// the materialized row-subset system — bit-identical x / residuals /
/// weights / diagnostics — but allocation-free once `ws` and `out` are
/// warm, and returning a status where the Matrix overload would throw
/// std::domain_error. On a non-kOk status `out` is unspecified.
SolveStatus solve_irls_masked(SolverWorkspace& ws, const char* mask,
                              std::size_t count, const IrlsOptions& options,
                              LstsqResult& out);

/// The paper's Eq. (15) weight vector for a given residual vector.
std::vector<double> gaussian_residual_weights(
    const std::vector<double>& residuals, double min_sigma = 1e-12);

/// Minimum *mean* robust weight (weight mass / rows) below which a
/// hard-rejecting loss is considered to have zeroed the system and the
/// Huber weights are used instead. Dimensionless, unlike the residual
/// scale floor min_sigma.
inline constexpr double kMinMeanRobustWeight = 1e-12;

/// Robust weight vector for a residual vector. Residuals are centred on
/// their median and scaled by the MAD-based robust sigma (1.4826 * MAD,
/// floored at min_sigma) so a minority of arbitrarily large outliers
/// cannot inflate the scale the way they inflate a standard deviation.
/// If a hard-rejecting loss (Tukey) zeroes every row (mean weight below
/// kMinMeanRobustWeight), the Huber weights are returned instead so the
/// solve stays feasible.
std::vector<double> robust_residual_weights(
    const std::vector<double>& residuals, RobustLoss loss,
    double tuning = 0.0, double min_sigma = 1e-12);

}  // namespace lion::linalg
