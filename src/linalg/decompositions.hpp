// Dense matrix decompositions and linear-system solvers.
//
// The LION normal equations are tiny (3x3 or 4x4) and symmetric positive
// definite in well-posed geometry, so Cholesky is the fast path. LU with
// partial pivoting backs it up for indefinite systems, and Householder QR
// solves the tall least-squares system directly when the normal equations
// would be too ill-conditioned.
#pragma once

#include <optional>
#include <vector>

#include "linalg/matrix.hpp"

namespace lion::linalg {

/// Pivot / R-diagonal magnitude below which a system is treated as
/// singular (PartialPivLU::factor rejects, HouseholderQR::solve throws).
/// Exported so the non-throwing small-system kernels can classify rank
/// deficiency with exactly the same cutoff.
inline constexpr double kSingularTol = 1e-13;

/// Cholesky factorization A = L * L^T of a symmetric positive-definite
/// matrix. Factorization fails (returns nullopt) when A is not SPD within
/// numerical tolerance.
class Cholesky {
 public:
  /// Factor the given symmetric matrix; only the lower triangle is read.
  static std::optional<Cholesky> factor(const Matrix& a);

  /// Solve A x = b using the stored factorization.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Determinant of A (product of squared diagonal of L).
  double determinant() const;

  const Matrix& l() const { return l_; }

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}
  Matrix l_;
};

/// LU factorization with partial pivoting: P A = L U.
class PartialPivLU {
 public:
  /// Factor a square matrix. Returns nullopt when A is singular to working
  /// precision.
  static std::optional<PartialPivLU> factor(const Matrix& a);

  /// Solve A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Determinant (with pivot sign).
  double determinant() const;

 private:
  PartialPivLU(Matrix lu, std::vector<std::size_t> perm, int sign)
      : lu_(std::move(lu)), perm_(std::move(perm)), sign_(sign) {}
  Matrix lu_;                      // packed L (unit diag, below) and U (above)
  std::vector<std::size_t> perm_;  // row permutation
  int sign_;                       // permutation parity
};

/// Householder QR factorization A = Q R of a rows >= cols matrix.
class HouseholderQR {
 public:
  explicit HouseholderQR(Matrix a);

  /// Minimum-norm residual solution of the least-squares problem
  /// min_x ||A x - b||_2. Requires full column rank.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Absolute values of the R diagonal, useful for rank/conditioning checks.
  std::vector<double> r_diagonal() const;

  /// Crude condition estimate: max|R_ii| / min|R_ii|.
  double condition_estimate() const;

 private:
  Matrix qr_;                 // R in the upper triangle, reflectors below
  std::vector<double> beta_;  // Householder scalars
};

/// Factor the m x n (m >= n) row-major matrix at `a` in place: R in the
/// upper triangle, the Householder vectors (scaled to a unit leading
/// entry) below it, and the n reflector scalars in `beta`. HouseholderQR's
/// constructor is this routine over its own copy, so callers that own a
/// scratch copy of the rows get the same factor without another one.
void householder_factor(double* a, std::size_t m, std::size_t n,
                        double* beta);

/// max|R_ii| / min|R_ii| of a factor householder_factor left at `qr` (n
/// columns); infinity when some R_ii is zero. The value of
/// HouseholderQR::condition_estimate().
double r_condition_estimate(const double* qr, std::size_t n);

/// Invert a small square matrix via LU. Throws std::domain_error when
/// singular. Intended for the <=4x4 matrices in LION; not for big systems.
Matrix inverse(const Matrix& a);

/// Solve the square system A x = b (Cholesky when SPD-shaped, LU fallback).
/// Throws std::domain_error when singular.
std::vector<double> solve_square(const Matrix& a, const std::vector<double>& b);

}  // namespace lion::linalg
