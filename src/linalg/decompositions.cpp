#include "linalg/decompositions.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace lion::linalg {

// ---------------------------------------------------------------- Cholesky

std::optional<Cholesky> Cholesky::factor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Cholesky: matrix not square");
  }
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (d <= 0.0 || !std::isfinite(d)) return std::nullopt;
    l(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return Cholesky(std::move(l));
}

std::vector<double> Cholesky::solve(const std::vector<double>& b) const {
  const std::size_t n = l_.rows();
  if (b.size() != n) throw std::invalid_argument("Cholesky::solve: size");
  // Forward substitution L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l_(i, k) * y[k];
    y[i] = s / l_(i, i);
  }
  // Back substitution L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l_(k, ii) * x[k];
    x[ii] = s / l_(ii, ii);
  }
  return x;
}

double Cholesky::determinant() const {
  double d = 1.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) d *= l_(i, i) * l_(i, i);
  return d;
}

// ------------------------------------------------------------ PartialPivLU

std::optional<PartialPivLU> PartialPivLU::factor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("PartialPivLU: matrix not square");
  }
  const std::size_t n = a.rows();
  Matrix lu = a;
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  int sign = 1;

  for (std::size_t col = 0; col < n; ++col) {
    // Pivot: largest |entry| in this column at or below the diagonal.
    std::size_t piv = col;
    double best = std::abs(lu(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(lu(r, col));
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (best < kSingularTol) return std::nullopt;
    if (piv != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu(piv, c), lu(col, c));
      std::swap(perm[piv], perm[col]);
      sign = -sign;
    }
    const double d = lu(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = lu(r, col) / d;
      lu(r, col) = f;
      for (std::size_t c = col + 1; c < n; ++c) lu(r, c) -= f * lu(col, c);
    }
  }
  return PartialPivLU(std::move(lu), std::move(perm), sign);
}

std::vector<double> PartialPivLU::solve(const std::vector<double>& b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("PartialPivLU::solve: size");
  // Apply permutation, then forward-substitute with unit-lower L.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[perm_[i]];
    for (std::size_t k = 0; k < i; ++k) s -= lu_(i, k) * y[k];
    y[i] = s;
  }
  // Back-substitute with U.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= lu_(ii, k) * x[k];
    x[ii] = s / lu_(ii, ii);
  }
  return x;
}

double PartialPivLU::determinant() const {
  double d = static_cast<double>(sign_);
  for (std::size_t i = 0; i < lu_.rows(); ++i) d *= lu_(i, i);
  return d;
}

// ----------------------------------------------------------- HouseholderQR

void householder_factor(double* a, std::size_t m, std::size_t n,
                        double* beta) {
  // a(i, k) of the row-major m x n matrix.
  const auto at = [a, n](std::size_t i, std::size_t k) -> double& {
    return a[i * n + k];
  };
  for (std::size_t k = 0; k < n; ++k) beta[k] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    // Build the reflector for column k from rows k..m-1.
    double norm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) norm2 += at(i, k) * at(i, k);
    const double norm = std::sqrt(norm2);
    if (norm == 0.0) continue;  // zero column: nothing to eliminate
    const double alpha = at(k, k) >= 0 ? -norm : norm;
    const double v0 = at(k, k) - alpha;
    // v = (v0, a_{k+1,k}, ..., a_{m-1,k}); store v/v0 below the diagonal so
    // the implicit leading entry is 1.
    const double vnorm2 = v0 * v0 + (norm2 - at(k, k) * at(k, k));
    if (vnorm2 == 0.0) continue;
    beta[k] = 2.0 * v0 * v0 / vnorm2;
    for (std::size_t i = k + 1; i < m; ++i) at(i, k) /= v0;
    at(k, k) = alpha;  // R diagonal
    // Apply the reflector to the remaining columns.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = at(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += at(i, k) * at(i, j);
      s *= beta[k];
      at(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) at(i, j) -= s * at(i, k);
    }
  }
}

double r_condition_estimate(const double* qr, std::size_t n) {
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = std::abs(qr[i * n + i]);
  const auto [mn, mx] = std::minmax_element(d.begin(), d.end());
  if (*mn == 0.0) return std::numeric_limits<double>::infinity();
  return *mx / *mn;
}

HouseholderQR::HouseholderQR(Matrix a) : qr_(std::move(a)) {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  if (m < n) {
    throw std::invalid_argument("HouseholderQR: needs rows >= cols");
  }
  beta_.resize(n);
  householder_factor(qr_.row_data(0), m, n, beta_.data());
}

std::vector<double> HouseholderQR::solve(const std::vector<double>& b) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  if (b.size() != m) throw std::invalid_argument("HouseholderQR::solve: size");
  std::vector<double> y = b;
  // Apply Q^T to b.
  for (std::size_t k = 0; k < n; ++k) {
    if (beta_[k] == 0.0) continue;
    double s = y[k];
    for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * y[i];
    s *= beta_[k];
    y[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) y[i] -= s * qr_(i, k);
  }
  // Back-substitute R x = (Q^T b)_{1..n}.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= qr_(ii, k) * x[k];
    const double d = qr_(ii, ii);
    if (std::abs(d) < kSingularTol) {
      throw std::domain_error("HouseholderQR::solve: rank deficient");
    }
    x[ii] = s / d;
  }
  return x;
}

std::vector<double> HouseholderQR::r_diagonal() const {
  std::vector<double> d(qr_.cols());
  for (std::size_t i = 0; i < qr_.cols(); ++i) d[i] = std::abs(qr_(i, i));
  return d;
}

double HouseholderQR::condition_estimate() const {
  return r_condition_estimate(qr_.row_data(0), qr_.cols());
}

// ------------------------------------------------------------------- misc

Matrix inverse(const Matrix& a) {
  const auto lu = PartialPivLU::factor(a);
  if (!lu) throw std::domain_error("inverse: singular matrix");
  const std::size_t n = a.rows();
  Matrix inv(n, n);
  std::vector<double> e(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    e[c] = 1.0;
    const auto col = lu->solve(e);
    e[c] = 0.0;
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = col[r];
  }
  return inv;
}

std::vector<double> solve_square(const Matrix& a,
                                 const std::vector<double>& b) {
  if (const auto chol = Cholesky::factor(a)) return chol->solve(b);
  const auto lu = PartialPivLU::factor(a);
  if (!lu) throw std::domain_error("solve_square: singular matrix");
  return lu->solve(b);
}

}  // namespace lion::linalg
