#include "linalg/small.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/decompositions.hpp"

namespace lion::linalg {

bool small_cholesky_factor(const SmallGram& a, SmallCholesky& out) {
  // Mirrors Cholesky::factor operation for operation.
  const std::size_t n = a.p;
  out.p = n;
  for (std::size_t i = 0; i < kSmallMaxCols; ++i) {
    for (std::size_t j = 0; j < kSmallMaxCols; ++j) out.l[i][j] = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    double d = a.g[j][j];
    for (std::size_t k = 0; k < j; ++k) d -= out.l[j][k] * out.l[j][k];
    if (d <= 0.0 || !std::isfinite(d)) return false;
    out.l[j][j] = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a.g[i][j];
      for (std::size_t k = 0; k < j; ++k) s -= out.l[i][k] * out.l[j][k];
      out.l[i][j] = s / out.l[j][j];
    }
  }
  return true;
}

void small_cholesky_solve(const SmallCholesky& chol, const double* b,
                          double* x) {
  // Mirrors Cholesky::solve: forward L y = b, then back L^T x = y.
  const std::size_t n = chol.p;
  double y[kSmallMaxCols];
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= chol.l[i][k] * y[k];
    y[i] = s / chol.l[i][i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= chol.l[k][ii] * x[k];
    x[ii] = s / chol.l[ii][ii];
  }
}

SolveStatus small_qr_solve(double a[][kSmallMaxCols], double* b,
                           std::size_t m, std::size_t p, double* x) {
  if (m < p) return SolveStatus::kUnderdetermined;
  // Mirrors the HouseholderQR constructor on the m x p block of `a`.
  double beta[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t k = 0; k < p; ++k) {
    double norm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) norm2 += a[i][k] * a[i][k];
    const double norm = std::sqrt(norm2);
    if (norm == 0.0) continue;
    const double alpha = a[k][k] >= 0 ? -norm : norm;
    const double v0 = a[k][k] - alpha;
    const double vnorm2 = v0 * v0 + (norm2 - a[k][k] * a[k][k]);
    if (vnorm2 == 0.0) continue;
    beta[k] = 2.0 * v0 * v0 / vnorm2;
    for (std::size_t i = k + 1; i < m; ++i) a[i][k] /= v0;
    a[k][k] = alpha;
    for (std::size_t j = k + 1; j < p; ++j) {
      double s = a[k][j];
      for (std::size_t i = k + 1; i < m; ++i) s += a[i][k] * a[i][j];
      s *= beta[k];
      a[k][j] -= s;
      for (std::size_t i = k + 1; i < m; ++i) a[i][j] -= s * a[i][k];
    }
  }
  // HouseholderQR::solve throws exactly when some |R_ii| < kSingularTol;
  // checking the whole diagonal up front turns that into a status without
  // changing which systems succeed (the partial back-substitution the
  // throwing path performs first is discarded either way).
  for (std::size_t i = 0; i < p; ++i) {
    if (std::abs(a[i][i]) < kSingularTol) return SolveStatus::kRankDeficient;
  }
  // Mirrors HouseholderQR::solve: apply Q^T to b, then back-substitute.
  for (std::size_t k = 0; k < p; ++k) {
    if (beta[k] == 0.0) continue;
    double s = b[k];
    for (std::size_t i = k + 1; i < m; ++i) s += a[i][k] * b[i];
    s *= beta[k];
    b[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) b[i] -= s * a[i][k];
  }
  for (std::size_t ii = p; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < p; ++k) s -= a[ii][k] * x[k];
    x[ii] = s / a[ii][ii];
  }
  return SolveStatus::kOk;
}

namespace {

void check_small_cols(std::size_t p) {
  if (p == 0 || p > kSmallMaxCols) {
    throw std::invalid_argument(
        "SolverWorkspace::load: cols outside [1, kSmallMaxCols]");
  }
}

}  // namespace

void SolverWorkspace::load(const Matrix& a, const std::vector<double>& b) {
  check_small_cols(a.cols());
  if (b.size() != a.rows()) {
    throw std::invalid_argument("SolverWorkspace::load: rhs size mismatch");
  }
  reshape(a.rows(), a.cols());
  for (std::size_t r = 0; r < n_; ++r) {
    std::copy(a.row_data(r), a.row_data(r) + p_, rows_.data() + r * p_);
  }
  std::copy(b.begin(), b.end(), b_.begin());
}

void SolverWorkspace::reshape(std::size_t n, std::size_t p) {
  check_small_cols(p);
  n_ = n;
  p_ = p;
  rows_.resize(n * p);
  b_.resize(n);
}

Matrix SolverWorkspace::gram_matrix() const {
  if (!loaded()) {
    throw std::logic_error("SolverWorkspace::gram_matrix: nothing loaded");
  }
  SmallGram g;
  g.reset(p_);
  double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  accumulate_masked(*this, nullptr, g, rhs);
  g.mirror();
  Matrix out(p_, p_);
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t j = 0; j < p_; ++j) out(i, j) = g.g[i][j];
  }
  return out;
}

// The three accumulators below sum per-row contributions exactly as
// Matrix::gram / transpose_multiply / weighted_gram /
// weighted_transpose_multiply do over the corresponding row-subset
// matrix: the same products (a_i * a_j, a_c * b; (w * a_i) * a_j,
// a_c * (w * b)) added in the same row order. The Matrix code skips zero
// terms (`a_i == 0`, `w != 0`, `w * a_i == 0`); those only ever skip
// (+/-)0.0 contributions, and for finite inputs adding one never changes
// an accumulator that started at +0.0 (and can never round to -0.0), so
// the straight-line forms are bit-identical — and, with the column count
// a template constant, they unroll and vectorize.

void accumulate_rows(const SolverWorkspace& ws, const std::size_t* rows,
                     std::size_t m, SmallGram& g, double* rhs) {
  const std::size_t p = ws.cols();
  for (std::size_t r = 0; r < m; ++r) {
    const double* row = ws.row(rows[r]);
    const double b = ws.rhs(rows[r]);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = i; j < p; ++j) g.g[i][j] += row[i] * row[j];
    }
    for (std::size_t c = 0; c < p; ++c) rhs[c] += row[c] * b;
  }
}

namespace {

template <std::size_t P>
void accumulate_masked_impl(const SolverWorkspace& ws, const char* mask,
                            SmallGram& g, double* rhs) {
  // Local sums over hoisted pointers, as in accumulate_weighted_rows.
  constexpr std::size_t kPacked = P * (P + 1) / 2;
  double acc[kPacked];
  double acc_rhs[P];
  std::size_t k = 0;
  for (std::size_t i = 0; i < P; ++i) {
    for (std::size_t j = i; j < P; ++j) acc[k++] = g.g[i][j];
    acc_rhs[i] = rhs[i];
  }
  const double* rows = ws.row(0);
  const double* b = ws.rhs_data();
  const std::size_t n = ws.rows();
  for (std::size_t r = 0; r < n; ++r) {
    if (mask && !mask[r]) continue;
    const double* row = rows + r * P;
    k = 0;
    for (std::size_t i = 0; i < P; ++i) {
      for (std::size_t j = i; j < P; ++j) acc[k++] += row[i] * row[j];
    }
    for (std::size_t c = 0; c < P; ++c) acc_rhs[c] += row[c] * b[r];
  }
  k = 0;
  for (std::size_t i = 0; i < P; ++i) {
    for (std::size_t j = i; j < P; ++j) g.g[i][j] = acc[k++];
    rhs[i] = acc_rhs[i];
  }
}

}  // namespace

void accumulate_masked(const SolverWorkspace& ws, const char* mask,
                       SmallGram& g, double* rhs) {
  switch (ws.cols()) {
    case 1:
      accumulate_masked_impl<1>(ws, mask, g, rhs);
      return;
    case 2:
      accumulate_masked_impl<2>(ws, mask, g, rhs);
      return;
    case 3:
      accumulate_masked_impl<3>(ws, mask, g, rhs);
      return;
    default:
      accumulate_masked_impl<4>(ws, mask, g, rhs);
      return;
  }
}

void accumulate_weighted_masked(const SolverWorkspace& ws, const char* mask,
                                const double* w, SmallGram& g, double* rhs) {
  const auto weight = [w](std::size_t k) { return w[k]; };
  switch (ws.cols()) {
    case 1:
      accumulate_weighted_rows<1>(ws, mask, weight, g, rhs);
      return;
    case 2:
      accumulate_weighted_rows<2>(ws, mask, weight, g, rhs);
      return;
    case 3:
      accumulate_weighted_rows<3>(ws, mask, weight, g, rhs);
      return;
    default:
      accumulate_weighted_rows<4>(ws, mask, weight, g, rhs);
      return;
  }
}

// ---------------------------------------------------------------------------
// IncrementalNormals
// ---------------------------------------------------------------------------

void IncrementalNormals::reset(std::size_t cols) {
  if (cols == 0 || cols > kSmallMaxCols) {
    throw std::invalid_argument(
        "IncrementalNormals: cols must be in [1, kSmallMaxCols]");
  }
  p_ = cols;
  packed_ = cols * (cols + 1) / 2;
  n_ = 0;
  for (std::size_t i = 0; i < kSmallMaxPacked; ++i) g_[i] = 0.0;
  for (std::size_t i = 0; i < kSmallMaxCols; ++i) c_[i] = 0.0;
  kk_ = 0.0;
  added_diag_ = 0.0;
}

void IncrementalNormals::append(const double* a, double k) {
  std::size_t idx = 0;
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t j = i; j < p_; ++j) g_[idx++] += a[i] * a[j];
    c_[i] += a[i] * k;
    added_diag_ += a[i] * a[i];
  }
  kk_ += k * k;
  ++n_;
}

void IncrementalNormals::downdate(const double* a, double k) {
  // Subtract exactly the products append() added; added_diag_ is monotone
  // on purpose (it tracks total traffic, not the surviving mass).
  std::size_t idx = 0;
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t j = i; j < p_; ++j) g_[idx++] -= a[i] * a[j];
    c_[i] -= a[i] * k;
  }
  kk_ -= k * k;
  if (n_ > 0) --n_;
}

bool IncrementalNormals::solve(double* x) const {
  if (n_ < p_) return false;
  SmallGram g;
  g.reset(p_);
  std::size_t idx = 0;
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t j = i; j < p_; ++j) g.g[i][j] = g_[idx++];
  }
  g.mirror();
  SmallCholesky chol;
  if (!small_cholesky_factor(g, chol)) return false;
  small_cholesky_solve(chol, c_, x);
  for (std::size_t i = 0; i < p_; ++i) {
    if (!std::isfinite(x[i])) return false;
  }
  return true;
}

double IncrementalNormals::rms(const double* x) const {
  if (n_ == 0) return 0.0;
  // x^T G x from the packed upper triangle (off-diagonals count twice).
  double xgx = 0.0;
  double xc = 0.0;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t j = i; j < p_; ++j) {
      const double term = g_[idx++] * x[i] * x[j];
      xgx += i == j ? term : 2.0 * term;
    }
    xc += x[i] * c_[i];
  }
  const double ss = xgx - 2.0 * xc + kk_;
  return std::sqrt(std::max(0.0, ss / static_cast<double>(n_)));
}

double IncrementalNormals::cancellation() const {
  double live = 0.0;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < p_; ++i) {
    live += std::abs(g_[idx]);
    idx += p_ - i;  // step from diagonal (i,i) to diagonal (i+1,i+1)
  }
  if (added_diag_ <= 0.0) return 1.0;
  constexpr double kTiny = 1e-300;
  return added_diag_ / std::max(live, kTiny);
}

}  // namespace lion::linalg
