// Zero-allocation small-matrix kernels for the RANSAC/IRLS hot path.
//
// Every LION system is tall-skinny: N radical-line equations over at most
// four unknowns (frame coordinates plus the reference distance d_r). The
// general Matrix/Cholesky/QR classes solve it correctly but heap-allocate
// a gram matrix, a factor, and several result vectors per solve — and the
// consensus sampler performs hundreds of such solves per calibration. The
// kernels here are the fixed-capacity, stack-allocated, *non-throwing*
// core that every robust (RANSAC / IRLS-family) solve runs on, built
// around one contract:
//
//   Bit-exactness. Each kernel performs the same floating-point
//   operations in the same order as the general Matrix code
//   (Matrix::gram / weighted_gram / transpose_multiply, Cholesky::factor
//   / solve, HouseholderQR), so the workspace solvers answer exactly as
//   the classic solve_irls reference on the same system, and calibration
//   reports keep their bytes. The engine determinism and golden-CSV
//   suites referee this contract; the randomized kernel tests in
//   tests/linalg/test_small.cpp assert exact (==) agreement, not just
//   closeness.
//
// The SolverWorkspace holds the loaded system's raw rows and b. Every
// gram it feeds, weighted or not, is summed straight from those rows in
// the legacy expression shapes: a_i * a_j (and a_c * b) for the unweighted
// normal equations of RANSAC minimal subsets, OLS seeds and the GDOP, and
// (w * a_i) * a_j for the weighted ones. A product computed where it is
// added rounds exactly like one computed earlier and stored, so no
// per-row product cache is kept: writing one cost more than recomputing
// the products the few passes that read it need.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"

namespace lion::linalg {

/// Widest system the small kernels accept (LION solves p in {2, 3, 4}).
inline constexpr std::size_t kSmallMaxCols = 4;

/// Rows of a RANSAC minimal subset at the widest system (p + 1).
inline constexpr std::size_t kSmallMaxMinimalRows = kSmallMaxCols + 1;

/// Packed length of the upper triangle of a kSmallMaxCols-wide gram.
inline constexpr std::size_t kSmallMaxPacked =
    kSmallMaxCols * (kSmallMaxCols + 1) / 2;

/// Fixed-capacity symmetric p x p accumulator (a gram matrix in the
/// making). accumulate fills the upper triangle in the same (i, j >= i)
/// order as Matrix::gram; mirror() copies it down, after which the full
/// array is valid for the Cholesky kernel (which reads the lower half).
struct SmallGram {
  std::size_t p = 0;
  double g[kSmallMaxCols][kSmallMaxCols];

  void reset(std::size_t cols) {
    p = cols;
    for (std::size_t i = 0; i < kSmallMaxCols; ++i) {
      for (std::size_t j = 0; j < kSmallMaxCols; ++j) g[i][j] = 0.0;
    }
  }
  void mirror() {
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < i; ++j) g[i][j] = g[j][i];
    }
  }
};

/// Stack-allocated Cholesky factor L of a SmallGram.
struct SmallCholesky {
  std::size_t p = 0;
  double l[kSmallMaxCols][kSmallMaxCols];
};

/// Factor a mirrored SmallGram; false when not SPD within tolerance
/// (same accept/reject condition as Cholesky::factor returning nullopt).
bool small_cholesky_factor(const SmallGram& a, SmallCholesky& out);

/// Solve L L^T x = b from a successful factorization.
void small_cholesky_solve(const SmallCholesky& chol, const double* b,
                          double* x);

/// Non-throwing Householder-QR least squares for an m x p system with
/// m <= kSmallMaxMinimalRows (the RANSAC minimal subsets). `a` and `b`
/// are scratch and are destroyed. Mirrors HouseholderQR's reflector
/// construction and solve bit-for-bit; returns kRankDeficient exactly
/// when the general path would throw.
SolveStatus small_qr_solve(double a[][kSmallMaxCols], double* b,
                           std::size_t m, std::size_t p, double* x);

/// Reusable scratch for the consensus/IRLS solver core. One workspace
/// per thread (the batch engine keeps one per pool worker); load() holds
/// a system's rows and b, and the public buffers back
/// every intermediate the solvers need. All storage grows geometrically
/// and never shrinks, so a warmed workspace makes the steady-state
/// solve loop allocation-free (asserted by tests/perf/test_alloc.cpp).
///
/// A workspace never affects results — a fresh one and a reused one give
/// the same bits.
class SolverWorkspace {
 public:
  SolverWorkspace() = default;
  SolverWorkspace(const SolverWorkspace&) = delete;
  SolverWorkspace& operator=(const SolverWorkspace&) = delete;

  /// Copy system (a, b) in: raw rows and b. Requires a.cols() <=
  /// kSmallMaxCols and b.size() == a.rows() (throws std::invalid_argument
  /// otherwise).
  void load(const Matrix& a, const std::vector<double>& b);

  /// Load a system in place instead of from a Matrix: reshape(n, p) sizes
  /// the storage (throws std::invalid_argument unless p is in [1,
  /// kSmallMaxCols]), and the caller writes the rows to mutable_rows()
  /// (n * p, row-major) and b to mutable_rhs() (n). load(a, b) is reshape
  /// and copy.
  void reshape(std::size_t n, std::size_t p);
  double* mutable_rows() { return rows_.data(); }
  double* mutable_rhs() { return b_.data(); }

  std::size_t rows() const { return n_; }
  std::size_t cols() const { return p_; }
  bool loaded() const { return p_ != 0; }

  /// Row r of the loaded design matrix (cols() entries).
  const double* row(std::size_t r) const { return rows_.data() + r * p_; }
  double rhs(std::size_t r) const { return b_[r]; }
  /// All rows' rhs values (rows() entries).
  const double* rhs_data() const { return b_.data(); }

  /// A^T A of the loaded system — bit-exact with Matrix::gram() on the
  /// loaded matrix (used by the GDOP diagnostics after a workspace
  /// solve). Requires loaded().
  Matrix gram_matrix() const;

  // Scratch buffers, resized (never shrunk) by the solver routines.
  std::vector<double> residuals;       ///< candidate residuals (RANSAC)
  std::vector<double> best_residuals;  ///< best-so-far residuals (RANSAC)
  std::vector<double> median_scratch;  ///< selection scratch (medians, MAD)
  std::vector<std::size_t> indices;    ///< Fisher-Yates subset sampler
  LstsqResult irls_scratch;            ///< IRLS double-buffer slot

 private:
  std::size_t n_ = 0;
  std::size_t p_ = 0;
  std::vector<double> rows_;
  std::vector<double> b_;
};

/// Incrementally maintained normal equations of a tall-skinny system with
/// p <= kSmallMaxCols unknowns: G = A^T A (packed upper triangle, the
/// accumulation order of Matrix::gram), c = A^T k, plus sum(k^2) so the
/// residual RMS of a candidate x is available in O(p^2) without touching
/// the rows:  n * rms^2 = x^T G x - 2 x^T c + sum(k^2).
///
/// append() is a rank-1 update; downdate() removes a previously appended
/// row by subtracting the identical products, so an append immediately
/// followed by its downdate round-trips the accumulator to within one ulp
/// per entry (the metamorphic suite pins 1e-12 relative). Long
/// append/downdate chains lose precision when the surviving mass is a
/// tiny difference of large totals — `cancellation()` measures exactly
/// that ratio so callers can re-accumulate from the surviving rows
/// (sliding-window rebuild) before the gram turns to noise.
class IncrementalNormals {
 public:
  void reset(std::size_t cols);

  std::size_t cols() const { return p_; }
  std::size_t rows() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Rank-1 update with row `a` (cols() entries) and rhs `k`.
  void append(const double* a, double k);
  /// Remove a previously appended row. Requires rows() > 0.
  void downdate(const double* a, double k);

  /// Solve G x = c by the small Cholesky kernel; false when the
  /// accumulated gram is not SPD (degenerate or downdated-to-noise).
  bool solve(double* x) const;

  /// Residual RMS of `x` over the accumulated rows, from the maintained
  /// quantities only. Cancellation can push the quadratic form slightly
  /// negative; it is clamped at zero.
  double rms(const double* x) const;

  /// Ratio of total appended diagonal mass to the surviving diagonal
  /// mass (>= 1). Large values mean the gram is a small difference of
  /// large sums — time to re-accumulate from the surviving rows.
  double cancellation() const;

  /// Packed upper triangle of G ((i, j >= i) row-major; cols()*(cols()+1)/2
  /// entries) — exposed for the metamorphic kernel suite.
  const double* gram_packed() const { return g_; }
  const double* rhs() const { return c_; }
  double rhs_squared_sum() const { return kk_; }

 private:
  std::size_t p_ = 0;
  std::size_t packed_ = 0;
  std::size_t n_ = 0;
  double g_[kSmallMaxPacked] = {};
  double c_[kSmallMaxCols] = {};
  double kk_ = 0.0;          ///< sum of k^2 over live rows
  double added_diag_ = 0.0;  ///< diagonal mass ever appended (monotone)
};

/// g += the outer products a_i * a_j of `rows[0..m)` (in that order) and
/// rhs[c] += a_c * b — the unweighted normal equations of the row subset,
/// bit-exact with Matrix::gram / transpose_multiply on the gathered
/// submatrix. `g` must be reset to ws.cols() and `rhs`
/// zeroed by the caller; call g.mirror() afterwards.
void accumulate_rows(const SolverWorkspace& ws, const std::size_t* rows,
                     std::size_t m, SmallGram& g, double* rhs);

/// Same over the rows selected by `mask` (mask == nullptr selects every
/// row), in increasing row order.
void accumulate_masked(const SolverWorkspace& ws, const char* mask,
                       SmallGram& g, double* rhs);

/// Weighted normal equations over the masked rows: w[k] is the weight of
/// the k-th *selected* row. Keeps the legacy multiplication order
/// ((w * a_i) * a_j and a_c * (w * b)) over the loaded rows, so
/// the result is bit-exact with Matrix::weighted_gram /
/// weighted_transpose_multiply on the materialized subsystem.
void accumulate_weighted_masked(const SolverWorkspace& ws, const char* mask,
                                const double* w, SmallGram& g, double* rhs);

/// The loop behind accumulate_weighted_masked for P == ws.cols(), taking
/// the k-th selected row's weight from weight_of(k) (called once per
/// selected row, in row order) — so a caller can compute each weight in
/// the same pass that consumes it.
template <std::size_t P, class WeightOf>
void accumulate_weighted_rows(const SolverWorkspace& ws, const char* mask,
                              WeightOf&& weight_of, SmallGram& g,
                              double* rhs) {
  // Sums live in locals and the row data behind hoisted pointers: stores
  // made by weight_of could otherwise alias g, rhs or the workspace and
  // pin every += to memory. Each sum still adds its terms in row order.
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
  std::size_t sel = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (mask && !mask[r]) continue;
    const double* row = rows + r * P;
    const double wr = weight_of(sel);
    const double wv = wr * b[r];
    ++sel;
    double wrow[P];
    for (std::size_t i = 0; i < P; ++i) wrow[i] = wr * row[i];
    k = 0;
    for (std::size_t i = 0; i < P; ++i) {
      for (std::size_t j = i; j < P; ++j) acc[k++] += wrow[i] * row[j];
    }
    for (std::size_t c = 0; c < P; ++c) acc_rhs[c] += row[c] * wv;
  }
  k = 0;
  for (std::size_t i = 0; i < P; ++i) {
    for (std::size_t j = i; j < P; ++j) g.g[i][j] = acc[k++];
    rhs[i] = acc_rhs[i];
  }
}

}  // namespace lion::linalg
