// Property tests of the zero-allocation small-matrix kernels against the
// general Matrix / Cholesky / HouseholderQR reference path. The kernels'
// contract is *bit-exactness* — they must perform the same floating-point
// operations in the same order as the code they replace — so almost every
// assertion here is EXPECT_EQ on doubles, not EXPECT_NEAR.

#include "linalg/small.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/decompositions.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace lion::linalg {
namespace {

Matrix random_matrix(std::mt19937_64& rng, std::size_t n, std::size_t p,
                     double scale = 1.0) {
  std::uniform_real_distribution<double> d(-scale, scale);
  Matrix a(n, p);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) a(i, j) = d(rng);
  }
  return a;
}

std::vector<double> random_vector(std::mt19937_64& rng, std::size_t n,
                                  double lo = -1.0, double hi = 1.0) {
  std::uniform_real_distribution<double> d(lo, hi);
  std::vector<double> v(n);
  for (auto& x : v) x = d(rng);
  return v;
}

TEST(SolverWorkspace, LoadValidatesShape) {
  SolverWorkspace ws;
  EXPECT_THROW(ws.load(Matrix(3, 5), std::vector<double>(3, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(ws.load(Matrix(3, 2), std::vector<double>(2, 0.0)),
               std::invalid_argument);
  EXPECT_FALSE(ws.loaded());
  ws.load(Matrix(3, 2), std::vector<double>(3, 0.0));
  EXPECT_TRUE(ws.loaded());
  EXPECT_EQ(ws.rows(), 3u);
  EXPECT_EQ(ws.cols(), 2u);
}

TEST(SmallKernels, UnweightedAccumulationMatchesGramBitExact) {
  std::mt19937_64 rng(7);
  for (std::size_t p = 2; p <= 4; ++p) {
    for (int trial = 0; trial < 50; ++trial) {
      const std::size_t n = 5 + static_cast<std::size_t>(trial);
      const Matrix a = random_matrix(rng, n, p, 3.0);
      const auto b = random_vector(rng, n, -2.0, 2.0);

      SolverWorkspace ws;
      ws.load(a, b);
      SmallGram g;
      g.reset(p);
      double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
      accumulate_masked(ws, nullptr, g, rhs);
      g.mirror();

      const Matrix ref = a.gram();
      const auto ref_rhs = a.transpose_multiply(b);
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) EXPECT_EQ(g.g[i][j], ref(i, j));
        EXPECT_EQ(rhs[i], ref_rhs[i]);
      }
    }
  }
}

TEST(SmallKernels, UnweightedAccumulationWithZeroEntriesStaysBitExact) {
  // Matrix::gram skips zero terms; the cache adds them unconditionally.
  // Adding +/-0.0 products must not move any accumulator.
  std::mt19937_64 rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 12;
    const std::size_t p = 3;
    Matrix a = random_matrix(rng, n, p, 2.0);
    std::uniform_int_distribution<int> coin(0, 3);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        if (coin(rng) == 0) a(i, j) = coin(rng) == 0 ? -0.0 : 0.0;
      }
    }
    const auto b = random_vector(rng, n);

    SolverWorkspace ws;
    ws.load(a, b);
    SmallGram g;
    g.reset(p);
    double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
    accumulate_masked(ws, nullptr, g, rhs);
    g.mirror();

    const Matrix ref = a.gram();
    const auto ref_rhs = a.transpose_multiply(b);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) EXPECT_EQ(g.g[i][j], ref(i, j));
      EXPECT_EQ(rhs[i], ref_rhs[i]);
    }
  }
}

TEST(SmallKernels, GramMatrixHelperMatchesGramBitExact) {
  std::mt19937_64 rng(9);
  for (std::size_t p = 2; p <= 4; ++p) {
    const Matrix a = random_matrix(rng, 40, p, 5.0);
    const auto b = random_vector(rng, 40);
    SolverWorkspace ws;
    ws.load(a, b);
    const Matrix got = ws.gram_matrix();
    const Matrix ref = a.gram();
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) EXPECT_EQ(got(i, j), ref(i, j));
    }
  }
  SolverWorkspace empty;
  EXPECT_THROW(empty.gram_matrix(), std::logic_error);
}

TEST(SmallKernels, WeightedAccumulationMatchesWeightedGramBitExact) {
  std::mt19937_64 rng(10);
  for (std::size_t p = 2; p <= 4; ++p) {
    for (int trial = 0; trial < 50; ++trial) {
      const std::size_t n = 8 + static_cast<std::size_t>(trial % 7);
      Matrix a = random_matrix(rng, n, p, 2.0);
      const auto b = random_vector(rng, n);
      auto w = random_vector(rng, n, 0.0, 1.0);
      // Exercise the zero-weight / zero-entry skip branches of the
      // legacy weighted_gram, which the straight-line kernel must match.
      w[trial % n] = 0.0;
      a((trial + 1) % n, trial % p) = 0.0;

      SolverWorkspace ws;
      ws.load(a, b);
      SmallGram g;
      g.reset(p);
      double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
      accumulate_weighted_masked(ws, nullptr, w.data(), g, rhs);
      g.mirror();

      const Matrix ref = a.weighted_gram(w);
      const auto ref_rhs = a.weighted_transpose_multiply(w, b);
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) EXPECT_EQ(g.g[i][j], ref(i, j));
        EXPECT_EQ(rhs[i], ref_rhs[i]);
      }
    }
  }
}

TEST(SmallKernels, MaskedWeightedAccumulationMatchesSubsystem) {
  std::mt19937_64 rng(11);
  const std::size_t p = 4;
  const std::size_t n = 30;
  const Matrix a = random_matrix(rng, n, p);
  const auto b = random_vector(rng, n);
  std::vector<char> mask(n, 0);
  std::uniform_int_distribution<int> coin(0, 1);
  std::size_t count = 0;
  for (auto& m : mask) count += (m = static_cast<char>(coin(rng)));
  ASSERT_GT(count, p);
  const auto w = random_vector(rng, count, 0.1, 2.0);

  SolverWorkspace ws;
  ws.load(a, b);
  SmallGram g;
  g.reset(p);
  double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  accumulate_weighted_masked(ws, mask.data(), w.data(), g, rhs);
  g.mirror();

  // Materialize the masked subsystem and run the legacy reference on it.
  Matrix sub(count, p);
  std::vector<double> sub_b(count);
  std::size_t r = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!mask[i]) continue;
    for (std::size_t c = 0; c < p; ++c) sub(r, c) = a(i, c);
    sub_b[r] = b[i];
    ++r;
  }
  const Matrix ref = sub.weighted_gram(w);
  const auto ref_rhs = sub.weighted_transpose_multiply(w, sub_b);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) EXPECT_EQ(g.g[i][j], ref(i, j));
    EXPECT_EQ(rhs[i], ref_rhs[i]);
  }
}

TEST(SmallKernels, CholeskyMatchesReferenceBitExact) {
  std::mt19937_64 rng(12);
  for (std::size_t p = 2; p <= 4; ++p) {
    for (int trial = 0; trial < 50; ++trial) {
      const Matrix a = random_matrix(rng, p + 4, p, 2.0);
      const Matrix gram = a.gram();
      const auto b = random_vector(rng, p);

      SmallGram g;
      g.reset(p);
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) g.g[i][j] = gram(i, j);
      }
      SmallCholesky chol;
      const bool ok = small_cholesky_factor(g, chol);
      const auto ref = Cholesky::factor(gram);
      ASSERT_EQ(ok, ref.has_value());
      if (!ok) continue;
      double x[kSmallMaxCols];
      small_cholesky_solve(chol, b.data(), x);
      const auto ref_x = ref->solve(b);
      for (std::size_t i = 0; i < p; ++i) EXPECT_EQ(x[i], ref_x[i]);
    }
  }
}

TEST(SmallKernels, CholeskyRejectsNonSpdLikeReference) {
  // Rank-1 gram: both paths must reject it the same way.
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  const Matrix gram = a.gram();
  SmallGram g;
  g.reset(2);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) g.g[i][j] = gram(i, j);
  }
  SmallCholesky chol;
  EXPECT_FALSE(small_cholesky_factor(g, chol));
  EXPECT_FALSE(Cholesky::factor(gram).has_value());
}

TEST(SmallKernels, QrSolveMatchesHouseholderBitExact) {
  std::mt19937_64 rng(13);
  for (std::size_t p = 2; p <= 4; ++p) {
    const std::size_t m = p + 1;  // the RANSAC minimal-subset shape
    for (int trial = 0; trial < 100; ++trial) {
      const Matrix a = random_matrix(rng, m, p, 2.0);
      const auto b = random_vector(rng, m);

      double qa[kSmallMaxMinimalRows][kSmallMaxCols];
      double qb[kSmallMaxMinimalRows];
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t c = 0; c < p; ++c) qa[i][c] = a(i, c);
        qb[i] = b[i];
      }
      double x[kSmallMaxCols];
      const SolveStatus st = small_qr_solve(qa, qb, m, p, x);
      ASSERT_EQ(st, SolveStatus::kOk);
      const auto ref = HouseholderQR(a).solve(b);
      for (std::size_t i = 0; i < p; ++i) EXPECT_EQ(x[i], ref[i]);
    }
  }
}

TEST(SmallKernels, QrReportsRankDeficientExactlyWhenReferenceThrows) {
  std::mt19937_64 rng(14);
  std::size_t deficient = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t p = 2 + static_cast<std::size_t>(trial % 3);
    const std::size_t m = p + 1;
    Matrix a = random_matrix(rng, m, p);
    // Half the trials get a duplicated column (rank deficient), the rest
    // stay generic; the status and the throw must always agree.
    if (trial % 2 == 0) {
      for (std::size_t i = 0; i < m; ++i) a(i, p - 1) = a(i, 0);
    }
    const auto b = random_vector(rng, m);

    double qa[kSmallMaxMinimalRows][kSmallMaxCols];
    double qb[kSmallMaxMinimalRows];
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t c = 0; c < p; ++c) qa[i][c] = a(i, c);
      qb[i] = b[i];
    }
    double x[kSmallMaxCols];
    const SolveStatus st = small_qr_solve(qa, qb, m, p, x);

    bool threw = false;
    std::vector<double> ref;
    try {
      ref = HouseholderQR(a).solve(b);
    } catch (const std::domain_error&) {
      threw = true;
    }
    ASSERT_EQ(st == SolveStatus::kRankDeficient, threw) << "trial " << trial;
    if (threw) ++deficient;
    if (!threw && st == SolveStatus::kOk) {
      for (std::size_t i = 0; i < p; ++i) EXPECT_EQ(x[i], ref[i]);
    }
  }
  EXPECT_GT(deficient, 50u);  // the degenerate half actually exercised
}

TEST(SmallKernels, QrUnderdeterminedStatus) {
  double qa[kSmallMaxMinimalRows][kSmallMaxCols] = {};
  double qb[kSmallMaxMinimalRows] = {};
  double x[kSmallMaxCols];
  EXPECT_EQ(small_qr_solve(qa, qb, 2, 3, x), SolveStatus::kUnderdetermined);
}

TEST(SmallKernels, SubsetAccumulationMatchesGatheredSubsystem) {
  std::mt19937_64 rng(15);
  const std::size_t p = 4;
  const std::size_t n = 25;
  const std::size_t m = p + 1;
  const Matrix a = random_matrix(rng, n, p);
  const auto b = random_vector(rng, n);
  SolverWorkspace ws;
  ws.load(a, b);

  const std::size_t subset[kSmallMaxMinimalRows] = {17, 3, 22, 9, 11};
  SmallGram g;
  g.reset(p);
  double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  accumulate_rows(ws, subset, m, g, rhs);
  g.mirror();

  Matrix sub(m, p);
  std::vector<double> sub_b(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t c = 0; c < p; ++c) sub(i, c) = a(subset[i], c);
    sub_b[i] = b[subset[i]];
  }
  const Matrix ref = sub.gram();
  const auto ref_rhs = sub.transpose_multiply(sub_b);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) EXPECT_EQ(g.g[i][j], ref(i, j));
    EXPECT_EQ(rhs[i], ref_rhs[i]);
  }
}

// ---------------------------------------------------------------------------
// IRLS kernel: solve_irls_masked (fused Huber pass, templated finalize)
// against the classic solve_irls on the materialized row subset.
// ---------------------------------------------------------------------------

struct MaskedCase {
  Matrix a;
  std::vector<double> b;
  std::vector<char> mask;
  std::size_t count = 0;
};

/// Rows drawn as a linear model plus noise, a few gross outliers, and a
/// random mask keeping about 80% of them.
MaskedCase masked_case(std::mt19937_64& rng, std::size_t n, std::size_t p) {
  MaskedCase c;
  c.a = random_matrix(rng, n, p);
  c.b = random_vector(rng, n, -0.05, 0.05);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      c.b[i] += c.a(i, j) * static_cast<double>(j + 1);
    }
    if (u(rng) < 0.08) c.b[i] += 3.0;
  }
  c.mask.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.mask[i] = u(rng) < 0.8 ? 1 : 0;
    c.count += c.mask[i] ? 1 : 0;
  }
  return c;
}

/// Runs both solvers and asserts bit-equal results; returns the reference.
LstsqResult expect_masked_matches_classic(const MaskedCase& c,
                                          const IrlsOptions& opt) {
  const std::size_t p = c.a.cols();
  Matrix sub(c.count, p);
  std::vector<double> sub_b(c.count);
  std::size_t r = 0;
  for (std::size_t i = 0; i < c.a.rows(); ++i) {
    if (!c.mask[i]) continue;
    for (std::size_t j = 0; j < p; ++j) sub(r, j) = c.a(i, j);
    sub_b[r++] = c.b[i];
  }
  const LstsqResult want = solve_irls(sub, sub_b, opt);

  SolverWorkspace ws;
  ws.load(c.a, c.b);
  LstsqResult got;
  EXPECT_EQ(solve_irls_masked(ws, c.mask.data(), c.count, opt, got),
            SolveStatus::kOk);
  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.residuals, want.residuals);
  EXPECT_EQ(got.weights, want.weights);
  EXPECT_EQ(got.mean_residual, want.mean_residual);
  EXPECT_EQ(got.rms_residual, want.rms_residual);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  return want;
}

TEST(IrlsKernel, MaskedMatchesClassicOnRandomMasksBitExact) {
  std::mt19937_64 rng(41);
  // 3000 rows keep the masked count above the bracketed-median threshold
  // (2048), so both median paths feed the weights.
  for (std::size_t n : {37, 300, 3000}) {
    for (std::size_t p = 1; p <= kSmallMaxCols; ++p) {
      const MaskedCase c = masked_case(rng, n, p);
      for (RobustLoss loss :
           {RobustLoss::kGaussian, RobustLoss::kHuber, RobustLoss::kTukey}) {
        IrlsOptions opt;
        opt.loss = loss;
        SCOPED_TRACE(std::string(robust_loss_name(loss)) + " n=" +
                     std::to_string(n) + " p=" + std::to_string(p));
        const LstsqResult want = expect_masked_matches_classic(c, opt);
        EXPECT_GT(want.iterations, 0u);
      }
    }
  }
}

TEST(IrlsKernel, TukeyAllRejectedRefillsWithHuberBitExact) {
  // A tuning cutoff far below any residual's distance from the median (an
  // even row count puts the median between two residuals) rejects every
  // row: each round must refill with Huber weights, as the classic
  // robust_residual_weights does.
  std::mt19937_64 rng(42);
  for (std::size_t n : {60, 3000}) {
    MaskedCase c = masked_case(rng, n, 3);
    if (c.count % 2 == 1) {
      for (std::size_t i = 0; i < n; ++i) {
        if (c.mask[i]) {
          c.mask[i] = 0;
          --c.count;
          break;
        }
      }
    }
    IrlsOptions opt;
    opt.loss = RobustLoss::kTukey;
    opt.tuning = 1e-7;
    SCOPED_TRACE("n=" + std::to_string(n));
    const LstsqResult want = expect_masked_matches_classic(c, opt);
    ASSERT_GT(want.iterations, 0u);
    // Tukey weights would be hard zeros; Huber weights never are.
    for (double w : want.weights) ASSERT_GT(w, 0.0);
  }
}

TEST(IrlsKernel, CholeskyRejectTakesQrPathBitExact) {
  // Column 1 = column 0 + 1e-9 noise: the normal equations square the
  // conditioning past what Cholesky resolves, while QR on the rows still
  // does. Search a few seeds for a system whose gram Cholesky rejects.
  bool found = false;
  for (std::uint64_t seed = 1; seed < 200 && !found; ++seed) {
    std::mt19937_64 rng(seed);
    MaskedCase c = masked_case(rng, 80, 3);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (std::size_t i = 0; i < c.a.rows(); ++i) {
      c.a(i, 1) = c.a(i, 0) + 1e-9 * u(rng);
    }
    SolverWorkspace ws;
    ws.load(c.a, c.b);
    SmallGram g;
    g.reset(3);
    double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
    accumulate_masked(ws, c.mask.data(), g, rhs);
    g.mirror();
    SmallCholesky chol;
    if (small_cholesky_factor(g, chol)) continue;
    found = true;
    for (RobustLoss loss :
         {RobustLoss::kGaussian, RobustLoss::kHuber, RobustLoss::kTukey}) {
      IrlsOptions opt;
      opt.loss = loss;
      SCOPED_TRACE(std::string(robust_loss_name(loss)) + " seed " +
                   std::to_string(seed));
      expect_masked_matches_classic(c, opt);
    }
  }
  EXPECT_TRUE(found) << "no seed produced a Cholesky-rejected system";
}

TEST(IrlsWarmBracket, MedianJumpBetweenRoundsMatchesClassic) {
  // An intercept column and 30% of rows shifted by +3: the OLS seed splits
  // the shift, so round 0's residual median sits ~0.9 below the inliers'
  // centre with a MAD of the inlier noise. Huber reweighting then drops
  // the shifted rows and the next median jumps by ~30 MADs, far outside
  // the warm bracket: that round must fall back (counted) and every round
  // must still match the classic solver bit for bit.
  for (const std::size_t n : {60, 3000}) {
    for (std::size_t p = 2; p <= kSmallMaxCols; ++p) {
      std::mt19937_64 rng(43 + n + p);
      MaskedCase c = masked_case(rng, n, p);
      std::uniform_real_distribution<double> u(0.0, 1.0);
      for (std::size_t i = 0; i < n; ++i) {
        c.a(i, 0) = 1.0;
        c.b[i] = 0.5 + c.a(i, p - 1) + 0.01 * (u(rng) - 0.5) +
                 (u(rng) < 0.3 ? 3.0 : 0.0);
      }
      SCOPED_TRACE("n=" + std::to_string(n) + " p=" + std::to_string(p));
      obs::set_metrics_enabled(true);
      obs::MetricsRegistry::instance().reset();
      IrlsOptions opt;
      opt.loss = RobustLoss::kHuber;
      const LstsqResult want = expect_masked_matches_classic(c, opt);
      const auto snap = obs::MetricsRegistry::instance().snapshot();
      obs::set_metrics_enabled(false);
      std::uint64_t misses = 0;
      for (const auto& [name, value] : snap.counters) {
        if (name == "select.warm_misses") misses = value;
      }
      EXPECT_GE(want.iterations, 2u);
      EXPECT_GE(misses, 1u) << "the median never left its warm bracket";
    }
  }
}

}  // namespace
}  // namespace lion::linalg
