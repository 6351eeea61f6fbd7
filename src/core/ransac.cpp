#include "core/ransac.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/stats.hpp"
#include "obs/obs.hpp"
#include "rf/rng.hpp"

namespace lion::core {

namespace {

using linalg::SolveStatus;

// ---------------------------------------------------------------------------
// Wide-system path (cols > kSmallMaxCols — not produced by LION geometry,
// kept for generality). Allocates per iteration like any textbook LMedS,
// but the degenerate-subset branch is status-based here too: no throw /
// catch in the sampling loop.
// ---------------------------------------------------------------------------

// Residuals of x over every row of the full system.
std::vector<double> full_residuals(const linalg::Matrix& a,
                                   const std::vector<double>& b,
                                   const std::vector<double>& x) {
  std::vector<double> r = a.multiply(x);
  for (std::size_t i = 0; i < b.size(); ++i) r[i] -= b[i];
  return r;
}

void full_row_fallback_general(const linalg::Matrix& a,
                               const std::vector<double>& b,
                               const RansacOptions& options,
                               std::size_t iterations, RansacResult& out) {
  LION_OBS_COUNT("ransac.fallbacks", 1);
  linalg::IrlsOptions irls = options.irls;
  irls.loss = options.refit_loss;
  out.solution = linalg::solve_irls(a, b, irls);
  out.inlier_mask.assign(a.rows(), 1);
  out.inlier_fraction = 1.0;
  out.iterations = iterations;
  out.consensus = false;
}

void ransac_solve_general(const linalg::Matrix& a,
                          const std::vector<double>& b,
                          const RansacOptions& options, RansacResult& out) {
  const std::size_t n = a.rows();
  const std::size_t p = a.cols();
  // Too few rows for subset sampling to mean anything: robust-IRLS it.
  if (n < p + 3) {
    full_row_fallback_general(a, b, options, 0, out);
    return;
  }

  rf::Rng rng(options.seed);
  const std::size_t m = p + 1;  // mildly overdetermined minimal subset

  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;

  double best_score = std::numeric_limits<double>::infinity();
  std::vector<double> best_residuals;
  std::size_t evaluated = 0;

  linalg::Matrix sub(m, p);
  std::vector<double> sub_b(m);
  std::vector<double> x;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Partial Fisher-Yates: the first m entries become the random subset.
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng.uniform_int(
                                    0, static_cast<std::int64_t>(n - 1 - i)));
      std::swap(indices[i], indices[j]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t c = 0; c < p; ++c) sub(i, c) = a(indices[i], c);
      sub_b[i] = b[indices[i]];
    }
    LION_OBS_COUNT("ransac.iterations", 1);
    if (linalg::try_solve_least_squares(sub, sub_b, x) != SolveStatus::kOk) {
      // Degenerate subset (e.g. all rows from one burst).
      LION_OBS_COUNT("ransac.degenerate_subsets", 1);
      continue;
    }
    ++evaluated;
    auto r = full_residuals(a, b, x);
    std::vector<double> r2(r.size());
    for (std::size_t i = 0; i < r.size(); ++i) r2[i] = r[i] * r[i];
    const double score = linalg::median(r2);
    if (score < best_score) {
      best_score = score;
      best_residuals = std::move(r);
    }
  }
  if (!std::isfinite(best_score) || best_residuals.empty()) {
    full_row_fallback_general(a, b, options, evaluated, out);
    return;
  }

  // LMedS robust scale with the usual small-sample correction, then the
  // consensus set at 2.5 sigma (or the caller's absolute threshold).
  const double sigma = 1.4826 *
                       (1.0 + 5.0 / static_cast<double>(n - p)) *
                       std::sqrt(best_score);
  const double threshold = options.inlier_threshold > 0.0
                               ? options.inlier_threshold
                               : std::max(2.5 * sigma, 1e-12);

  std::vector<char> mask(n, 0);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(best_residuals[i]) <= threshold) {
      mask[i] = 1;
      ++count;
    }
  }
  if (count < p + 1 ||
      static_cast<double>(count) <
          options.min_inlier_fraction * static_cast<double>(n)) {
    full_row_fallback_general(a, b, options, evaluated, out);
    return;
  }

  linalg::Matrix inlier_a(count, p);
  std::vector<double> inlier_b(count);
  std::size_t row = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!mask[i]) continue;
    for (std::size_t c = 0; c < p; ++c) inlier_a(row, c) = a(i, c);
    inlier_b[row] = b[i];
    ++row;
  }
  linalg::IrlsOptions irls = options.irls;
  irls.loss = options.refit_loss;
  try {
    out.solution = linalg::solve_irls(inlier_a, inlier_b, irls);
  } catch (const std::exception&) {
    full_row_fallback_general(a, b, options, evaluated, out);
    return;
  }
  out.inlier_mask = std::move(mask);
  out.inlier_fraction = static_cast<double>(count) / static_cast<double>(n);
  out.iterations = evaluated;
  out.consensus = true;
  LION_OBS_COUNT("ransac.consensus", 1);
  LION_OBS_HIST("ransac.inlier_fraction", obs::fraction_bounds(),
                out.inlier_fraction);
}

// ---------------------------------------------------------------------------
// Small-system hot path (cols <= kSmallMaxCols — every LION system). All
// sampling, scoring, and refit state lives in the workspace; once it and
// the result are warm, a solve performs zero heap allocations. Results
// are bit-identical to the wide path run on the same system.
// ---------------------------------------------------------------------------

void full_row_fallback_ws(linalg::SolverWorkspace& ws,
                          const RansacOptions& options,
                          std::size_t iterations, RansacResult& out) {
  LION_OBS_COUNT("ransac.fallbacks", 1);
  linalg::IrlsOptions irls = options.irls;
  irls.loss = options.refit_loss;
  const SolveStatus st =
      linalg::solve_irls_masked(ws, nullptr, ws.rows(), irls, out.solution);
  // The classic fallback lets solver failures propagate to the caller;
  // re-raise the same exceptions it would.
  if (st == SolveStatus::kUnderdetermined) {
    throw std::domain_error("least squares: underdetermined system");
  }
  if (st != SolveStatus::kOk) {
    throw std::domain_error("HouseholderQR::solve: rank deficient");
  }
  out.inlier_mask.assign(ws.rows(), 1);
  out.inlier_fraction = 1.0;
  out.iterations = iterations;
  out.consensus = false;
}

// One fused pass over the full system for a candidate x: residuals into
// `residuals`, squared residuals into `scratch` (the future median input),
// and a count of squared residuals strictly below `best`. Templated on the
// column count so the dot product fully unrolls; the accumulation order is
// the rolled loop's, so residual values are unchanged.
template <std::size_t P>
std::size_t candidate_pass(const linalg::SolverWorkspace& ws, const double* x,
                           double best, double* residuals, double* scratch) {
  const std::size_t n = ws.rows();
  std::size_t below = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = ws.row(i);
    double s = 0.0;
    for (std::size_t c = 0; c < P; ++c) s += row[c] * x[c];
    const double r = s - ws.rhs(i);
    residuals[i] = r;
    const double sq = r * r;
    scratch[i] = sq;
    if (sq < best) ++below;
  }
  return below;
}

std::size_t candidate_pass(const linalg::SolverWorkspace& ws, const double* x,
                           double best, double* residuals, double* scratch) {
  switch (ws.cols()) {
    case 1:
      return candidate_pass<1>(ws, x, best, residuals, scratch);
    case 2:
      return candidate_pass<2>(ws, x, best, residuals, scratch);
    case 3:
      return candidate_pass<3>(ws, x, best, residuals, scratch);
    default:
      return candidate_pass<4>(ws, x, best, residuals, scratch);
  }
}

// Over the system already loaded into `ws` (at most kSmallMaxCols
// columns, at least as many rows).
void ransac_solve_small(const RansacOptions& options,
                        linalg::SolverWorkspace& ws, RansacResult& out,
                        const char* warm_mask = nullptr) {
  const std::size_t n = ws.rows();
  const std::size_t p = ws.cols();
  if (n < p + 3) {
    full_row_fallback_ws(ws, options, 0, out);
    return;
  }

  rf::Rng rng(options.seed);
  const std::size_t m = p + 1;

  ws.indices.resize(n);
  for (std::size_t i = 0; i < n; ++i) ws.indices[i] = i;
  ws.residuals.resize(n);
  ws.best_residuals.resize(n);
  ws.median_scratch.resize(n);

  double best_score = std::numeric_limits<double>::infinity();
  bool have_best = false;
  std::size_t evaluated = 0;
  double x[linalg::kSmallMaxCols];

  // Warm start: seed the best-so-far candidate with the OLS fit over the
  // caller's prior inlier set (the previous window's consensus, mapped to
  // this system's rows). With a still-valid prior, the median prescreen
  // below rejects most random candidates after one comparison pass; with a
  // stale prior the seed simply loses the sampling tournament. Either way
  // the loop below is untouched, so a cold call (warm_mask == nullptr)
  // stays bit-identical to the classic path.
  if (warm_mask != nullptr) {
    std::size_t warm_rows = 0;
    for (std::size_t i = 0; i < n; ++i) warm_rows += warm_mask[i] ? 1 : 0;
    if (warm_rows >= m) {
      linalg::SmallGram g;
      g.reset(p);
      double rhs[linalg::kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
      accumulate_masked(ws, warm_mask, g, rhs);
      g.mirror();
      linalg::SmallCholesky chol;
      if (small_cholesky_factor(g, chol)) {
        small_cholesky_solve(chol, rhs, x);
        candidate_pass(ws, x, best_score, ws.residuals.data(),
                       ws.median_scratch.data());
        const double score = linalg::median_in_place(
            ws.median_scratch.data(), ws.median_scratch.data() + n);
        if (std::isfinite(score)) {
          best_score = score;
          std::swap(ws.residuals, ws.best_residuals);
          have_best = true;
          LION_OBS_COUNT("ransac.warm_seeds", 1);
        }
      }
    }
  }

  // Median prescreen threshold: with mid = n/2, median_in_place returns
  // v[mid] for odd n and 0.5 * (v[mid-1] + v[mid]) for even n. A candidate
  // can only *strictly* beat best_score if at least mid+1 (odd) / mid
  // (even) squared residuals are below it: otherwise v[mid] (and for even
  // n also v[mid-1]) is >= best, and the monotone FP add/halve keeps the
  // even-n average >= best too. Counting is one compare per row, so losing
  // candidates skip the nth_element median entirely — and losing is the
  // common case once an early good subset sets the bar.
  const std::size_t median_need = n / 2 + (n % 2 == 1 ? 1 : 0);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng.uniform_int(
                                    0, static_cast<std::int64_t>(n - 1 - i)));
      std::swap(ws.indices[i], ws.indices[j]);
    }
    LION_OBS_COUNT("ransac.iterations", 1);
    // Minimal-subset solve straight from the workspace rows.
    linalg::SmallGram g;
    g.reset(p);
    double rhs[linalg::kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
    accumulate_rows(ws, ws.indices.data(), m, g, rhs);
    g.mirror();
    linalg::SmallCholesky chol;
    SolveStatus st;
    if (small_cholesky_factor(g, chol)) {
      small_cholesky_solve(chol, rhs, x);
      st = SolveStatus::kOk;
    } else {
      double qa[linalg::kSmallMaxMinimalRows][linalg::kSmallMaxCols];
      double qb[linalg::kSmallMaxMinimalRows];
      for (std::size_t i = 0; i < m; ++i) {
        const double* row = ws.row(ws.indices[i]);
        for (std::size_t c = 0; c < p; ++c) qa[i][c] = row[c];
        qb[i] = ws.rhs(ws.indices[i]);
      }
      st = linalg::small_qr_solve(qa, qb, m, p, x);
    }
    if (st != SolveStatus::kOk) {
      LION_OBS_COUNT("ransac.degenerate_subsets", 1);
      continue;
    }
    ++evaluated;
    const std::size_t below = candidate_pass(
        ws, x, best_score, ws.residuals.data(), ws.median_scratch.data());
    if (below < median_need) continue;  // median provably >= best_score
    const double score = linalg::median_in_place(
        ws.median_scratch.data(), ws.median_scratch.data() + n);
    if (score < best_score) {
      best_score = score;
      std::swap(ws.residuals, ws.best_residuals);
      have_best = true;
    }
  }
  if (!std::isfinite(best_score) || !have_best) {
    full_row_fallback_ws(ws, options, evaluated, out);
    return;
  }

  const double sigma = 1.4826 *
                       (1.0 + 5.0 / static_cast<double>(n - p)) *
                       std::sqrt(best_score);
  const double threshold = options.inlier_threshold > 0.0
                               ? options.inlier_threshold
                               : std::max(2.5 * sigma, 1e-12);

  out.inlier_mask.assign(n, 0);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(ws.best_residuals[i]) <= threshold) {
      out.inlier_mask[i] = 1;
      ++count;
    }
  }
  if (count < p + 1 ||
      static_cast<double>(count) <
          options.min_inlier_fraction * static_cast<double>(n)) {
    full_row_fallback_ws(ws, options, evaluated, out);
    return;
  }

  linalg::IrlsOptions irls = options.irls;
  irls.loss = options.refit_loss;
  if (linalg::solve_irls_masked(ws, out.inlier_mask.data(), count, irls,
                                out.solution) != SolveStatus::kOk) {
    full_row_fallback_ws(ws, options, evaluated, out);
    return;
  }
  out.inlier_fraction = static_cast<double>(count) / static_cast<double>(n);
  out.iterations = evaluated;
  out.consensus = true;
  LION_OBS_COUNT("ransac.consensus", 1);
  LION_OBS_HIST("ransac.inlier_fraction", obs::fraction_bounds(),
                out.inlier_fraction);
}

}  // namespace

void ransac_solve(const linalg::Matrix& a, const std::vector<double>& b,
                  const RansacOptions& options, linalg::SolverWorkspace& ws,
                  RansacResult& out) {
  LION_OBS_SPAN(obs::Stage::kRansac);
  const std::size_t n = a.rows();
  const std::size_t p = a.cols();
  if (b.size() != n) {
    throw std::invalid_argument("ransac_solve: rhs size mismatch");
  }
  if (n < p) {
    throw std::invalid_argument("ransac_solve: underdetermined system");
  }
  if (p != 0 && p <= linalg::kSmallMaxCols) {
    ws.load(a, b);
    ransac_solve_small(options, ws, out);
  } else {
    ransac_solve_general(a, b, options, out);
  }
}

void ransac_solve_loaded(const RansacOptions& options,
                         linalg::SolverWorkspace& ws, RansacResult& out) {
  LION_OBS_SPAN(obs::Stage::kRansac);
  if (ws.rows() < ws.cols()) {
    throw std::invalid_argument("ransac_solve: underdetermined system");
  }
  ransac_solve_small(options, ws, out);
}

RansacResult ransac_solve(const linalg::Matrix& a,
                          const std::vector<double>& b,
                          const RansacOptions& options,
                          linalg::SolverWorkspace& ws) {
  RansacResult out;
  ransac_solve(a, b, options, ws, out);
  return out;
}

RansacResult ransac_solve(const linalg::Matrix& a,
                          const std::vector<double>& b,
                          const RansacOptions& options) {
  linalg::SolverWorkspace ws;
  return ransac_solve(a, b, options, ws);
}

void ransac_solve_warm(const linalg::Matrix& a, const std::vector<double>& b,
                       const RansacOptions& options,
                       linalg::SolverWorkspace& ws,
                       const std::vector<char>& prior_inliers,
                       RansacResult& out) {
  LION_OBS_SPAN(obs::Stage::kRansac);
  const std::size_t n = a.rows();
  const std::size_t p = a.cols();
  if (b.size() != n) {
    throw std::invalid_argument("ransac_solve_warm: rhs size mismatch");
  }
  if (n < p) {
    throw std::invalid_argument("ransac_solve_warm: underdetermined system");
  }
  const bool usable_prior = prior_inliers.size() == n;
  if (p != 0 && p <= linalg::kSmallMaxCols) {
    ws.load(a, b);
    ransac_solve_small(options, ws, out,
                       usable_prior ? prior_inliers.data() : nullptr);
  } else {
    // The wide path has no warm seeding (LION never produces p > 4);
    // degrade to the cold solve rather than reject.
    ransac_solve_general(a, b, options, out);
  }
}

}  // namespace lion::core
