#include "core/ransac.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "linalg/stats.hpp"
#include "obs/obs.hpp"
#include "rf/rng.hpp"

namespace lion::core {

namespace {

using linalg::SolveStatus;

// All sampling, scoring, and refit state lives in the workspace; once it
// and the result are warm, a solve performs zero heap allocations.

// The robust IRLS over every row, for systems sampling cannot decide.
SolveStatus full_row_fallback(linalg::SolverWorkspace& ws,
                              const RansacOptions& options,
                              std::size_t iterations, RansacResult& out) {
  LION_OBS_COUNT("ransac.fallbacks", 1);
  linalg::IrlsOptions irls = options.irls;
  irls.loss = options.refit_loss;
  const SolveStatus st =
      linalg::solve_irls_masked(ws, nullptr, ws.rows(), irls, out.solution);
  if (st != SolveStatus::kOk) return st;
  out.inlier_mask.assign(ws.rows(), 1);
  out.inlier_fraction = 1.0;
  out.iterations = iterations;
  out.consensus = false;
  return SolveStatus::kOk;
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

}  // namespace

SolveStatus ransac_solve_loaded(const RansacOptions& options,
                                linalg::SolverWorkspace& ws,
                                RansacResult& out, const char* prior_mask) {
  LION_OBS_SPAN(obs::Stage::kRansac);
  const std::size_t n = ws.rows();
  const std::size_t p = ws.cols();
  if (n < p) return SolveStatus::kUnderdetermined;
  // Too few rows for subset sampling to mean anything: robust-IRLS it.
  if (n < p + 3) return full_row_fallback(ws, options, 0, out);

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
  // the loop below is untouched, so a cold call (prior_mask == nullptr)
  // samples exactly as it would without the option.
  if (prior_mask != nullptr) {
    std::size_t warm_rows = 0;
    for (std::size_t i = 0; i < n; ++i) warm_rows += prior_mask[i] ? 1 : 0;
    if (warm_rows >= m) {
      linalg::SmallGram g;
      g.reset(p);
      double rhs[linalg::kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
      accumulate_masked(ws, prior_mask, g, rhs);
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
    return full_row_fallback(ws, options, evaluated, out);
  }

  // LMedS robust scale with the usual small-sample correction, then the
  // consensus set at 2.5 sigma (or the caller's absolute threshold).
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
    return full_row_fallback(ws, options, evaluated, out);
  }

  linalg::IrlsOptions irls = options.irls;
  irls.loss = options.refit_loss;
  if (linalg::solve_irls_masked(ws, out.inlier_mask.data(), count, irls,
                                out.solution) != SolveStatus::kOk) {
    return full_row_fallback(ws, options, evaluated, out);
  }
  out.inlier_fraction = static_cast<double>(count) / static_cast<double>(n);
  out.iterations = evaluated;
  out.consensus = true;
  LION_OBS_COUNT("ransac.consensus", 1);
  LION_OBS_HIST("ransac.inlier_fraction", obs::fraction_bounds(),
                out.inlier_fraction);
  return SolveStatus::kOk;
}

SolveStatus ransac_solve(const linalg::Matrix& a, const std::vector<double>& b,
                         const RansacOptions& options,
                         linalg::SolverWorkspace& ws, RansacResult& out) {
  if (a.rows() < a.cols()) {
    throw std::invalid_argument("ransac_solve: underdetermined system");
  }
  ws.load(a, b);  // rejects a rhs size mismatch and cols outside [1, 4]
  return ransac_solve_loaded(options, ws, out);
}

RansacResult ransac_solve(const linalg::Matrix& a,
                          const std::vector<double>& b,
                          const RansacOptions& options) {
  linalg::SolverWorkspace ws;
  RansacResult out;
  const SolveStatus st = ransac_solve(a, b, options, ws, out);
  if (st != SolveStatus::kOk) {
    throw std::domain_error(std::string("ransac_solve: ") +
                            linalg::solve_status_name(st));
  }
  return out;
}

}  // namespace lion::core
