#include "linalg/lstsq.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/decompositions.hpp"
#include "linalg/small.hpp"
#include "linalg/stats.hpp"
#include "obs/obs.hpp"

namespace lion::linalg {

namespace {

// Fill residual/summary fields of a result whose x is already set.
void finalize(const Matrix& a, const std::vector<double>& b,
              LstsqResult& out) {
  out.residuals = a.multiply(out.x);
  for (std::size_t i = 0; i < b.size(); ++i) out.residuals[i] -= b[i];
  out.mean_residual = mean(out.residuals);
  double ss = 0.0;
  for (double r : out.residuals) ss += r * r;
  out.rms_residual =
      out.residuals.empty()
          ? 0.0
          : std::sqrt(ss / static_cast<double>(out.residuals.size()));
}

std::vector<double> solve_normal_or_qr(const Matrix& a,
                                       const std::vector<double>& b,
                                       const std::vector<double>* weights) {
  if (a.rows() < a.cols()) {
    throw std::domain_error("least squares: underdetermined system");
  }
  const Matrix gram = weights ? a.weighted_gram(*weights) : a.gram();
  const std::vector<double> rhs =
      weights ? a.weighted_transpose_multiply(*weights, b)
              : a.transpose_multiply(b);
  if (const auto chol = Cholesky::factor(gram)) return chol->solve(rhs);
  // Normal equations failed (rank-deficient or badly conditioned): fall back
  // to QR on the (row-scaled, for WLS) design matrix.
  Matrix design = a;
  std::vector<double> target = b;
  if (weights) {
    for (std::size_t r = 0; r < design.rows(); ++r) {
      const double s = std::sqrt(std::max(0.0, (*weights)[r]));
      for (std::size_t c = 0; c < design.cols(); ++c) design(r, c) *= s;
      target[r] *= s;
    }
  }
  return HouseholderQR(std::move(design)).solve(target);
}

}  // namespace

const char* solve_status_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOk:
      return "ok";
    case SolveStatus::kUnderdetermined:
      return "underdetermined";
    case SolveStatus::kRankDeficient:
      return "rank_deficient";
  }
  return "unknown";
}

LstsqResult solve_least_squares(const Matrix& a,
                                const std::vector<double>& b) {
  if (b.size() != a.rows()) {
    throw std::invalid_argument("solve_least_squares: rhs size mismatch");
  }
  LstsqResult out;
  out.x = solve_normal_or_qr(a, b, nullptr);
  out.weights.assign(a.rows(), 1.0);
  finalize(a, b, out);
  return out;
}

LstsqResult solve_weighted_least_squares(const Matrix& a,
                                         const std::vector<double>& b,
                                         const std::vector<double>& weights) {
  if (b.size() != a.rows() || weights.size() != a.rows()) {
    throw std::invalid_argument(
        "solve_weighted_least_squares: size mismatch");
  }
  LstsqResult out;
  out.x = solve_normal_or_qr(a, b, &weights);
  out.weights = weights;
  finalize(a, b, out);
  return out;
}

const char* robust_loss_name(RobustLoss loss) {
  switch (loss) {
    case RobustLoss::kGaussian:
      return "gaussian";
    case RobustLoss::kHuber:
      return "huber";
    case RobustLoss::kTukey:
      return "tukey";
  }
  return "unknown";
}

std::vector<double> robust_residual_weights(
    const std::vector<double>& residuals, RobustLoss loss, double tuning,
    double min_sigma) {
  if (loss == RobustLoss::kGaussian) {
    return gaussian_residual_weights(residuals, min_sigma);
  }
  if (residuals.empty()) return {};
  const double med = median(residuals);
  std::vector<double> abs_dev(residuals.size());
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    abs_dev[i] = std::abs(residuals[i] - med);
  }
  const double sigma = std::max(1.4826 * median(abs_dev), min_sigma);

  const double c = tuning > 0.0
                       ? tuning
                       : (loss == RobustLoss::kHuber ? 1.345 : 4.685);
  auto weights_for = [&](RobustLoss l) {
    std::vector<double> w(residuals.size());
    for (std::size_t i = 0; i < residuals.size(); ++i) {
      const double z = std::abs(residuals[i] - med) / sigma;
      if (l == RobustLoss::kHuber) {
        w[i] = z <= c ? 1.0 : c / z;
      } else {  // Tukey biweight
        const double u = z / c;
        w[i] = u < 1.0 ? (1.0 - u * u) * (1.0 - u * u) : 0.0;
      }
    }
    return w;
  };

  auto w = weights_for(loss);
  double total = 0.0;
  for (double wi : w) total += wi;
  // Feasibility gate: if the loss rejected essentially every row, retry
  // with Huber (never zero). The threshold is on the *mean* weight — a
  // dimensionless quantity — not on min_sigma, which is a residual-scale
  // floor in metres and happens to share the 1e-12 default.
  if (total <= kMinMeanRobustWeight * static_cast<double>(w.size())) {
    w = weights_for(RobustLoss::kHuber);
  }
  return w;
}

std::vector<double> gaussian_residual_weights(
    const std::vector<double>& residuals, double min_sigma) {
  const double mu = mean(residuals);
  const double sigma = std::max(stddev(residuals), min_sigma);
  std::vector<double> w(residuals.size());
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    const double z = (residuals[i] - mu) / sigma;
    w[i] = std::exp(-0.5 * z * z);
  }
  return w;
}

namespace {

// Observability for a finished IRLS run: iterations-to-converge, the final
// robust weight mass (sum of weights / rows — how much of the data the
// loss kept), and a counter of runs that hit the iteration cap.
void note_irls_outcome(const LstsqResult& result) {
  LION_OBS_HIST("irls.iterations", obs::count_bounds(),
                static_cast<double>(result.iterations));
  if (!result.weights.empty()) {
    double mass = 0.0;
    for (double w : result.weights) mass += w;
    LION_OBS_HIST("irls.weight_mass", obs::fraction_bounds(),
                  mass / static_cast<double>(result.weights.size()));
  }
  if (!result.converged) LION_OBS_COUNT("irls.nonconverged", 1);
}

}  // namespace

LstsqResult solve_irls(const Matrix& a, const std::vector<double>& b,
                       const IrlsOptions& options) {
  LION_OBS_SPAN(obs::Stage::kIrls);
  LstsqResult current = solve_least_squares(a, b);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    const auto weights = robust_residual_weights(
        current.residuals, options.loss, options.tuning, options.min_sigma);
    LstsqResult next = solve_weighted_least_squares(a, b, weights);
    next.iterations = iter + 1;
    double delta = 0.0;
    for (std::size_t i = 0; i < next.x.size(); ++i) {
      delta = std::max(delta, std::abs(next.x[i] - current.x[i]));
    }
    current = std::move(next);
    if (delta < options.tolerance) {
      current.converged = true;
      note_irls_outcome(current);
      return current;
    }
  }
  current.converged = false;
  note_irls_outcome(current);
  return current;
}

// --------------------------------------------------------------------------
// Workspace path: the same IRLS, operation for operation, over the rows a
// mask selects from the system cached in a SolverWorkspace. Steady state
// (warm workspace, reused result) performs no heap allocation; only the
// rare Cholesky-reject -> QR fallback materializes the subsystem.
// --------------------------------------------------------------------------

namespace {

// Finish a solve of the masked subsystem from its normal equations, already
// accumulated into g (upper triangle) and rhs; `weights[k]` weighted the
// k-th *selected* row (nullptr: unweighted). Mirrors solve_normal_or_qr on
// the materialized subsystem.
SolveStatus solve_masked_normals(const SolverWorkspace& ws, const char* mask,
                                 std::size_t count, const double* weights,
                                 SmallGram& g, const double* rhs, double* x) {
  const std::size_t p = ws.cols();
  g.mirror();
  SmallCholesky chol;
  if (small_cholesky_factor(g, chol)) {
    small_cholesky_solve(chol, rhs, x);
    return SolveStatus::kOk;
  }
  // Normal equations rejected: QR on the (row-scaled, for WLS) subsystem,
  // with the rank-deficiency throw turned into a status via the same
  // |R_ii| < kSingularTol cutoff.
  Matrix design(count, p);
  std::vector<double> target(count);
  std::size_t sel = 0;
  for (std::size_t r = 0; r < ws.rows(); ++r) {
    if (mask && !mask[r]) continue;
    const double* row = ws.row(r);
    for (std::size_t c = 0; c < p; ++c) design(sel, c) = row[c];
    target[sel] = ws.rhs(r);
    if (weights) {
      const double s = std::sqrt(std::max(0.0, weights[sel]));
      for (std::size_t c = 0; c < p; ++c) design(sel, c) *= s;
      target[sel] *= s;
    }
    ++sel;
  }
  const HouseholderQR qr(std::move(design));
  for (const double d : qr.r_diagonal()) {
    if (d < kSingularTol) return SolveStatus::kRankDeficient;
  }
  const auto xs = qr.solve(target);
  for (std::size_t c = 0; c < p; ++c) x[c] = xs[c];
  return SolveStatus::kOk;
}

// finalize() over the masked subsystem in one pass: residuals, and the sum
// and sum of squares that mean() and the rms loop accumulate, in the same
// row order.
template <std::size_t P>
void finalize_masked(const SolverWorkspace& ws, const char* mask,
                     std::size_t count, const double* x, LstsqResult& out) {
  out.residuals.resize(count);
  double* res = out.residuals.data();
  const double* rows = ws.row(0);
  const double* b = ws.rhs_data();
  const std::size_t n = ws.rows();
  double sum = 0.0;
  double ss = 0.0;
  std::size_t sel = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (mask && !mask[r]) continue;
    const double* row = rows + r * P;
    double s = 0.0;
    for (std::size_t c = 0; c < P; ++c) s += row[c] * x[c];
    const double e = s - b[r];
    res[sel++] = e;
    sum += e;
    ss += e * e;
  }
  const double m = static_cast<double>(count);
  out.mean_residual = count == 0 ? 0.0 : sum / m;
  out.rms_residual = count == 0 ? 0.0 : std::sqrt(ss / m);
}

// Half-width of an IRLS round's warm brackets, as a fraction of the
// previous round's raw MAD: the median is looked for within +- this much
// of the previous median, the MAD within +- this much of the previous MAD.
// Converging rounds move both far less; a wider bracket only compacts more.
constexpr double kWarmBracketHalfWidth = 0.05;

// What an IRLS round hands the next one: its residual median and raw MAD.
struct RobustCarry {
  bool warm = false;
  double med = 0.0;
  double mad = 0.0;
};

// Median and robust sigma (1.4826 * MAD, floored at min_sigma) of the
// residuals. The first round selects both over copies in the workspace
// scratch (sampled brackets, median_in_place); later rounds select inside
// warm brackets around the carried median and MAD, reading the residuals
// in place (warm_median / warm_abs_dev_median: same order statistics, so
// the same bits).
void robust_center_scale(SolverWorkspace& ws,
                         const std::vector<double>& residuals,
                         double min_sigma, RobustCarry& carry, double& med,
                         double& sigma) {
  const std::size_t n = residuals.size();
  ws.median_scratch.resize(n);
  double* scratch = ws.median_scratch.data();
  const double* res = residuals.data();
  double mad = 0.0;
  if (carry.warm) {
    const double h = kWarmBracketHalfWidth * carry.mad;
    med = warm_median(res, n, carry.med - h, carry.med + h, scratch);
    mad = warm_abs_dev_median(res, n, med, carry.mad - h, carry.mad + h,
                              scratch);
  } else {
    std::copy(res, res + n, scratch);
    med = median_in_place(scratch, scratch + n);
    for (std::size_t i = 0; i < n; ++i) scratch[i] = std::abs(res[i] - med);
    mad = median_in_place(scratch, scratch + n);
  }
  carry = {true, med, mad};
  sigma = std::max(1.4826 * mad, min_sigma);
}

// One reweighted normal-equation pass: the weights
// robust_residual_weights / gaussian_residual_weights give `residuals`,
// written to `w`, accumulated into g/rhs. Huber weights are computed
// inside the accumulation pass (they are never all zero, so the Tukey
// refill gate cannot fire); Gaussian and Tukey weights are filled first
// because Tukey's gate needs their total before any row is summed.
template <std::size_t P>
void reweighted_normals(SolverWorkspace& ws, const char* mask,
                        const std::vector<double>& residuals,
                        const IrlsOptions& options, RobustCarry& carry,
                        std::vector<double>& w, SmallGram& g, double* rhs) {
  const std::size_t n = residuals.size();
  w.resize(n);
  if (options.loss == RobustLoss::kGaussian) {
    const double mu = mean(residuals);
    const double sigma = std::max(stddev(residuals), options.min_sigma);
    for (std::size_t i = 0; i < n; ++i) {
      const double z = (residuals[i] - mu) / sigma;
      w[i] = std::exp(-0.5 * z * z);
    }
    const double* wp = w.data();
    accumulate_weighted_rows<P>(
        ws, mask, [wp](std::size_t k) { return wp[k]; }, g, rhs);
    return;
  }
  double med = 0.0;
  double sigma = 0.0;
  robust_center_scale(ws, residuals, options.min_sigma, carry, med, sigma);
  const double c =
      options.tuning > 0.0
          ? options.tuning
          : (options.loss == RobustLoss::kHuber ? 1.345 : 4.685);
  const double* res = residuals.data();
  double* wp = w.data();
  // By value: a capture by reference could alias the weight stores.
  auto huber = [res, wp, med, sigma, c](std::size_t k) {
    const double z = std::abs(res[k] - med) / sigma;
    return wp[k] = z <= c ? 1.0 : c / z;
  };
  if (options.loss == RobustLoss::kTukey) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double z = std::abs(res[i] - med) / sigma;
      const double u = z / c;
      wp[i] = u < 1.0 ? (1.0 - u * u) * (1.0 - u * u) : 0.0;
      total += wp[i];
    }
    // Every row rejected: fall back to Huber, as robust_residual_weights.
    if (!(total <= kMinMeanRobustWeight * static_cast<double>(n))) {
      accumulate_weighted_rows<P>(
          ws, mask, [wp](std::size_t k) { return wp[k]; }, g, rhs);
      return;
    }
  }
  accumulate_weighted_rows<P>(ws, mask, huber, g, rhs);
}

template <std::size_t P>
SolveStatus irls_masked(SolverWorkspace& ws, const char* mask,
                        std::size_t count, const IrlsOptions& options,
                        LstsqResult& out) {
  if (count < P) return SolveStatus::kUnderdetermined;
  double x[kSmallMaxCols];
  // OLS seed (the classic path's solve_least_squares).
  SmallGram g;
  g.reset(P);
  double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  accumulate_masked(ws, mask, g, rhs);
  SolveStatus st = solve_masked_normals(ws, mask, count, nullptr, g, rhs, x);
  if (st != SolveStatus::kOk) return st;
  out.x.assign(x, x + P);
  out.weights.assign(count, 1.0);
  finalize_masked<P>(ws, mask, count, x, out);
  out.iterations = 0;
  out.converged = true;

  LstsqResult* cur = &out;
  LstsqResult* nxt = &ws.irls_scratch;
  RobustCarry carry;
  bool converged = false;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    g.reset(P);
    for (double& v : rhs) v = 0.0;
    reweighted_normals<P>(ws, mask, cur->residuals, options, carry,
                          nxt->weights, g, rhs);
    st = solve_masked_normals(ws, mask, count, nxt->weights.data(), g, rhs,
                              x);
    if (st != SolveStatus::kOk) return st;
    nxt->x.assign(x, x + P);
    finalize_masked<P>(ws, mask, count, x, *nxt);
    nxt->iterations = iter + 1;
    nxt->converged = true;
    double delta = 0.0;
    for (std::size_t i = 0; i < P; ++i) {
      delta = std::max(delta, std::abs(nxt->x[i] - cur->x[i]));
    }
    std::swap(cur, nxt);
    if (delta < options.tolerance) {
      converged = true;
      break;
    }
  }
  cur->converged = converged;
  note_irls_outcome(*cur);
  if (cur != &out) std::swap(out, ws.irls_scratch);
  return SolveStatus::kOk;
}

}  // namespace

SolveStatus solve_irls_masked(SolverWorkspace& ws, const char* mask,
                              std::size_t count, const IrlsOptions& options,
                              LstsqResult& out) {
  LION_OBS_SPAN(obs::Stage::kIrls);
  switch (ws.cols()) {
    case 1:
      return irls_masked<1>(ws, mask, count, options, out);
    case 2:
      return irls_masked<2>(ws, mask, count, options, out);
    case 3:
      return irls_masked<3>(ws, mask, count, options, out);
    default:
      return irls_masked<4>(ws, mask, count, options, out);
  }
}

SolveStatus solve_irls(const Matrix& a, const std::vector<double>& b,
                       const IrlsOptions& options, SolverWorkspace& ws,
                       LstsqResult& out) {
  ws.load(a, b);
  return solve_irls_masked(ws, nullptr, ws.rows(), options, out);
}

}  // namespace lion::linalg
