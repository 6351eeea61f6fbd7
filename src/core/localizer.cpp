#include "core/localizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/decompositions.hpp"
#include "obs/obs.hpp"

namespace lion::core {

const char* solve_method_name(SolveMethod m) {
  switch (m) {
    case SolveMethod::kLeastSquares:
      return "LS";
    case SolveMethod::kWeightedLeastSquares:
      return "WLS";
    case SolveMethod::kIterativeReweighted:
      return "IRLS";
    case SolveMethod::kHuberIrls:
      return "HUBER";
    case SolveMethod::kTukeyIrls:
      return "TUKEY";
    case SolveMethod::kRansac:
      return "RANSAC";
  }
  return "unknown";
}

LinearLocalizer::LinearLocalizer(LocalizerConfig config)
    : config_(std::move(config)) {
  if (config_.target_dim != 2 && config_.target_dim != 3) {
    throw std::invalid_argument("LinearLocalizer: target_dim must be 2 or 3");
  }
  if (config_.wavelength <= 0.0) {
    throw std::invalid_argument("LinearLocalizer: wavelength must be positive");
  }
  if (config_.pair_interval <= 0.0) {
    throw std::invalid_argument(
        "LinearLocalizer: pair_interval must be positive");
  }
}

LocalizationResult LinearLocalizer::locate(
    const signal::PhaseProfile& profile) const {
  const auto pairs =
      ladder_pairs(profile, config_.pair_interval, config_.pair_tolerance,
                   config_.pair_stride);
  return locate_with_pairs(profile, pairs);
}

LinearSystem LinearLocalizer::prepare_system(
    const signal::PhaseProfile& profile, const std::vector<IndexPair>& pairs,
    TrajectoryFrame& frame) const {
  if (profile.size() < 3) {
    throw std::invalid_argument(
        "LinearLocalizer: need at least three samples");
  }
  if (pairs.empty()) {
    throw std::invalid_argument(
        "LinearLocalizer: no usable sample pairs (scan too short for the "
        "configured interval?)");
  }

  frame = analyze_frame(profile, config_.target_dim);
  if (frame.rank + 1 < config_.target_dim) {
    throw std::invalid_argument(
        "LinearLocalizer: scan dimension is more than one short of the "
        "target dimension (a single line cannot produce a 3D fix)");
  }

  const std::size_t ref =
      config_.reference_index.value_or(profile.size() / 2);
  return build_system(profile, frame, pairs, ref, config_.wavelength);
}

LocalizationResult LinearLocalizer::locate_with_pairs(
    const signal::PhaseProfile& profile,
    const std::vector<IndexPair>& pairs) const {
  TrajectoryFrame frame;
  const LinearSystem sys = prepare_system(profile, pairs, frame);

  SolveOutcome oc;
  linalg::LstsqResult& sol = oc.solution;
  LION_OBS_SPAN(obs::Stage::kSolve);
  switch (config_.method) {
    case SolveMethod::kLeastSquares:
      sol = linalg::solve_least_squares(sys.a, sys.k);
      break;
    case SolveMethod::kWeightedLeastSquares: {
      // One reweight pass: LS residuals -> Gaussian weights -> WLS (Eq. 14-16).
      const auto first = linalg::solve_least_squares(sys.a, sys.k);
      const auto w = linalg::gaussian_residual_weights(first.residuals);
      sol = linalg::solve_weighted_least_squares(sys.a, sys.k, w);
      sol.iterations = 1;
      break;
    }
    case SolveMethod::kIterativeReweighted:
      sol = config_.workspace
                ? linalg::solve_irls(sys.a, sys.k, config_.irls,
                                     *config_.workspace)
                : linalg::solve_irls(sys.a, sys.k, config_.irls);
      oc.ws_holds_system = config_.workspace != nullptr;
      break;
    case SolveMethod::kHuberIrls:
    case SolveMethod::kTukeyIrls: {
      linalg::IrlsOptions irls = config_.irls;
      irls.loss = config_.method == SolveMethod::kHuberIrls
                      ? linalg::RobustLoss::kHuber
                      : linalg::RobustLoss::kTukey;
      sol = config_.workspace
                ? linalg::solve_irls(sys.a, sys.k, irls, *config_.workspace)
                : linalg::solve_irls(sys.a, sys.k, irls);
      oc.ws_holds_system = config_.workspace != nullptr;
      break;
    }
    case SolveMethod::kRansac: {
      auto rr =
          config_.workspace
              ? ransac_solve(sys.a, sys.k, config_.ransac, *config_.workspace)
              : ransac_solve(sys.a, sys.k, config_.ransac);
      sol = std::move(rr.solution);
      oc.inlier_fraction = rr.inlier_fraction;
      oc.ws_holds_system = config_.workspace != nullptr;
      break;
    }
  }
  return assemble_result(profile, frame, sys, pairs.size(), oc);
}

LocalizationResult LinearLocalizer::assemble_result(
    const signal::PhaseProfile& profile, const TrajectoryFrame& frame,
    const LinearSystem& sys, std::size_t equations,
    const SolveOutcome& oc) const {
  const linalg::LstsqResult& sol = oc.solution;
  const double inlier_fraction = oc.inlier_fraction;
  const bool ws_holds_system = oc.ws_holds_system;

  LocalizationResult out;
  out.inlier_fraction = inlier_fraction;
  out.equations = equations;
  out.trajectory_rank = frame.rank;
  out.condition = sys.a.rows() >= sys.a.cols()
                      ? linalg::HouseholderQR(sys.a).condition_estimate()
                      : std::numeric_limits<double>::infinity();

  out.solver_iterations = sol.iterations;
  out.mean_residual = sol.mean_residual;
  out.rms_residual = sol.rms_residual;

  // GDOP: unknown covariance ~ sigma_r^2 (A^T A)^{-1} with sigma_r^2 the
  // dof-corrected residual variance of the final solve. Degenerate or
  // barely-determined systems keep sigma empty.
  // (With kRansac the residual vector covers the consensus rows only.)
  if (sol.residuals.size() > sys.a.cols()) {
    try {
      // After a workspace-routed solve the workspace still caches this
      // exact system, so its product-cache gram (bit-exact with
      // sys.a.gram()) spares a second pass over the full matrix. The
      // dimension check guards the p > kSmallMaxCols case, where the
      // solver falls back to the legacy path without loading.
      const bool ws_gram = ws_holds_system && config_.workspace->loaded() &&
                           config_.workspace->rows() == sys.a.rows() &&
                           config_.workspace->cols() == sys.a.cols();
      const linalg::Matrix cov = linalg::inverse(
          ws_gram ? config_.workspace->gram_matrix() : sys.a.gram());
      const double dof = static_cast<double>(sol.residuals.size()) -
                         static_cast<double>(sys.a.cols());
      double ss = 0.0;
      for (double r : sol.residuals) ss += r * r;
      const double sigma2 = ss / dof;
      out.sigma.resize(sys.a.cols());
      for (std::size_t i = 0; i < sys.a.cols(); ++i) {
        out.sigma[i] = std::sqrt(std::max(0.0, sigma2 * cov(i, i)));
      }
      for (std::size_t i = 0; i + 1 < out.sigma.size(); ++i) {
        out.position_sigma = std::max(out.position_sigma, out.sigma[i]);
      }
    } catch (const std::domain_error&) {
      // Singular normal equations: leave sigma empty.
    }
  }

  const std::size_t rank = frame.rank;
  std::vector<double> local(sol.x.begin(),
                            sol.x.begin() + static_cast<std::ptrdiff_t>(rank));
  const double d_r = sol.x[rank];
  out.reference_distance = std::abs(d_r);

  if (frame.rank == config_.target_dim) {
    out.position = frame.from_local(local);
  } else {
    // Lower-dimension recovery (Observation 2): the perpendicular offset
    // follows from d_r and the in-frame distance to the reference point.
    const auto q_ref = frame.to_local(profile[sys.reference_index].position);
    double in_frame2 = 0.0;
    for (std::size_t c = 0; c < rank; ++c) {
      const double diff = local[c] - q_ref[c];
      in_frame2 += diff * diff;
    }
    const double perp2 = d_r * d_r - in_frame2;
    const double perp = perp2 > 0.0 ? std::sqrt(perp2) : 0.0;

    const Vec3 plus = frame.from_local(local, perp);
    const Vec3 minus = frame.from_local(local, -perp);
    if (config_.side_hint) {
      out.position = linalg::squared_distance(plus, *config_.side_hint) <=
                             linalg::squared_distance(minus, *config_.side_hint)
                         ? plus
                         : minus;
    } else {
      out.position = plus;
    }
    out.perpendicular_recovered = true;
  }
  return out;
}

}  // namespace lion::core
