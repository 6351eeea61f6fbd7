#include "core/localizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "linalg/decompositions.hpp"
#include "signal/profile.hpp"
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

namespace {

void check_profile_size(const signal::PhaseProfile& profile) {
  if (profile.size() < 3) {
    throw std::invalid_argument(
        "LinearLocalizer: need at least three samples");
  }
}

void check_pairs(const std::vector<IndexPair>& pairs) {
  if (pairs.empty()) {
    throw std::invalid_argument(
        "LinearLocalizer: no usable sample pairs (scan too short for the "
        "configured interval?)");
  }
}

}  // namespace

TrajectoryFrame LinearLocalizer::frame_of(
    const signal::PhaseProfile& profile) const {
  TrajectoryFrame frame = analyze_frame(profile, config_.target_dim);
  if (frame.rank + 1 < config_.target_dim) {
    throw std::invalid_argument(
        "LinearLocalizer: scan dimension is more than one short of the "
        "target dimension (a single line cannot produce a 3D fix)");
  }
  return frame;
}

ProfilePrep LinearLocalizer::prepare(
    const signal::PhaseProfile& profile) const {
  check_profile_size(profile);
  ProfilePrep prep;
  prep.frame = frame_of(profile);
  prep.arcs = signal::arc_lengths(profile);
  prep.terms = profile_terms(
      profile, prep.frame,
      config_.reference_index.value_or(profile.size() / 2),
      config_.wavelength);
  return prep;
}

LocalizationResult LinearLocalizer::locate(const signal::PhaseProfile& profile,
                                           const ProfilePrep& prep) const {
  const auto pairs =
      ladder_pairs_from_arcs(prep.arcs, config_.pair_interval,
                             config_.pair_tolerance, config_.pair_stride);
  check_pairs(pairs);
  return solve_pairs(profile, prep.frame, prep.terms, pairs);
}

LocalizationResult LinearLocalizer::locate_with_pairs(
    const signal::PhaseProfile& profile,
    const std::vector<IndexPair>& pairs) const {
  check_profile_size(profile);
  check_pairs(pairs);
  const TrajectoryFrame frame = frame_of(profile);
  return solve_pairs(
      profile, frame,
      profile_terms(profile, frame,
                    config_.reference_index.value_or(profile.size() / 2),
                    config_.wavelength),
      pairs);
}

LocalizationResult LinearLocalizer::solve_pairs(
    const signal::PhaseProfile& profile, const TrajectoryFrame& frame,
    const ProfileTerms& terms, const std::vector<IndexPair>& pairs) const {
  if (config_.method != SolveMethod::kLeastSquares &&
      config_.method != SolveMethod::kWeightedLeastSquares) {
    if (config_.workspace != nullptr) {
      return solve_robust(profile, frame, terms, pairs, *config_.workspace);
    }
    linalg::SolverWorkspace ws;
    return solve_robust(profile, frame, terms, pairs, ws);
  }
  const LinearSystem sys = build_system(terms, frame.rank, pairs);

  LION_OBS_SPAN(obs::Stage::kSolve);
  linalg::LstsqResult sol = linalg::solve_least_squares(sys.a, sys.k);
  if (config_.method == SolveMethod::kWeightedLeastSquares) {
    // One reweight pass: LS residuals -> Gaussian weights -> WLS (Eq. 14-16).
    const auto w = linalg::gaussian_residual_weights(sol.residuals);
    sol = linalg::solve_weighted_least_squares(sys.a, sys.k, w);
    sol.iterations = 1;
  }
  return assemble_result(profile, frame, terms.reference_index, pairs.size(),
                         sol, 1.0,
                         linalg::HouseholderQR(sys.a).condition_estimate(),
                         sys.a.gram());
}

LocalizationResult LinearLocalizer::solve_robust(
    const signal::PhaseProfile& profile, const TrajectoryFrame& frame,
    const ProfileTerms& terms, const std::vector<IndexPair>& pairs,
    linalg::SolverWorkspace& ws) const {
  build_system_into(terms, frame.rank, pairs, ws);

  linalg::LstsqResult sol;
  double inlier_fraction = 1.0;
  LION_OBS_SPAN(obs::Stage::kSolve);
  linalg::SolveStatus st;
  if (config_.method == SolveMethod::kRansac) {
    RansacResult rr;
    st = ransac_solve_loaded(config_.ransac, ws, rr);
    sol = std::move(rr.solution);
    inlier_fraction = rr.inlier_fraction;
  } else {
    st = linalg::solve_irls_masked(ws, nullptr, ws.rows(), irls_options(),
                                   sol);
  }
  if (st != linalg::SolveStatus::kOk) {
    throw std::domain_error(std::string("LinearLocalizer: ") +
                            solve_method_name(config_.method) +
                            " solve failed: " +
                            linalg::solve_status_name(st));
  }
  // The gram for the GDOP is summed first: after it the solve is done
  // with the rows (at least as many as columns, or it would have failed),
  // so QR factors them in place for the condition estimate (the
  // arithmetic of HouseholderQR on a copy of them).
  const linalg::Matrix gram = ws.gram_matrix();
  double beta[linalg::kSmallMaxCols];
  linalg::householder_factor(ws.mutable_rows(), ws.rows(), ws.cols(), beta);
  const double condition =
      linalg::r_condition_estimate(ws.mutable_rows(), ws.cols());
  return assemble_result(profile, frame, terms.reference_index, pairs.size(),
                         sol, inlier_fraction, condition, gram);
}

linalg::IrlsOptions LinearLocalizer::irls_options() const {
  linalg::IrlsOptions irls = config_.irls;
  if (config_.method == SolveMethod::kHuberIrls) {
    irls.loss = linalg::RobustLoss::kHuber;
  } else if (config_.method == SolveMethod::kTukeyIrls) {
    irls.loss = linalg::RobustLoss::kTukey;
  }
  return irls;
}

LocalizationResult LinearLocalizer::assemble_result(
    const signal::PhaseProfile& profile, const TrajectoryFrame& frame,
    std::size_t reference_index, std::size_t equations,
    const linalg::LstsqResult& sol, double inlier_fraction, double condition,
    const linalg::Matrix& gram) const {
  const std::size_t cols = gram.cols();
  LocalizationResult out;
  out.inlier_fraction = inlier_fraction;
  out.equations = equations;
  out.trajectory_rank = frame.rank;
  out.condition = condition;

  out.solver_iterations = sol.iterations;
  out.mean_residual = sol.mean_residual;
  out.rms_residual = sol.rms_residual;

  // GDOP: unknown covariance ~ sigma_r^2 (A^T A)^{-1} with sigma_r^2 the
  // dof-corrected residual variance of the final solve. Degenerate or
  // barely-determined systems keep sigma empty.
  // (With kRansac the residual vector covers the consensus rows only.)
  if (sol.residuals.size() > cols) {
    try {
      const linalg::Matrix cov = linalg::inverse(gram);
      const double dof = static_cast<double>(sol.residuals.size()) -
                         static_cast<double>(cols);
      double ss = 0.0;
      for (double r : sol.residuals) ss += r * r;
      const double sigma2 = ss / dof;
      out.sigma.resize(cols);
      for (std::size_t i = 0; i < cols; ++i) {
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
    const auto q_ref = frame.to_local(profile[reference_index].position);
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
