#include "core/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/frame.hpp"
#include "obs/obs.hpp"
#include "rf/phase_model.hpp"

namespace lion::core {

CenterCalibration calibrate_phase_center(const signal::PhaseProfile& profile,
                                         const Vec3& physical_center,
                                         AdaptiveConfig config) {
  config.base.target_dim = 3;
  // The experimenter's own measurement is the natural side hint: the true
  // phase center is centimetres away, never on the other side of the rig.
  if (!config.base.side_hint) config.base.side_hint = physical_center;

  CenterCalibration out;
  out.details = locate_adaptive(profile, config);
  out.estimated_center = out.details.position;
  out.displacement = out.estimated_center - physical_center;
  return out;
}

double calibrate_phase_offset(const std::vector<sim::PhaseSample>& samples,
                              const Vec3& phase_center, double wavelength) {
  if (samples.empty()) {
    throw std::invalid_argument("calibrate_phase_offset: no samples");
  }
  LION_OBS_SPAN(obs::Stage::kOffset);
  std::vector<double> diffs;
  diffs.reserve(samples.size());
  for (const auto& s : samples) {
    const double d = linalg::distance(phase_center, s.position);
    const double predicted = rf::distance_phase(d, wavelength);
    diffs.push_back(rf::wrap_phase(s.phase - predicted));
  }
  return rf::circular_mean(diffs);
}

double relative_offset(const AntennaCalibration& a,
                       const AntennaCalibration& b) {
  return rf::wrap_phase(a.phase_offset - b.phase_offset);
}

double remove_offset(double measured_phase, double phase_offset) {
  return rf::wrap_phase(measured_phase - phase_offset);
}

const char* calibration_status_name(CalibrationStatus status) {
  switch (status) {
    case CalibrationStatus::kOk:
      return "ok";
    case CalibrationStatus::kDegraded2D:
      return "degraded_2d";
    case CalibrationStatus::kNoSamples:
      return "no_samples";
    case CalibrationStatus::kDegenerateGeometry:
      return "degenerate_geometry";
    case CalibrationStatus::kSolverFailure:
      return "solver_failure";
  }
  return "unknown";
}

AdaptiveConfig robust_adaptive_defaults() {
  AdaptiveConfig cfg;
  cfg.base.method = SolveMethod::kRansac;
  return cfg;
}

signal::PreprocessConfig robust_preprocess_defaults() {
  signal::PreprocessConfig cfg;
  cfg.outlier_threshold = 1.0;  // median-window impulse rejection on
  return cfg;
}

namespace {

// Diagnostics of the windows an adaptive sweep actually averaged: the
// best conditioning achieved, the weakest consensus accepted, and the
// best window's residual statistics.
void fill_sweep_diagnostics(const AdaptiveResult& fix,
                            CalibrationDiagnostics& diag) {
  double best_condition = std::numeric_limits<double>::infinity();
  double min_inliers = 1.0;
  for (const auto& cand : fix.selected) {
    best_condition = std::min(best_condition, cand.result.condition);
    min_inliers = std::min(min_inliers, cand.result.inlier_fraction);
  }
  diag.condition = best_condition;
  diag.inlier_fraction = min_inliers;
  if (!fix.selected.empty()) {
    const auto& best = fix.selected.front().result;
    diag.mean_residual = best.mean_residual;
    diag.rms_residual = best.rms_residual;
    diag.position_sigma = best.position_sigma;
  }
}

void append_message(CalibrationDiagnostics& diag, const std::string& text) {
  if (!diag.message.empty()) diag.message += "; ";
  diag.message += text;
}

}  // namespace

CalibrationReport calibrate_antenna_robust(
    const std::vector<sim::PhaseSample>& samples, const Vec3& physical_center,
    const RobustCalibrationConfig& config, linalg::SolverWorkspace* workspace,
    SweepExecutor* executor) {
  LION_OBS_SPAN(obs::Stage::kCalibrate);
  CalibrationReport report;
  try {
    const auto profile = signal::preprocess(samples, config.preprocess,
                                            report.diagnostics.sanitize);
    report.diagnostics.profile_points = profile.size();
    if (profile.size() < 3) {
      report.status = CalibrationStatus::kNoSamples;
      append_message(report.diagnostics,
                     samples.empty() ? "empty sample stream"
                                     : "fewer than 3 samples survived "
                                       "sanitization/preprocessing");
      return report;
    }

    AdaptiveConfig cfg3 = config.adaptive;
    cfg3.base.target_dim = 3;
    if (!cfg3.base.side_hint) cfg3.base.side_hint = physical_center;
    if (workspace) cfg3.base.workspace = workspace;

    std::size_t scan_rank = 0;
    try {
      const auto frame = analyze_frame(profile, 3);
      scan_rank = frame.rank;
      // spd_rank is relative to the largest eigenvalue, so a stationary
      // scan (covariance ~ rounding noise) can still claim rank > 0; gate
      // on the absolute spatial spread as well.
      if (!frame.spread.empty() && frame.spread.front() < 1e-6) scan_rank = 0;
    } catch (const std::exception& e) {
      report.status = CalibrationStatus::kDegenerateGeometry;
      append_message(report.diagnostics, e.what());
      return report;
    }
    if (scan_rank == 0) {
      report.status = CalibrationStatus::kDegenerateGeometry;
      append_message(report.diagnostics,
                     "scan positions do not span any direction");
      return report;
    }

    std::optional<AdaptiveResult> fix;
    bool degraded = false;
    if (scan_rank + 1 >= 3) {
      try {
        AdaptiveResult r = locate_adaptive(profile, cfg3, executor);
        CalibrationDiagnostics diag3;
        fill_sweep_diagnostics(r, diag3);
        if (diag3.condition <= config.max_condition) {
          fix = std::move(r);
        } else {
          append_message(report.diagnostics,
                         "3D solve rejected: condition " +
                             std::to_string(diag3.condition) + " above gate");
        }
      } catch (const std::exception& e) {
        append_message(report.diagnostics,
                       std::string("3D solve failed: ") + e.what());
      }
    } else {
      append_message(report.diagnostics,
                     "scan rank too low for a 3D fix (single line)");
    }

    if (!fix && config.allow_2d_fallback) {
      AdaptiveConfig cfg2 = cfg3;
      cfg2.base.target_dim = 2;
      try {
        fix = locate_adaptive(profile, cfg2, executor);
        degraded = true;
        append_message(report.diagnostics,
                       "planar fallback used; z pinned to the believed "
                       "physical center");
      } catch (const std::exception& e) {
        append_message(report.diagnostics,
                       std::string("2D fallback failed: ") + e.what());
      }
    }

    if (!fix) {
      report.status = CalibrationStatus::kSolverFailure;
      return report;
    }

    fill_sweep_diagnostics(*fix, report.diagnostics);
    report.center.details = std::move(*fix);
    report.center.estimated_center = report.center.details.position;
    if (degraded) {
      // The planar solve lives in the scan plane; the depth axis is
      // resolved but the height is not — pin it to the prior.
      report.center.estimated_center[2] = physical_center[2];
    }
    report.center.displacement =
        report.center.estimated_center - physical_center;

    // Eq. 17 offset against the calibrated center, over the scrubbed raw
    // stream (offsets need wrapped phases, not the unwrapped profile).
    const auto clean = signal::sanitize_samples(samples);
    if (!clean.empty()) {
      report.phase_offset = calibrate_phase_offset(
          clean, report.center.estimated_center,
          config.adaptive.base.wavelength);
    } else {
      append_message(report.diagnostics,
                     "phase offset skipped: no finite raw samples");
    }

    report.status = degraded ? CalibrationStatus::kDegraded2D
                             : CalibrationStatus::kOk;
  } catch (const std::exception& e) {
    report.status = CalibrationStatus::kSolverFailure;
    append_message(report.diagnostics,
                   std::string("unexpected solver error: ") + e.what());
  }
  return report;
}

}  // namespace lion::core
