// Phase calibration (Sec. IV-C): the paper's end goal.
//
// Phase-center calibration pinpoints the antenna's electrical phase center
// by localizing it with a tag scan; the displacement from the ruler-measured
// physical center is then applied to all downstream geometry. Phase-offset
// calibration (Eq. 17) extracts the constant hardware rotation
// theta_T + theta_R so multi-antenna phase-difference methods can cancel it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "core/localizer.hpp"
#include "signal/profile.hpp"
#include "signal/sanitize.hpp"
#include "signal/stitch.hpp"
#include "sim/reader.hpp"

namespace lion::core {

/// Result of phase-center calibration for one antenna.
struct CenterCalibration {
  Vec3 estimated_center{};  ///< localized electrical phase center
  Vec3 displacement{};      ///< estimated_center - believed physical center
  AdaptiveResult details;   ///< full adaptive-sweep record
};

/// Calibrate the phase center: localize the antenna in 3D from a
/// preprocessed scan profile (typically the Fig. 11 three-line rig) using
/// the adaptive sweep, and report the displacement from the believed
/// physical center.
CenterCalibration calibrate_phase_center(const signal::PhaseProfile& profile,
                                         const Vec3& physical_center,
                                         AdaptiveConfig config);

/// Phase-offset calibration (Eq. 17): the circular mean over samples of
/// (measured wrapped phase - distance-predicted phase), using the
/// *calibrated* phase center for distances. Samples carry raw wrapped
/// phases, not unwrapped ones. Returns a value in [0, 2*pi). Throws
/// std::invalid_argument on empty input.
double calibrate_phase_offset(const std::vector<sim::PhaseSample>& samples,
                              const Vec3& phase_center,
                              double wavelength = rf::kDefaultWavelength);

/// Complete calibration record for one antenna.
struct AntennaCalibration {
  std::size_t antenna_index = 0;
  CenterCalibration center;
  double phase_offset = 0.0;  ///< theta_T + theta_R estimate [rad]
};

/// Offsets are only meaningful relatively (the tag's theta_T is shared and
/// cannot be split out, Sec. IV-C2): difference of two calibrations'
/// offsets, wrapped to [0, 2*pi).
double relative_offset(const AntennaCalibration& a,
                       const AntennaCalibration& b);

/// Correct a wrapped phase measurement with a calibrated offset: returns
/// the distance-only phase wrapped to [0, 2*pi).
double remove_offset(double measured_phase, double phase_offset);

// ---------------------------------------------------------------------------
// Robust calibration path: raw stream in, structured report out — no throws.
// ---------------------------------------------------------------------------

/// Outcome classification of a robust calibration run.
enum class CalibrationStatus {
  kOk,                  ///< full 3D calibration succeeded
  kDegraded2D,          ///< 3D geometry degenerate; planar fallback used
  kNoSamples,           ///< empty stream, or nothing survived sanitization
  kDegenerateGeometry,  ///< scan spans too few directions even for 2D
  kSolverFailure,       ///< no parameter combination produced a solution
};

/// Short name for CLI / bench output.
const char* calibration_status_name(CalibrationStatus status);

/// Everything a deployment dashboard needs to decide whether to trust (or
/// re-run) a calibration.
struct CalibrationDiagnostics {
  signal::SanitizeReport sanitize;  ///< what input scrubbing repaired
  std::size_t profile_points = 0;   ///< points surviving preprocessing
  double condition = 0.0;        ///< best selected window's condition number
  double inlier_fraction = 1.0;  ///< smallest consensus fraction used
  double mean_residual = 0.0;    ///< best window's mean equation residual
  double rms_residual = 0.0;     ///< best window's RMS equation residual
  double position_sigma = 0.0;   ///< GDOP-style 1-sigma position bound [m]
  std::string message;           ///< human-readable detail on degradations
};

/// Structured result of the no-throw calibration entry point.
struct CalibrationReport {
  CalibrationStatus status = CalibrationStatus::kSolverFailure;
  CenterCalibration center;   ///< valid when ok()
  double phase_offset = 0.0;  ///< Eq. 17 offset [rad]; valid when ok()
  CalibrationDiagnostics diagnostics;

  /// True when the report carries a usable estimate (possibly degraded).
  bool ok() const {
    return status == CalibrationStatus::kOk ||
           status == CalibrationStatus::kDegraded2D;
  }
};

/// Adaptive-sweep defaults for the robust path: consensus solving instead
/// of the paper's plain Gaussian reweighting.
AdaptiveConfig robust_adaptive_defaults();

/// Preprocess defaults for the robust path: sanitization plus median-based
/// outlier rejection (off in the paper-faithful default config).
signal::PreprocessConfig robust_preprocess_defaults();

/// Configuration of the robust calibration path.
struct RobustCalibrationConfig {
  AdaptiveConfig adaptive = robust_adaptive_defaults();
  signal::PreprocessConfig preprocess = robust_preprocess_defaults();
  /// Final-answer degeneracy gate: when every accepted 3D window's system
  /// is worse-conditioned than this, the planar fallback is taken.
  double max_condition = 1e5;
  /// Permit the automatic 3D -> 2D fallback when the 3D solve is
  /// degenerate (single-line scans, near-collinear rigs).
  bool allow_2d_fallback = true;
};

/// Full calibration from a *raw* sample stream: sanitize, preprocess,
/// adaptive-localize with a consensus solver, fall back from 3D to 2D on
/// degenerate geometry, and compute the Eq.-17 phase offset. Never throws;
/// every failure mode maps to a CalibrationStatus with diagnostics.
///
/// `workspace` (optional, non-owning) is solver scratch threaded to every
/// RANSAC/IRLS solve of the run; passing a long-lived workspace makes the
/// steady-state solver core allocation-free across calls without changing
/// any result bit. It must not be shared across threads.
///
/// `executor` (optional, non-owning) lets each adaptive sweep fan its
/// cells out to helper threads (see locate_adaptive); the report is
/// byte-identical with or without it.
CalibrationReport calibrate_antenna_robust(
    const std::vector<sim::PhaseSample>& samples, const Vec3& physical_center,
    const RobustCalibrationConfig& config = {},
    linalg::SolverWorkspace* workspace = nullptr,
    SweepExecutor* executor = nullptr);

}  // namespace lion::core
