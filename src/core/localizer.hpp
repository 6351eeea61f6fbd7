// The LION linear localizer (Sec. III + IV-B).
//
// Given a preprocessed phase profile along a *known* trajectory, estimate
// the position of the (static) signal source — in the paper's primary use,
// the antenna's electrical phase center — by solving the radical-line /
// intersection-circle linear system with (weighted) least squares, then
// recovering any trajectory-orthogonal coordinate from the reference
// distance d_r (Observation 2).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/frame.hpp"
#include "core/pairing.hpp"
#include "core/radical.hpp"
#include "core/ransac.hpp"
#include "linalg/lstsq.hpp"
#include "rf/constants.hpp"
#include "signal/profile.hpp"

namespace lion::core {

/// How the linear system is solved (the paper's LS / WLS knob, Sec. V-D,
/// plus the robust variants for contaminated field streams).
enum class SolveMethod {
  kLeastSquares,          ///< plain normal-equation LS (Eq. 13)
  kWeightedLeastSquares,  ///< one Gaussian-residual reweight pass (Eq. 14-16)
  kIterativeReweighted,   ///< reweight until the estimate stabilizes
  kHuberIrls,             ///< IRLS with Huber weights (MAD-scaled)
  kTukeyIrls,             ///< IRLS with Tukey biweight (hard rejection)
  kRansac,                ///< LMedS consensus sampling + Huber refit
};

const char* solve_method_name(SolveMethod m);

/// Localizer configuration.
struct LocalizerConfig {
  /// Spatial dimension of the answer: 2 (planar) or 3.
  std::size_t target_dim = 2;

  /// Carrier wavelength [m].
  double wavelength = rf::kDefaultWavelength;

  SolveMethod method = SolveMethod::kWeightedLeastSquares;

  /// Arc distance between paired samples (the scanning interval x_o).
  double pair_interval = 0.2;

  /// Tolerance on the pair interval (stream gaps).
  double pair_tolerance = 0.02;

  /// Subsampling stride over anchor samples when forming pairs.
  std::size_t pair_stride = 1;

  /// Reference sample for d_r; defaults to the middle of the profile.
  std::optional<std::size_t> reference_index;

  /// A point on the same side of the scan as the true target, used to pick
  /// the sign when a perpendicular coordinate is recovered from d_r
  /// ("filter the error one based on the actual deployment", Sec. III-C).
  std::optional<Vec3> side_hint;

  /// Convergence control for the IRLS-family methods. `irls.loss` is
  /// implied by the method for kHuberIrls / kTukeyIrls.
  linalg::IrlsOptions irls{};

  /// Consensus-sampling control for kRansac.
  RansacOptions ransac{};

  /// Optional non-owning solver scratch for the RANSAC / IRLS-family
  /// methods, which always solve in a workspace: this one when set, else
  /// one local to the call (results are bit-identical either way; a warm
  /// one saves the allocations). It must outlive the localizer and must
  /// not be shared across threads; the batch engine wires one per pool
  /// worker.
  linalg::SolverWorkspace* workspace = nullptr;
};

/// Localization outcome.
struct LocalizationResult {
  Vec3 position{};                 ///< estimated target position
  double reference_distance = 0.0; ///< estimated d_r [m]
  double mean_residual = 0.0;      ///< mean equation residual (adaptive cue)
  double rms_residual = 0.0;       ///< RMS equation residual
  std::size_t equations = 0;       ///< rows in the linear system
  std::size_t trajectory_rank = 0; ///< affine rank of the scan
  bool perpendicular_recovered = false;  ///< lower-dimension path taken
  std::size_t solver_iterations = 0;     ///< reweighting rounds run
  /// Fraction of equations in the consensus set (1.0 for the non-RANSAC
  /// methods, which use every row).
  double inlier_fraction = 1.0;
  /// Condition estimate of the linear system (max/min |R_ii| of its QR).
  /// Large values mean the scan geometry barely constrains some direction
  /// and the estimate should not be trusted.
  double condition = 1.0;

  /// One-sigma uncertainty of each solved unknown [frame coords..., d_r],
  /// from the residual-scaled normal-equation covariance
  /// sigma^2 (A^T A)^{-1} — the GDOP of this scan geometry. Lets callers
  /// report error bars and reject weakly-constrained axes. Same length as
  /// trajectory_rank + 1.
  std::vector<double> sigma;

  /// Scalar summary: the largest entry of `sigma` over the position
  /// coordinates (excludes d_r). Zero for a noise-free exact fit.
  double position_sigma = 0.0;
};

/// What LinearLocalizer::locate computes from a profile whatever the pair
/// interval: the frame, the arc lengths and the radical-line point terms.
/// A caller localizing one profile at several intervals (the adaptive
/// sweep's interval cells) prepares it once.
struct ProfilePrep {
  TrajectoryFrame frame;
  std::vector<double> arcs;  ///< signal::arc_lengths of the profile
  ProfileTerms terms;
};

/// The LION localizer.
class LinearLocalizer {
 public:
  explicit LinearLocalizer(LocalizerConfig config);

  /// Localize from a profile, generating ladder pairs per the config (arc
  /// offsets pair_interval, 2x, 4x, ... so that multi-segment scans keep
  /// nonzero coefficients on every coordinate).
  ///
  /// Throws std::invalid_argument when the profile is too small, produces
  /// no pairs, or the scan's rank is more than one short of target_dim
  /// (e.g. a single straight line cannot give a 3D fix, Sec. III-C2), and
  /// std::domain_error when the system cannot be solved (for the robust
  /// methods the message names the linalg::SolveStatus).
  LocalizationResult locate(const signal::PhaseProfile& profile) const;

  /// The interval-independent part of locate(): validation, frame, arc
  /// lengths and point terms. Throws std::invalid_argument where locate()
  /// would for a profile too small or too low-rank for target_dim.
  ProfilePrep prepare(const signal::PhaseProfile& profile) const;

  /// locate() over a profile prepare()d by a localizer of the same
  /// target_dim, wavelength and reference: the same result, bit for bit,
  /// and the same throw when no pairs fit the interval.
  LocalizationResult locate(const signal::PhaseProfile& profile,
                            const ProfilePrep& prep) const;

  /// Localize with an explicit pair set (e.g. three_line_pairs).
  LocalizationResult locate_with_pairs(
      const signal::PhaseProfile& profile,
      const std::vector<IndexPair>& pairs) const;

  const LocalizerConfig& config() const { return config_; }

 private:
  /// analyze_frame, rejecting a rank more than one short of target_dim.
  TrajectoryFrame frame_of(const signal::PhaseProfile& profile) const;

  /// Build and solve the system of `pairs` and assemble the result. LS
  /// and WLS solve a Matrix system; the robust methods go to solve_robust.
  LocalizationResult solve_pairs(const signal::PhaseProfile& profile,
                                 const TrajectoryFrame& frame,
                                 const ProfileTerms& terms,
                                 const std::vector<IndexPair>& pairs) const;
  /// The robust methods: the system is built straight into `ws`, solved
  /// there, and its rows then factored in place for the condition
  /// estimate. Throws std::domain_error naming the linalg::SolveStatus
  /// when the solve fails.
  LocalizationResult solve_robust(const signal::PhaseProfile& profile,
                                  const TrajectoryFrame& frame,
                                  const ProfileTerms& terms,
                                  const std::vector<IndexPair>& pairs,
                                  linalg::SolverWorkspace& ws) const;

  /// config().irls with the loss the method implies.
  linalg::IrlsOptions irls_options() const;

  /// The post-solve tail of locate_with_pairs: GDOP covariance (from the
  /// system's gram A^T A) and the perpendicular-coordinate recovery.
  LocalizationResult assemble_result(const signal::PhaseProfile& profile,
                                     const TrajectoryFrame& frame,
                                     std::size_t reference_index,
                                     std::size_t equations,
                                     const linalg::LstsqResult& sol,
                                     double inlier_fraction, double condition,
                                     const linalg::Matrix& gram) const;

  LocalizerConfig config_;
};

}  // namespace lion::core
