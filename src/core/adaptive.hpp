// Adaptive parameter selection (Sec. IV-C1, evaluated in Sec. V-E).
//
// The scanning range and pairing interval materially change accuracy: too
// small a range gives near-parallel radical lines (plane-wave regime), too
// large a range drags in noisy off-beam samples; small intervals make the
// phase-difference term noise-dominated. The paper's cue is the *mean WLS
// residual*: with Gaussian reweighting it sits near zero exactly when the
// data is clean, so LION sweeps candidate (range, interval) pairs and
// averages the estimates whose mean residual is closest to zero.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/localizer.hpp"
#include "signal/profile.hpp"

namespace lion::core {

/// One evaluated parameter combination.
struct AdaptiveCandidate {
  double range = 0.0;      ///< scanning range [m]
  double interval = 0.0;   ///< pairing interval [m]
  LocalizationResult result;
  bool usable = false;     ///< false when this combination failed to solve
};

/// Adaptive sweep configuration.
struct AdaptiveConfig {
  /// Candidate scanning ranges [m] (paper sweeps 0.6-1.1 m).
  std::vector<double> ranges{0.6, 0.7, 0.8, 0.9, 1.0, 1.1};
  /// Candidate pairing intervals [m] (paper sweeps 0.1-0.35 m).
  std::vector<double> intervals{0.10, 0.15, 0.20, 0.25, 0.30, 0.35};
  /// Center of the scanning-range window along x [m].
  double range_center_x = 0.0;
  /// Fraction of candidates (by |mean residual|, ascending) averaged into
  /// the final estimate; at least one candidate is always kept.
  double keep_fraction = 0.25;
  /// Minimum equations a candidate must have to count. A barely-determined
  /// system fits its few equations exactly — near-zero residual, garbage
  /// estimate — and would otherwise win the residual contest.
  std::size_t min_equations = 12;
  /// Maximum tolerated condition estimate of a candidate's linear system;
  /// windows whose geometry barely constrains a direction (e.g. a slice so
  /// narrow that only cross-line pairs survive) are rejected.
  double max_condition = 1e5;
  /// Base localizer settings (dimension, method, hints). pair_interval is
  /// overridden per candidate.
  LocalizerConfig base{};
};

/// Outcome of an adaptive sweep.
struct AdaptiveResult {
  Vec3 position{};                  ///< average of the selected estimates
  double reference_distance = 0.0;  ///< average d_r of selected estimates
  std::vector<AdaptiveCandidate> selected;    ///< candidates averaged
  std::vector<AdaptiveCandidate> candidates;  ///< every evaluated combination
  double best_range = 0.0;     ///< range of the |mean-residual|-best candidate
  double best_interval = 0.0;  ///< interval of that candidate
};

/// Where an adaptive sweep may run cells besides the calling thread: the
/// core-side view of a thread pool (core does not depend on engine).
///
/// Contract for implementations: spawn() hands `task` to some thread,
/// which calls it at most once — right away, after the sweep has returned,
/// or never. The task receives that thread's solver scratch (nullptr for
/// none), which no other thread may use while the task runs. A late task
/// finds every cell claimed and returns without touching the sweep's
/// inputs or outputs, so the executor may outlive the sweep's caller.
class SweepExecutor {
 public:
  using Task = std::function<void(linalg::SolverWorkspace*)>;

  /// Helper tasks one sweep may spawn (0: the caller runs every cell).
  virtual std::size_t helpers() const = 0;

  /// Hand `task` to a helper thread. A throw stops further spawning; the
  /// caller then claims the remaining cells itself.
  virtual void spawn(Task task) = 0;

 protected:
  ~SweepExecutor() = default;  ///< never deleted through this interface
};

/// Run the adaptive sweep. Throws std::invalid_argument when no candidate
/// combination yields a solvable system.
///
/// Every (range, interval) cell is claimed from one shared cursor by the
/// caller and, when `executor` is set, by up to executor->helpers() helper
/// tasks. Each cell writes only its own candidate slot and the ranking
/// runs in cell order afterwards, so the result is bit-identical with or
/// without an executor. The caller waits only for cells a helper has
/// already claimed, never for a helper to start. Cells run on the caller
/// use `config.base.workspace`; cells run on a helper use the scratch
/// spawn() passes them.
AdaptiveResult locate_adaptive(const signal::PhaseProfile& profile,
                               const AdaptiveConfig& config,
                               SweepExecutor* executor = nullptr);

/// The order locate_adaptive claims its cells in (cell k = range k /
/// |intervals|, interval k % |intervals|), given each range window's
/// sample count: largest window first, then smallest interval first (more
/// ladder rungs, more rows), then cell order. A
/// cell's cost grows with its rows, so the costliest cells start first
/// and the cheap ones fill in at the tail of a fanned-out sweep. Only the
/// claim order changes: candidates stay in cell order.
std::vector<std::size_t> adaptive_claim_order(
    const AdaptiveConfig& config,
    const std::vector<std::size_t>& window_sizes);

}  // namespace lion::core
