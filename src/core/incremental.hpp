// Incremental per-session track solver: O(new rows) pose updates.
//
// The serve path's track mode re-runs the full window pipeline
// (preprocess -> PCA frame -> pairing -> build_system -> WLS) on every
// completed window — O(window) work per fix, which caps per-read tracking
// at toy rates. This module maintains the radical-line normal equations
// *incrementally* so a fresh pose estimate (`tick()`) costs O(1) after
// O(1) amortized work per appended sample:
//
//   - Fixed-frame row construction. The conveyor geometry makes the
//     virtual scan collinear: the equivalent moving-antenna profile is
//     P(t) = A - v (t - t_base) d  (A = antenna phase center, d = unit
//     belt direction). With the 1-D local coordinate q(t) = -v (t - t_base)
//     and the *first* sample of the current epoch as the reference datum
//     (q_ref = 0, theta_ref cached by value), a row depends only on its
//     two samples' timestamps and unwrapped phases — never on the window
//     boundaries. Window slides therefore retire rows unchanged instead
//     of rewriting them.
//   - Rank-1 update / downdate of the normal equations
//     (linalg::IncrementalNormals): appends add row products, retired
//     rows leave by subtracting the identical products. The residual RMS
//     of the current estimate is available in O(1) from the maintained
//     quadratic form.
//   - Sliding-window re-accumulation (`rebuild`) when downdating turns
//     ill-conditioned (cancellation ratio), when the datum sample ages
//     out far enough, or periodically — re-unwraps, re-pairs, and
//     re-accumulates from the surviving samples, and refreshes the
//     consensus inlier set with a RANSAC warm-started from the previous
//     mask (core::ransac_solve_loaded over rows written straight into the
//     solver workspace).
//   - A residual gate: `tick()` reports fallback=true (instead of a pose)
//     when the incremental estimate's RMS drifts beyond a factor of the
//     rebuild-time baseline, when too few rows survive, or when the
//     normal equations lose positive definiteness. The caller (the serve
//     layer) then runs the full-pipeline window solve — byte-identical to
//     the batch path — so the fast path can never emit garbage silently.
//
// Determinism: every mutation (push / retire / clear) is a pure function
// of the sample stream — rebuild triggers count samples and measure
// accumulated numerics, never wall time — and `tick()` is const. Journal
// replay of the same sample stream therefore reconstructs the exact
// solver state, which is what makes the crash-recovery byte-identity
// suite extendable to the `!tick` stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/ransac.hpp"
#include "linalg/small.hpp"
#include "linalg/vec.hpp"
#include "sim/reader.hpp"

namespace lion::core {

using linalg::Vec3;

/// Knobs of the incremental track solver. The geometry block mirrors
/// TrackerConfig/LocalizerConfig; the gate block is new.
struct IncrementalTrackConfig {
  Vec3 antenna_phase_center{};
  Vec3 belt_direction{1.0, 0.0, 0.0};  ///< normalized by the constructor
  double belt_speed = 0.1;             ///< [m/s], > 0
  double wavelength = 0.0;             ///< carrier wavelength [m], > 0
  double pair_interval = 0.2;          ///< arc distance between paired samples
  double pair_tolerance = 0.02;
  std::optional<Vec3> side_hint;       ///< sign of the recovered perpendicular

  /// Consensus refresh at rebuild time; rows below this count solve with
  /// plain LS over all rows instead (RANSAC needs headroom to sample).
  RansacOptions ransac{};
  std::size_t ransac_min_rows = 24;

  // --- residual gate / rebuild policy ------------------------------------
  /// tick() recommends fallback when rms > gate_rms_factor *
  /// max(baseline_rms, gate_rms_floor). Row residuals are in m^2 (the
  /// radical-line k units), so the floor is small.
  double gate_rms_factor = 6.0;
  double gate_rms_floor = 1e-4;
  /// Minimum live consensus rows for an incremental pose.
  std::size_t min_rows = 8;
  /// Re-accumulate when IncrementalNormals::cancellation() exceeds this.
  double rebuild_cancellation = 1e6;
  /// Cap on the consensus refresh cadence. The effective cadence doubles —
  /// a rebuild fires after as many appends as there were rows at the last
  /// rebuild — so this cap only bites once the window holds this many rows.
  std::size_t rebuild_every_appends = 4096;
  std::size_t rebuild_every_retires = 4096;
};

/// One incremental pose estimate.
struct TickResult {
  bool valid = false;      ///< a pose was produced
  bool fallback = false;   ///< gate tripped: run the full window solve
  double t = 0.0;          ///< timestamp of the newest sample [s]
  Vec3 start{};            ///< tag position at the oldest live sample's t
  Vec3 position{};         ///< tag position at t
  double sigma = 0.0;      ///< 1-sigma along-belt uncertainty [m]
  double rms = 0.0;        ///< residual RMS of the estimate [m^2]
  std::size_t rows = 0;    ///< live consensus rows behind the estimate
};

/// Sliding-window incremental solver for one track-mode stream.
class IncrementalTrackSolver {
 public:
  /// Throws std::invalid_argument for a zero belt direction, non-positive
  /// speed/wavelength/interval.
  explicit IncrementalTrackSolver(IncrementalTrackConfig config);

  /// Feed one sample (chronological order). O(1) amortized: appends rows
  /// completed by this sample; occasionally triggers a rebuild.
  void push(const sim::PhaseSample& sample);

  /// Retire the `count` oldest samples (a window slide). Their rows leave
  /// the normal equations via downdate; may trigger a rebuild.
  void retire(std::size_t count);

  /// Drop all state (a track flush drains the window).
  void clear();

  /// Current pose estimate from the maintained normal equations. Const —
  /// ticking never mutates solver state, so replaying the sample stream
  /// alone reconstructs every tick'able state.
  TickResult tick() const;

  // --- conformance hooks (differential / metamorphic suites) -------------
  std::size_t sample_count() const { return samples_.size(); }
  std::size_t row_count() const { return rows_.size(); }
  std::size_t included_rows() const { return normals_.rows(); }
  std::uint64_t rebuilds() const { return rebuilds_; }
  const linalg::IncrementalNormals& normals() const { return normals_; }
  /// Fresh accumulation over the currently included rows — what the
  /// incrementally maintained normals must match to 1e-12.
  linalg::IncrementalNormals batch_normals() const;
  /// Force a sliding-window re-accumulation now (tests only; the serve
  /// path relies exclusively on the sample-driven triggers).
  void force_rebuild() { rebuild(); }

  const IncrementalTrackConfig& config() const { return config_; }

 private:
  struct Sample {
    double t = 0.0;
    double raw_phase = 0.0;   ///< as read (wrapped)
    double unwrapped = 0.0;   ///< streaming unwrap, current epoch datum
    double arc = 0.0;         ///< v * (t - epoch t0): pairing coordinate
  };
  struct Row {
    std::size_t anchor = 0;   ///< global index of the pair's anchor sample
    double a0 = 0.0;          ///< 2 (q_i - q_j)
    double a1 = 0.0;          ///< 2 (dd_i - dd_j)
    double k = 0.0;           ///< q_i^2 - q_j^2 - dd_i^2 + dd_j^2
    bool included = false;    ///< in the consensus set (in the normals)
  };

  const Sample& at(std::size_t global) const {
    return samples_[global - base_index_];
  }
  double delta_d(const Sample& s) const;
  double local_q(const Sample& s) const;
  void append_pairs_for_newest();
  void make_row(std::size_t anchor_global, std::size_t partner_global,
                Row& out) const;
  void append_row(Row row);
  void rebuild();
  void reset_epoch();

  IncrementalTrackConfig config_;
  Vec3 perp_axis_{};  ///< unit normal to the belt used to place the pose

  std::deque<Sample> samples_;
  std::size_t base_index_ = 0;   ///< global index of samples_.front()
  std::deque<Row> rows_;         ///< emission order == increasing anchor

  // Current epoch (reference datum), cached by value so retiring the
  // datum sample cannot invalidate live rows.
  double epoch_t0_ = 0.0;
  double epoch_theta_ref_ = 0.0;
  bool have_epoch_ = false;
  // Streaming unwrap state.
  double unwrap_prev_raw_ = 0.0;
  double unwrap_accum_ = 0.0;
  // Moving pairing cursor (global anchor index).
  std::size_t next_anchor_ = 0;

  linalg::IncrementalNormals normals_;
  // Gate state, refreshed at rebuild time only (kept fixed between
  // rebuilds so inclusion decisions are order-independent enough for the
  // differential suite).
  bool have_baseline_ = false;
  double baseline_rms_ = 0.0;
  double include_threshold_ = 0.0;  ///< |residual| cap for appended rows
  double gate_x_[2] = {0.0, 0.0};   ///< estimate backing the include gate

  std::size_t appends_since_rebuild_ = 0;
  std::size_t retires_since_rebuild_ = 0;
  std::size_t rows_at_rebuild_ = 0;  ///< doubling-cadence anchor
  std::uint64_t rebuilds_ = 0;

  // Scratch for the warm-started consensus refresh (reused across
  // rebuilds; rebuild is the only allocating path at steady state).
  linalg::SolverWorkspace ws_;
  RansacResult ransac_result_;
  std::vector<char> prior_inliers_;
};

}  // namespace lion::core
