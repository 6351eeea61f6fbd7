#include "core/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "rf/constants.hpp"
#include "rf/phase_model.hpp"

namespace lion::core {

namespace {

// Deterministic unit normal to `axis`: project out the basis vector least
// aligned with it (lowest index wins ties), so every solver sharing a belt
// direction places the recovered perpendicular on the same ray.
Vec3 completion_normal(const Vec3& axis) {
  std::size_t best = 0;
  double best_align = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < 3; ++i) {
    Vec3 e{};
    e[i] = 1.0;
    const double align = std::abs(e.dot(axis));
    if (align < best_align) {
      best_align = align;
      best = i;
    }
  }
  Vec3 e{};
  e[best] = 1.0;
  const Vec3 w = e - e.dot(axis) * axis;
  return w.normalized();
}

}  // namespace

IncrementalTrackSolver::IncrementalTrackSolver(IncrementalTrackConfig config)
    : config_(std::move(config)) {
  if (config_.belt_direction.norm() == 0.0) {
    throw std::invalid_argument("IncrementalTrackSolver: zero belt direction");
  }
  config_.belt_direction = config_.belt_direction.normalized();
  if (config_.belt_speed <= 0.0) {
    throw std::invalid_argument(
        "IncrementalTrackSolver: speed must be positive");
  }
  if (config_.wavelength <= 0.0) config_.wavelength = rf::kDefaultWavelength;
  if (config_.pair_interval <= 0.0) {
    throw std::invalid_argument(
        "IncrementalTrackSolver: pair_interval must be positive");
  }
  if (config_.min_rows < 3) config_.min_rows = 3;

  // Perpendicular placement: toward the side hint when one is given (and
  // not parallel to the belt), else a deterministic completion.
  perp_axis_ = completion_normal(config_.belt_direction);
  if (config_.side_hint) {
    const Vec3 off = *config_.side_hint - config_.antenna_phase_center;
    const Vec3 w = off - off.dot(config_.belt_direction) *
                             config_.belt_direction;
    if (w.norm() > 1e-12) perp_axis_ = w.normalized();
  }
  normals_.reset(2);
}

double IncrementalTrackSolver::delta_d(const Sample& s) const {
  return rf::phase_to_distance_delta(s.unwrapped - epoch_theta_ref_,
                                     config_.wavelength);
}

double IncrementalTrackSolver::local_q(const Sample& s) const {
  // Virtual moving-antenna profile P(t) = A - v (t - t0) d, expressed on
  // the axis u = d with origin A: q = -v (t - t0) = -arc.
  return -config_.belt_speed * (s.t - epoch_t0_);
}

void IncrementalTrackSolver::push(const sim::PhaseSample& sample) {
  Sample s;
  s.t = sample.t;
  s.raw_phase = sample.phase;
  if (samples_.empty()) {
    reset_epoch();
    epoch_t0_ = s.t;
    epoch_theta_ref_ = s.raw_phase;
    have_epoch_ = true;
    unwrap_prev_raw_ = s.raw_phase;
    unwrap_accum_ = 0.0;
    s.unwrapped = s.raw_phase;
  } else {
    // Streaming unwrap, mirroring signal::unwrap_in_place: in-range jumps
    // stay bit-exact, only true wraps adjust the accumulator.
    const double raw_jump = s.raw_phase - unwrap_prev_raw_;
    if (raw_jump > rf::kPi || raw_jump <= -rf::kPi) {
      unwrap_accum_ += rf::wrap_phase_symmetric(raw_jump) - raw_jump;
    }
    unwrap_prev_raw_ = s.raw_phase;
    s.unwrapped = s.raw_phase + unwrap_accum_;
  }
  s.arc = config_.belt_speed * (s.t - epoch_t0_);
  samples_.push_back(s);
  const std::size_t total_rows_before = rows_.size();
  append_pairs_for_newest();
  ++appends_since_rebuild_;

  // Consensus refresh cadence: a young baseline extrapolates poorly, so
  // the gate would wrongly shed rows if it were held for 4096 appends.
  // Doubling — refresh after as many appends as the system had rows at
  // the last rebuild — keeps every gate decision within ~2x of the
  // fitted arc while costing amortized O(1) row-accumulations per push.
  // The very first baseline fires the moment enough rows exist.
  if (rows_.size() >= config_.min_rows) {
    const bool crossed = total_rows_before < config_.min_rows;
    const std::size_t cadence =
        std::min(config_.rebuild_every_appends,
                 std::max(config_.min_rows, rows_at_rebuild_));
    if (crossed || appends_since_rebuild_ >= cadence) rebuild();
  }
}

void IncrementalTrackSolver::append_pairs_for_newest() {
  const std::size_t j = base_index_ + samples_.size() - 1;
  const Sample& sj = samples_.back();
  // Moving-cursor interval pairing (interval_pairs semantics, stride 1):
  // the newest sample is the first to cross each satisfied anchor's
  // target, because anchors only advance when crossed.
  while (next_anchor_ < j) {
    const Sample& anchor = at(next_anchor_);
    const double target = anchor.arc + config_.pair_interval;
    if (sj.arc < target) break;  // future samples may still satisfy it
    if (sj.arc - target <= config_.pair_tolerance) {
      Row row;
      make_row(next_anchor_, j, row);
      append_row(row);
    }
    ++next_anchor_;
  }
}

void IncrementalTrackSolver::make_row(std::size_t anchor_global,
                                      std::size_t partner_global,
                                      Row& out) const {
  const Sample& si = at(anchor_global);
  const Sample& sj = at(partner_global);
  const double qi = local_q(si);
  const double qj = local_q(sj);
  const double ddi = delta_d(si);
  const double ddj = delta_d(sj);
  out.anchor = anchor_global;
  out.a0 = 2.0 * (qi - qj);
  out.a1 = 2.0 * (ddi - ddj);
  out.k = qi * qi - qj * qj - ddi * ddi + ddj * ddj;
}

void IncrementalTrackSolver::append_row(Row row) {
  if (have_baseline_) {
    // Inclusion gate for rows appended between rebuilds: residual against
    // the rebuild-time estimate (fixed until the next rebuild, so the
    // decision is a pure function of the row itself).
    const double r = row.a0 * gate_x_[0] + row.a1 * gate_x_[1] - row.k;
    row.included = std::abs(r) <= include_threshold_;
  } else {
    row.included = true;
  }
  if (row.included) {
    const double a[2] = {row.a0, row.a1};
    normals_.append(a, row.k);
  }
  rows_.push_back(row);
}

void IncrementalTrackSolver::retire(std::size_t count) {
  count = std::min(count, samples_.size());
  if (count == 0) return;
  const std::size_t new_base = base_index_ + count;
  while (!rows_.empty() && rows_.front().anchor < new_base) {
    const Row& row = rows_.front();
    if (row.included) {
      const double a[2] = {row.a0, row.a1};
      normals_.downdate(a, row.k);
    }
    rows_.pop_front();
  }
  samples_.erase(samples_.begin(),
                 samples_.begin() + static_cast<std::ptrdiff_t>(count));
  base_index_ = new_base;
  if (next_anchor_ < base_index_) next_anchor_ = base_index_;
  retires_since_rebuild_ += count;

  if (samples_.empty()) {
    reset_epoch();
    return;
  }
  if (retires_since_rebuild_ >= config_.rebuild_every_retires ||
      normals_.cancellation() > config_.rebuild_cancellation) {
    rebuild();
  }
}

void IncrementalTrackSolver::clear() {
  base_index_ += samples_.size();
  samples_.clear();
  reset_epoch();
}

void IncrementalTrackSolver::reset_epoch() {
  rows_.clear();
  next_anchor_ = base_index_;
  have_epoch_ = false;
  have_baseline_ = false;
  baseline_rms_ = 0.0;
  include_threshold_ = 0.0;
  gate_x_[0] = gate_x_[1] = 0.0;
  normals_.reset(2);
  appends_since_rebuild_ = 0;
  retires_since_rebuild_ = 0;
  rows_at_rebuild_ = 0;
}

linalg::IncrementalNormals IncrementalTrackSolver::batch_normals() const {
  linalg::IncrementalNormals fresh;
  fresh.reset(2);
  for (const Row& row : rows_) {
    if (!row.included) continue;
    const double a[2] = {row.a0, row.a1};
    fresh.append(a, row.k);
  }
  return fresh;
}

void IncrementalTrackSolver::rebuild() {
  LION_OBS_COUNT("incremental.rebuilds", 1);
  ++rebuilds_;
  appends_since_rebuild_ = 0;
  retires_since_rebuild_ = 0;
  if (samples_.empty()) {
    reset_epoch();
    return;
  }

  // Remember the surviving consensus before re-deriving the rows. The new
  // epoch shifts every arc/q by a constant, so re-pairing over the same
  // samples reproduces the same (anchor, partner) set and the masks map
  // one-to-one.
  prior_inliers_.clear();
  prior_inliers_.reserve(rows_.size());
  for (const Row& row : rows_) prior_inliers_.push_back(row.included ? 1 : 0);
  const bool had_baseline = have_baseline_;

  // Re-anchor the datum on the oldest surviving sample and re-unwrap.
  epoch_t0_ = samples_.front().t;
  have_epoch_ = true;
  double accum = 0.0;
  double prev_raw = samples_.front().raw_phase;
  samples_.front().unwrapped = prev_raw;
  samples_.front().arc = 0.0;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    Sample& s = samples_[i];
    const double raw_jump = s.raw_phase - prev_raw;
    if (raw_jump > rf::kPi || raw_jump <= -rf::kPi) {
      accum += rf::wrap_phase_symmetric(raw_jump) - raw_jump;
    }
    prev_raw = s.raw_phase;
    s.unwrapped = s.raw_phase + accum;
    s.arc = config_.belt_speed * (s.t - epoch_t0_);
  }
  epoch_theta_ref_ = samples_.front().unwrapped;
  unwrap_prev_raw_ = prev_raw;
  unwrap_accum_ = accum;

  // Re-derive the rows under the new datum.
  rows_.clear();
  next_anchor_ = base_index_;
  std::size_t cursor = base_index_;
  for (std::size_t off = 1; off < samples_.size(); ++off) {
    const std::size_t j = base_index_ + off;
    const Sample& sj = samples_[off];
    while (cursor < j) {
      const Sample& anchor = at(cursor);
      const double target = anchor.arc + config_.pair_interval;
      if (sj.arc < target) break;
      if (sj.arc - target <= config_.pair_tolerance) {
        Row row;
        make_row(cursor, j, row);
        row.included = true;  // consensus decided below
        rows_.push_back(row);
      }
      ++cursor;
    }
  }
  next_anchor_ = cursor;

  const std::size_t n = rows_.size();
  bool solved = false;
  double x[linalg::kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};

  // Consensus refresh: RANSAC warm-started from the surviving inlier set
  // when there is sampling headroom, plain LS over everything otherwise.
  if (n >= std::max(config_.min_rows, config_.ransac_min_rows)) {
    ws_.reshape(n, 2);
    double* a = ws_.mutable_rows();
    double* b = ws_.mutable_rhs();
    for (std::size_t i = 0; i < n; ++i) {
      a[2 * i] = rows_[i].a0;
      a[2 * i + 1] = rows_[i].a1;
      b[i] = rows_[i].k;
    }
    if (!had_baseline || prior_inliers_.size() != n) prior_inliers_.clear();
    const linalg::SolveStatus st = ransac_solve_loaded(
        config_.ransac, ws_, ransac_result_,
        prior_inliers_.empty() ? nullptr : prior_inliers_.data());
    if (st == linalg::SolveStatus::kOk) {
      for (std::size_t i = 0; i < n; ++i) {
        rows_[i].included = ransac_result_.inlier_mask[i] != 0;
      }
      x[0] = ransac_result_.solution.x[0];
      x[1] = ransac_result_.solution.x[1];
    }
    // A failed consensus keeps every row (included was set above).
  }

  // Re-accumulate the normals from the consensus rows (this is the
  // sliding-window re-accumulation that bounds downdating error).
  normals_.reset(2);
  for (const Row& row : rows_) {
    if (!row.included) continue;
    const double a[2] = {row.a0, row.a1};
    normals_.append(a, row.k);
  }
  solved = normals_.rows() >= config_.min_rows && normals_.solve(x);

  rows_at_rebuild_ = rows_.size();
  have_baseline_ = solved;
  if (solved) {
    gate_x_[0] = x[0];
    gate_x_[1] = x[1];
    baseline_rms_ = normals_.rms(x);
    include_threshold_ =
        config_.gate_rms_factor *
        std::max(baseline_rms_, config_.gate_rms_floor);
  } else {
    baseline_rms_ = 0.0;
    include_threshold_ = 0.0;
    gate_x_[0] = gate_x_[1] = 0.0;
  }
}

TickResult IncrementalTrackSolver::tick() const {
  TickResult out;
  if (samples_.empty()) {
    out.fallback = true;
    return out;
  }
  out.t = samples_.back().t;
  out.rows = normals_.rows();
  if (!have_baseline_ || normals_.rows() < config_.min_rows) {
    out.fallback = true;
    return out;
  }
  double x[linalg::kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  if (!normals_.solve(x)) {
    out.fallback = true;
    return out;
  }
  out.rms = normals_.rms(x);
  const double gate =
      config_.gate_rms_factor *
      std::max(baseline_rms_, config_.gate_rms_floor);
  if (!std::isfinite(out.rms) || out.rms > gate) {
    out.fallback = true;
    return out;
  }

  // Pose recovery (Observation 2 in the fixed frame): the reference datum
  // sits at q_ref = 0 (the epoch origin is the virtual antenna position at
  // epoch_t0_, i.e. the phase center itself), so the perpendicular offset
  // is rho^2 = d_r^2 - alpha^2.
  const double alpha = x[0];
  const double d_r = std::abs(x[1]);
  const double perp2 = d_r * d_r - alpha * alpha;
  const double perp = perp2 > 0.0 ? std::sqrt(perp2) : 0.0;
  const Vec3 at_epoch = config_.antenna_phase_center +
                        alpha * config_.belt_direction + perp * perp_axis_;
  const Vec3 drift = config_.belt_speed * config_.belt_direction;
  out.start = at_epoch + (samples_.front().t - epoch_t0_) * drift;
  out.position = at_epoch + (out.t - epoch_t0_) * drift;

  // 1-sigma along-belt uncertainty from the 2x2 normal equations:
  // cov = sigma_r^2 G^{-1}, sigma_r^2 the dof-corrected residual variance.
  const std::size_t n = normals_.rows();
  if (n > 2) {
    const double* g = normals_.gram_packed();  // [g00, g01, g11]
    const double det = g[0] * g[2] - g[1] * g[1];
    if (det > 0.0) {
      const double sigma2 = out.rms * out.rms * static_cast<double>(n) /
                            static_cast<double>(n - 2);
      out.sigma = std::sqrt(std::max(0.0, sigma2 * g[2] / det));
    }
  }
  out.valid = true;
  return out;
}

}  // namespace lion::core
