#include "core/adaptive.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/pairing.hpp"
#include "obs/obs.hpp"

namespace lion::core {

namespace {

/// One range window's ProfilePrep, made by the first cell of the window
/// that runs and read by the rest (call_once orders the reads after the
/// write). A window whose prepare() threw leaves `prep` empty: each of its
/// cells is unusable, as each cell's own locate() would have thrown.
struct WindowPrep {
  std::once_flag once;
  std::optional<ProfilePrep> prep;
};

/// What one sweep shares with its helper tasks. Helpers hold it by
/// shared_ptr, so a helper that starts after the sweep returned still
/// finds a live cursor, sees it exhausted, and leaves. The pointed-to
/// inputs and outputs live with the caller: a helper dereferences them
/// only after claiming a cell, and the caller does not return before
/// every claimed cell is done.
struct CellSweep {
  const AdaptiveConfig* config = nullptr;
  const std::vector<signal::PhaseProfile>* windows = nullptr;  ///< per range
  AdaptiveCandidate* candidates = nullptr;  ///< one slot per cell
  std::size_t cells = 0;
  std::vector<std::size_t> order;  ///< adaptive_claim_order
  std::unique_ptr<WindowPrep[]> preps;  ///< one per range window

  std::atomic<std::size_t> next{0};  ///< claim cursor into `order`
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;  ///< cells finished; guarded by mu
  /// Lowest-numbered cell that raised a non-std exception (the serial
  /// sweep would have propagated it first); guarded by mu.
  std::size_t failed_cell = SIZE_MAX;
  std::exception_ptr failure;
};

/// The localizer configuration for one (range, interval) cell over the
/// windowed profile `windowed`.
LocalizerConfig adaptive_cell_config(const AdaptiveConfig& config,
                                     double interval,
                                     const signal::PhaseProfile& windowed) {
  LocalizerConfig lc = config.base;
  lc.pair_interval = interval;
  // A fresh reference per window: the configured index refers to the
  // full profile, which may be cropped away.
  if (!lc.reference_index || *lc.reference_index >= windowed.size()) {
    lc.reference_index = windowed.size() / 2;
  }
  return lc;
}

/// Per-candidate acceptance gate: enough equations, tolerable
/// conditioning, finite position.
bool adaptive_candidate_usable(const LocalizationResult& result,
                               const AdaptiveConfig& config) {
  return result.equations >= config.min_equations &&
         result.condition <= config.max_condition &&
         std::isfinite(result.position[0]) &&
         std::isfinite(result.position[1]) &&
         std::isfinite(result.position[2]);
}

/// Cell k = (range k / |intervals|, interval k % |intervals|), written to
/// its own candidate slot. std::exception marks the cell unusable;
/// anything else escapes to claim_cells.
void run_cell(const CellSweep& s, std::size_t k, linalg::SolverWorkspace* ws) {
  const AdaptiveConfig& config = *s.config;
  const std::size_t r = k / config.intervals.size();
  const signal::PhaseProfile& windowed = (*s.windows)[r];
  AdaptiveCandidate& cand = s.candidates[k];
  cand.range = config.ranges[r];
  cand.interval = config.intervals[k % config.intervals.size()];
  LocalizerConfig lc = adaptive_cell_config(config, cand.interval, windowed);
  lc.workspace = ws;
  try {
    const LinearLocalizer localizer(lc);
    // The window's interval cells share everything but their pairs: the
    // frame, arc lengths and point terms depend on the window alone.
    WindowPrep& wp = s.preps[r];
    std::call_once(wp.once, [&] {
      try {
        wp.prep = localizer.prepare(windowed);
      } catch (const std::exception&) {
      }
    });
    if (!wp.prep) {
      cand.usable = false;
      return;
    }
    cand.result = localizer.locate(windowed, *wp.prep);
    cand.usable = adaptive_candidate_usable(cand.result, config);
  } catch (const std::exception&) {
    cand.usable = false;
  }
}

/// The sweep's one cell loop, run by the caller and by every helper:
/// claim cells off the shared cursor until it passes the last one.
void claim_cells(CellSweep& s, linalg::SolverWorkspace* ws, bool helper) {
  std::size_t ran = 0;
  for (;;) {
    const std::size_t claim = s.next.fetch_add(1);
    if (claim >= s.cells) break;
    const std::size_t k = s.order[claim];
    std::exception_ptr failure;
    try {
      run_cell(s, k, ws);
    } catch (...) {
      failure = std::current_exception();
    }
    ++ran;
    std::lock_guard<std::mutex> lock(s.mu);
    if (failure && k < s.failed_cell) {
      s.failed_cell = k;
      s.failure = failure;
    }
    if (++s.done == s.cells) s.cv.notify_all();
  }
  LION_OBS_COUNT("adaptive.cells", ran);
  if (helper) LION_OBS_COUNT("adaptive.cells_offloaded", ran);
}

/// The ranking/selection/averaging tail of the sweep, in cell order.
/// Throws std::invalid_argument when no candidate is usable.
AdaptiveResult finalize_adaptive_sweep(
    std::vector<AdaptiveCandidate> candidates, const AdaptiveConfig& config) {
  AdaptiveResult out;
  out.candidates = std::move(candidates);

  std::vector<const AdaptiveCandidate*> usable;
  for (const auto& c : out.candidates) {
    if (c.usable) usable.push_back(&c);
  }
  if (usable.empty()) {
    throw std::invalid_argument(
        "locate_adaptive: no parameter combination produced a solution");
  }

  std::sort(usable.begin(), usable.end(),
            [](const AdaptiveCandidate* a, const AdaptiveCandidate* b) {
              return std::abs(a->result.mean_residual) <
                     std::abs(b->result.mean_residual);
            });

  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(config.keep_fraction *
                       static_cast<double>(usable.size()))));

  Vec3 avg{};
  double avg_dr = 0.0;
  for (std::size_t i = 0; i < keep; ++i) {
    avg += usable[i]->result.position;
    avg_dr += usable[i]->result.reference_distance;
    out.selected.push_back(*usable[i]);
  }
  out.position = avg / static_cast<double>(keep);
  out.reference_distance = avg_dr / static_cast<double>(keep);
  out.best_range = usable.front()->range;
  out.best_interval = usable.front()->interval;
  return out;
}

}  // namespace

std::vector<std::size_t> adaptive_claim_order(
    const AdaptiveConfig& config,
    const std::vector<std::size_t>& window_sizes) {
  const std::size_t intervals = config.intervals.size();
  std::vector<std::size_t> order(window_sizes.size() * intervals);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const std::size_t wa = window_sizes[a / intervals];
                     const std::size_t wb = window_sizes[b / intervals];
                     if (wa != wb) return wa > wb;
                     return config.intervals[a % intervals] <
                            config.intervals[b % intervals];
                   });
  return order;
}

AdaptiveResult locate_adaptive(const signal::PhaseProfile& profile,
                               const AdaptiveConfig& config,
                               SweepExecutor* executor) {
  if (config.ranges.empty() || config.intervals.empty()) {
    throw std::invalid_argument("locate_adaptive: empty candidate lists");
  }
  std::vector<signal::PhaseProfile> windows;
  windows.reserve(config.ranges.size());
  for (double range : config.ranges) {
    windows.push_back(
        restrict_to_x_range(profile, config.range_center_x, range));
  }
  std::vector<AdaptiveCandidate> candidates(config.ranges.size() *
                                            config.intervals.size());

  const auto sweep = std::make_shared<CellSweep>();
  sweep->config = &config;
  sweep->windows = &windows;
  sweep->candidates = candidates.data();
  sweep->cells = candidates.size();
  std::vector<std::size_t> window_sizes;
  window_sizes.reserve(windows.size());
  for (const auto& w : windows) window_sizes.push_back(w.size());
  sweep->order = adaptive_claim_order(config, window_sizes);
  sweep->preps = std::make_unique<WindowPrep[]>(windows.size());

  const std::size_t helpers =
      executor ? std::min(executor->helpers(), sweep->cells - 1) : 0;
  try {
    for (std::size_t h = 0; h < helpers; ++h) {
      executor->spawn([sweep](linalg::SolverWorkspace* ws) {
        claim_cells(*sweep, ws, true);
      });
    }
  } catch (...) {
    // Fewer helpers only means the caller claims more cells.
  }
  claim_cells(*sweep, config.base.workspace, false);
  {
    std::unique_lock<std::mutex> lock(sweep->mu);
    sweep->cv.wait(lock, [&] { return sweep->done == sweep->cells; });
  }
  if (sweep->failure) std::rethrow_exception(sweep->failure);

  return finalize_adaptive_sweep(std::move(candidates), config);
}

}  // namespace lion::core
