// Umbrella header for the observability layer: pipeline stage taxonomy,
// combined metrics+trace spans, and the instrumentation macros used
// throughout signal/, linalg/, core/ and engine/.
//
// Overhead contract
// -----------------
//   - disabled at runtime (default): every macro costs at most one or two
//     relaxed atomic loads and predictable branches — strictly less than
//     a relaxed increment, verified by the bench_batch_engine before/after
//     gate (<2% throughput delta);
//   - compiled with -DLION_OBS_OFF: the macros expand to ((void)0) and
//     the instrumentation vanishes from the binary entirely;
//   - enabled: counters/histograms are lock-free per-thread-shard relaxed
//     atomics (obs/metrics.hpp); traces lock only the calling thread's
//     own ring (obs/trace.hpp).
//
// Instrumentation never feeds back into any solver, so enabling it cannot
// change a calibration result (re-proven by the engine determinism suite).
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lion::obs {

/// The calibration pipeline's stages, in rough execution order. Each gets
/// a registry histogram "stage.<name>.seconds" and a trace span name.
enum class Stage : std::size_t {
  kSanitize,    ///< signal/sanitize: stream scrubbing
  kUnwrap,      ///< signal/unwrap: 2*pi-jump removal
  kSmooth,      ///< signal/smooth: moving-average smoothing
  kStitch,      ///< signal/stitch: cross-trajectory continuity
  kPreprocess,  ///< signal/stitch: the whole preprocess() pipeline
  kRadical,     ///< core/radical: radical-line row assembly
  kRansac,      ///< core/ransac: consensus sampling
  kIrls,        ///< linalg/lstsq: reweighting loop (any robust loss)
  kSolve,       ///< core/localizer: one full linear solve
  kCalibrate,   ///< core/calibration: calibrate_antenna_robust end to end
  kOffset,      ///< core/calibration: Eq.-17 phase-offset extraction
  kJob,         ///< engine/batch: one batch job (trace arg = job id)
  kIngest,      ///< serve/service: one wire line through parse + demux
  kEmit,        ///< serve/service: ordered-emitter release of one response
  // Serve-side request tracing (trace arg = trace id): the stations one
  // flush visits between the ingest thread and the ordered emitter.
  kDemux,          ///< serve/service: session lookup + admission
  kQueueWait,      ///< serve/service: submit to worker pickup
  kServeSolve,     ///< serve/service: worker-side calibration solve
  kReorder,        ///< serve/service: emitter hold for in-order release
  kJournalAppend,  ///< serve/journal: one record append
  kJournalSync,    ///< serve/journal: fsync batch
  kCount
};

/// Stable short name ("unwrap", "ransac", ...). Static storage.
const char* stage_name(Stage s);

/// Registry id of the stage's duration histogram (registered on first
/// use, bounds = duration_bounds()).
MetricId stage_histogram(Stage s);

/// Pre-register the full pipeline schema — every stage histogram plus the
/// standard counters and distribution histograms (ransac.*, irls.*,
/// radical.rows, engine.*) — so snapshots always contain them, zeros
/// included. Called automatically by set_metrics_enabled(true).
void register_pipeline_metrics();

/// RAII combined span: on destruction, records its duration into the
/// stage's metrics histogram (when metrics are enabled) and appends a
/// trace slice (when tracing is enabled). Both flags are sampled at
/// construction; when both are off the span does nothing.
class StageSpan {
 public:
  explicit StageSpan(Stage s);
  StageSpan(Stage s, std::uint64_t arg);
  ~StageSpan();
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  Stage stage_;
  std::uint64_t start_ = 0;
  std::uint64_t arg_ = 0;
  bool metrics_ = false;
  bool trace_ = false;
  bool has_arg_ = false;
};

}  // namespace lion::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. LION_OBS_OFF is the compile-time kill switch.
// ---------------------------------------------------------------------------

#if defined(LION_OBS_OFF)

#define LION_OBS_SPAN(stage) ((void)0)
#define LION_OBS_SPAN_TAGGED(stage, tag) ((void)0)
#define LION_OBS_COUNT(name, delta) ((void)0)
#define LION_OBS_HIST(name, bounds_expr, value) ((void)0)

#else

#define LION_OBS_CONCAT_IMPL(a, b) a##b
#define LION_OBS_CONCAT(a, b) LION_OBS_CONCAT_IMPL(a, b)

/// Time the enclosing scope as a pipeline stage.
#define LION_OBS_SPAN(stage)                               \
  const ::lion::obs::StageSpan LION_OBS_CONCAT(            \
      lion_obs_span_, __LINE__) {                          \
    (stage)                                                \
  }

/// Same, with a numeric tag carried into the trace (e.g. a job id).
#define LION_OBS_SPAN_TAGGED(stage, tag)                   \
  const ::lion::obs::StageSpan LION_OBS_CONCAT(            \
      lion_obs_span_, __LINE__) {                          \
    (stage), static_cast<std::uint64_t>(tag)               \
  }

/// Bump a named counter. The id resolves once (thread-safe static) on the
/// first enabled pass through this line; a full registry degrades this
/// one site to a no-op (try_counter) instead of throwing on a hot path.
#define LION_OBS_COUNT(name, delta)                                   \
  do {                                                                \
    if (::lion::obs::metrics_enabled()) {                             \
      static const ::lion::obs::MetricId lion_obs_cid =               \
          ::lion::obs::MetricsRegistry::instance().try_counter(name); \
      ::lion::obs::MetricsRegistry::instance().add(                   \
          lion_obs_cid, static_cast<std::uint64_t>(delta));           \
    }                                                                 \
  } while (0)

/// Record a value into a named histogram with the given bounds
/// (bounds_expr is evaluated only on the first enabled pass). Like
/// LION_OBS_COUNT, registry exhaustion degrades the site to a no-op.
#define LION_OBS_HIST(name, bounds_expr, value)                      \
  do {                                                               \
    if (::lion::obs::metrics_enabled()) {                            \
      static const ::lion::obs::MetricId lion_obs_hid =              \
          ::lion::obs::MetricsRegistry::instance().try_histogram(    \
              name, (bounds_expr));                                  \
      ::lion::obs::MetricsRegistry::instance().record(               \
          lion_obs_hid, static_cast<double>(value));                 \
    }                                                                \
  } while (0)

#endif  // LION_OBS_OFF
