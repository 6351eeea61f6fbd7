#include "obs/obs.hpp"

#include <array>

namespace lion::obs {

namespace {

constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount);

constexpr std::array<const char*, kStageCount> kStageNames = {
    "sanitize", "unwrap", "smooth",    "stitch", "preprocess", "radical",
    "ransac",   "irls",   "solve",     "calibrate", "offset",  "job",
    "ingest",   "emit",   "demux",     "queue_wait", "serve_solve",
    "reorder",  "journal_append",      "journal_sync",
};

const std::array<MetricId, kStageCount>& stage_histogram_ids() {
  static const std::array<MetricId, kStageCount> ids = [] {
    std::array<MetricId, kStageCount> out{};
    auto& reg = MetricsRegistry::instance();
    for (std::size_t i = 0; i < kStageCount; ++i) {
      out[i] = reg.try_histogram(
          std::string("stage.") + kStageNames[i] + ".seconds",
          duration_bounds());
    }
    return out;
  }();
  return ids;
}

}  // namespace

const char* stage_name(Stage s) {
  const auto i = static_cast<std::size_t>(s);
  return i < kStageCount ? kStageNames[i] : "unknown";
}

MetricId stage_histogram(Stage s) {
  const auto i = static_cast<std::size_t>(s);
  return i < kStageCount ? stage_histogram_ids()[i] : kInvalidMetric;
}

void register_pipeline_metrics() {
  auto& reg = MetricsRegistry::instance();
  (void)stage_histogram_ids();
  // Counters, one authoritative list so snapshots always carry the schema.
  // Serve counters live in serve::kServeCounters, not in the registry.
  for (const char* name :
       {"radical.rows", "ransac.iterations", "ransac.degenerate_subsets",
        "ransac.fallbacks", "ransac.consensus", "irls.nonconverged",
        "engine.jobs", "engine.steals", "engine.exceptions", "adaptive.cells",
        "adaptive.cells_offloaded", "select.bracket_misses",
        "select.warm_misses"}) {
    (void)reg.try_counter(name);
  }
  (void)reg.try_histogram("ransac.inlier_fraction", fraction_bounds());
  (void)reg.try_histogram("irls.iterations", count_bounds());
  (void)reg.try_histogram("irls.weight_mass", fraction_bounds());
  (void)reg.try_histogram("serve.queue_depth", count_bounds());
}

void set_metrics_enabled(bool on) {
  if (on) register_pipeline_metrics();
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

StageSpan::StageSpan(Stage s) : stage_(s) {
  metrics_ = metrics_enabled();
  trace_ = tracing_enabled();
  if (metrics_ || trace_) start_ = trace_now_ns();
}

StageSpan::StageSpan(Stage s, std::uint64_t arg) : StageSpan(s) {
  arg_ = arg;
  has_arg_ = true;
}

StageSpan::~StageSpan() {
  if (!(metrics_ || trace_)) return;
  const std::uint64_t dur = trace_now_ns() - start_;
  if (metrics_) {
    MetricsRegistry::instance().record(stage_histogram(stage_),
                                       static_cast<double>(dur) * 1e-9);
  }
  if (trace_) {
    trace_record({stage_name(stage_), trace_thread_id(), start_, dur, arg_,
                  has_arg_});
  }
}

}  // namespace lion::obs
