// Prometheus text-exposition rendering (version 0.0.4, the plain-text
// format every scraper accepts).
//
// The registry's dotted metric names map to Prometheus conventions:
// "engine.jobs" becomes "lion_engine_jobs_total" (counter) and
// "stage.solve.seconds" becomes "lion_stage_solve_seconds" (histogram
// with cumulative `_bucket{le=...}` series, `_sum`, and `_count`).
// Rendering is deterministic for fixed recorded values — names are
// emitted in the registry snapshot's sorted order and numbers follow a
// fixed %.17g/%g convention — so conformance tests can compare scrapes
// structurally.
//
// The helpers below are also the building blocks for gauges the registry
// does not own (process RSS, journal lag, per-session RED series): the
// serve telemetry endpoint composes its body from them.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace lion::obs {

/// "engine.jobs" -> "lion_engine_jobs"; any character outside
/// [a-zA-Z0-9_] becomes '_', and a leading digit gains a '_' prefix.
std::string prometheus_name(const std::string& name);

/// Escape a label value (backslash, double quote, newline).
std::string prometheus_label_escape(const std::string& value);

/// Append `# TYPE` header + one sample line:
///   <name>{<labels>} <value>\n
/// `labels` is the raw inside of the braces ("" = no braces); `type` is
/// "counter" / "gauge" and may be empty to skip the header (continuation
/// samples of an already-typed family).
void append_prometheus_sample(std::string& out, const std::string& name,
                              const std::string& labels, double value,
                              const char* type);

/// Render a full registry snapshot: counters as `<name>_total` counter
/// families, histograms as cumulative-bucket histogram families. Every
/// name gains the "lion_" prefix.
std::string prometheus_render(const Snapshot& snapshot);

}  // namespace lion::obs
