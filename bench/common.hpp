// Shared helpers for the figure-reproduction bench harnesses.
//
// Each bench binary regenerates one table/figure of the paper's evaluation
// and prints the same rows/series the paper reports, plus the paper's
// numbers for side-by-side comparison. Absolute values differ (our
// substrate is a simulator, not the authors' testbed); the *shape* — who
// wins, by what factor, where the knees are — is what must match.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/batch.hpp"
#include "linalg/stats.hpp"
#include "linalg/vec.hpp"
#include "obs/json.hpp"
#include "sim/scenario.hpp"

namespace lion::bench {

/// An antenna with *no* hidden per-unit quirks (zero phase-center
/// displacement, zero reader offset) at a given physical center — for the
/// figures that isolate geometry or noise effects from calibration error.
inline rf::Antenna plain_antenna(const linalg::Vec3& physical_center) {
  rf::Antenna antenna;
  antenna.physical_center = physical_center;
  return antenna;
}

/// The standard figure-bench testbed: one fully-specified antenna, one
/// auto-generated tag, an environment preset, a seed. Every single-antenna
/// figure harness used to wire this by hand.
inline sim::Scenario standard_scenario(sim::EnvironmentKind environment,
                                       const rf::Antenna& antenna,
                                       std::uint64_t seed) {
  return sim::Scenario::Builder{}
      .environment(environment)
      .add_antenna(antenna)
      .add_tag()
      .seed(seed)
      .build();
}

/// Same, with an auto-quirked antenna unit at `physical_center` (matches
/// Scenario::Builder's Vec3 overload: unit id 0).
inline sim::Scenario standard_scenario(sim::EnvironmentKind environment,
                                       const linalg::Vec3& physical_center,
                                       std::uint64_t seed) {
  return standard_scenario(environment, rf::make_antenna(physical_center, 0),
                           seed);
}

/// Calibrate several raw streams as one batch on the engine (stream k
/// becomes job id k, with the engine's per-job seeding applied); reports
/// come back in stream order. `threads` = 0 uses hardware concurrency.
/// Lets a figure bench swap its serial per-antenna calibration loop for
/// the production path without changing anything else.
inline std::vector<core::CalibrationReport> calibrate_batch(
    std::vector<std::vector<sim::PhaseSample>> streams,
    const std::vector<linalg::Vec3>& physical_centers,
    std::size_t threads = 0,
    const core::RobustCalibrationConfig& config = {}) {
  std::vector<engine::CalibrationJob> jobs;
  jobs.reserve(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    jobs.push_back(engine::make_calibration_job(
        i, std::move(streams[i]),
        physical_centers[i < physical_centers.size() ? i : 0], config));
  }
  const auto batch =
      engine::BatchEngine(engine::BatchEngineOptions{threads}).run(jobs);
  std::vector<core::CalibrationReport> reports;
  reports.reserve(batch.results.size());
  for (auto& r : batch.results) reports.push_back(std::move(r.report));
  return reports;
}

/// In-plane (xy) distance — the error metric of every 2D experiment. The
/// 2D localizer reports its fix inside the virtual scan plane (whose
/// height is the antenna's z), while the tag lives in its own plane; the
/// z offset between the two planes is known a priori in a 2D task and
/// must not count as error.
inline double planar_error(const linalg::Vec3& a, const linalg::Vec3& b) {
  const double dx = a[0] - b[0];
  const double dy = a[1] - b[1];
  return std::sqrt(dx * dx + dy * dy);
}

/// Wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  /// Seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Print a banner naming the figure being reproduced.
inline void banner(const std::string& figure, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

/// Print an empirical CDF as a compact series (value at each decile).
inline void print_cdf_deciles(const std::string& label,
                              const std::vector<double>& samples) {
  std::printf("%-24s", label.c_str());
  for (int decile = 10; decile <= 100; decile += 10) {
    std::printf(" %7.3f", linalg::percentile(samples, decile));
  }
  std::printf("\n");
}

inline void print_cdf_header(const std::string& unit) {
  std::string title = "CDF deciles [";
  title += unit;
  title += ']';
  std::printf("%-24s", title.c_str());
  for (int decile = 10; decile <= 100; decile += 10) {
    std::printf("    p%-3d", decile);
  }
  std::printf("\n");
}

/// Machine-readable bench output (the human tables keep printing as
/// before). Every bench constructs one reporter from its argv; when the
/// user passes `--json <file>`, finish() writes one lion.bench.v1 JSON
/// record per reported row plus a trailing summary record:
///
///   {"schema":"lion.bench.v1","bench":"fig02","row":"valley",
///    "params":{...},"tags":{"axis":"horizontal"},"values":{"cm":2.3}}
///
/// Rows live in a deque so the references handed out by row() stay valid.
/// Without --json the reporter is inert and costs nothing.
class BenchReporter {
 public:
  /// A single result record. tag() attaches string dimensions (series
  /// name, axis, method); value() attaches numeric results.
  class Row {
   public:
    Row& tag(const std::string& key, const std::string& v) {
      tags_.emplace_back(key, v);
      return *this;
    }
    Row& value(const std::string& key, double v) {
      values_.emplace_back(key, v);
      return *this;
    }

   private:
    friend class BenchReporter;
    std::string name_;
    std::vector<std::pair<std::string, std::string>> tags_;
    std::vector<std::pair<std::string, double>> values_;
  };

  /// `bench` is the record's stable identity (e.g. "fig02_phase_center").
  /// Scans argv for `--json <file>`; other flags are left for the bench.
  BenchReporter(std::string bench, int argc, char** argv)
      : bench_(std::move(bench)) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) path_ = argv[i + 1];
    }
  }
  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;
  ~BenchReporter() { finish(); }

  bool enabled() const { return !path_.empty(); }

  /// Workload parameters repeated on every record (jobs, seed, ...).
  void param(const std::string& key, double v) {
    params_.emplace_back(key, obs::json_number(v));
  }
  void param(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    quoted += obs::json_escape(v);
    quoted += '"';
    params_.emplace_back(key, std::move(quoted));
  }

  /// Start a record; chain tag()/value() on the returned row.
  Row& row(const std::string& name) {
    rows_.emplace_back();
    rows_.back().name_ = name;
    return rows_.back();
  }

  /// Print the decile table (same output as print_cdf_deciles) and record
  /// the deciles as a row named "cdf" tagged with `label`.
  void cdf(const std::string& label, const std::vector<double>& samples) {
    print_cdf_deciles(label, samples);
    Row& r = row("cdf");
    r.tag("series", label);
    for (int decile = 10; decile <= 100; decile += 10) {
      r.value(std::string("p").append(std::to_string(decile)),
              linalg::percentile(samples, decile));
    }
  }

  /// Write all records (one JSON object per line). Called automatically on
  /// destruction; safe to call early, at most one file is ever written.
  void finish() {
    if (path_.empty() || finished_) return;
    finished_ = true;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
      return;
    }
    for (const Row& r : rows_) out << record_json(r) << '\n';
    Row summary;
    summary.name_ = "summary";
    summary.value("rows", static_cast<double>(rows_.size()));
    summary.value("wall_s", timer_.seconds());
    out << record_json(summary) << '\n';
    std::printf("json: %zu records -> %s\n", rows_.size() + 1, path_.c_str());
  }

 private:
  std::string record_json(const Row& r) const {
    std::string out = "{\"schema\":\"lion.bench.v1\",\"bench\":\"";
    out += obs::json_escape(bench_);
    out += "\",\"row\":\"";
    out += obs::json_escape(r.name_);
    out += "\",\"params\":{";
    for (std::size_t i = 0; i < params_.size(); ++i) {
      if (i) out.push_back(',');
      out += '"';
      out += obs::json_escape(params_[i].first);
      out += "\":";
      out += params_[i].second;
    }
    out += "},\"tags\":{";
    for (std::size_t i = 0; i < r.tags_.size(); ++i) {
      if (i) out.push_back(',');
      out += '"';
      out += obs::json_escape(r.tags_[i].first);
      out += "\":\"";
      out += obs::json_escape(r.tags_[i].second);
      out += '"';
    }
    out += "},\"values\":{";
    for (std::size_t i = 0; i < r.values_.size(); ++i) {
      if (i) out.push_back(',');
      out += '"';
      out += obs::json_escape(r.values_[i].first);
      out += "\":";
      obs::append_json_number(out, r.values_[i].second);
    }
    out += "}}";
    return out;
  }

  std::string bench_;
  std::string path_;
  std::vector<std::pair<std::string, std::string>> params_;  // pre-serialized
  std::deque<Row> rows_;
  Timer timer_;
  bool finished_ = false;
};

}  // namespace lion::bench
