#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "driver/harness.hpp"
#include "engine/batch.hpp"
#include "io/csv.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "rf/phase_model.hpp"
#include "rf/tag.hpp"
#include "serve/session.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

// --- Json ------------------------------------------------------------------

void Json::key(const char* k) {
  if (!first_) out_.push_back(',');
  first_ = false;
  if (k != nullptr) {
    out_ += '"';
    out_ += lion::obs::json_escape(k);
    out_ += "\":";
  }
}

Json& Json::begin(const char* k, char bracket) {
  key(k);
  out_.push_back(bracket);
  first_ = true;
  return *this;
}

Json& Json::end(char bracket) {
  out_.push_back(bracket);
  first_ = false;
  return *this;
}

Json& Json::num(const char* k, double v) {
  key(k);
  lion::obs::append_json_number(out_, v);
  return *this;
}

Json& Json::num(double v) { return num(nullptr, v); }

Json& Json::str(const char* k, const std::string& v) {
  key(k);
  out_ += '"';
  out_ += lion::obs::json_escape(v);
  out_ += '"';
  return *this;
}

Json& Json::nums(const char* k, const std::vector<double>& v) {
  open_array(k);
  for (const double x : v) num(x);
  return close_array();
}

// --- workloads -------------------------------------------------------------

bool find_workload(const std::string& name, Workload& out) {
  Workload w;
  w.name = name;
  if (name == "paper_rig") {
    // The paper's three-line rig swept at 10 cm/s at the simulator's read
    // rate (~4.5k reads per scan, ~0.2 s per full solve on one core), the
    // antenna 0.8 m away (Fig. 14(a) P3/P4, Fig. 15); the library-default
    // solver config. Largest p90 seen: 5.9 mm, 192 mrad.
    w.antenna_depth = 0.8;
    w.center_p90_bound_mm = 8.0;
    w.offset_p90_bound_mrad = 300.0;
  } else if (name == "far_rig") {
    // The same rig and scan with the antenna 1.0 m away, the farthest
    // calibration position of the paper's evaluation (Fig. 14(a) P5/P6),
    // where its error grows: weaker reads, more multipath. Largest p90
    // seen: 12.2 mm, 393 mrad.
    w.antenna_depth = 1.0;
    w.center_p90_bound_mm = 17.0;
    w.offset_p90_bound_mrad = 550.0;
  } else {
    return false;
  }
  out = w;
  return true;
}

// --- inputs ----------------------------------------------------------------

std::uint64_t first_antenna_id(std::uint64_t seed) {
  return (lion::engine::job_seed(seed) & 0xFFFFFFULL) << 8;
}

std::vector<Antenna> make_antennas(const Workload& w, std::uint64_t seed,
                                   std::uint64_t first_id, std::size_t count) {
  // Mirrors engine::make_simulated_batch: unit quirks from the id, sim
  // seed from (seed, id), the scenario's single tag is make_tag(0).
  lion::engine::SimulatedBatchSpec spec;
  spec.base_seed = seed;
  const Vec3 physical{0.0, w.antenna_depth, 0.0};
  std::vector<Antenna> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t id = first_id + i;
    const auto unit =
        lion::rf::make_antenna(physical, static_cast<std::uint32_t>(id));
    Antenna a;
    a.id = id;
    a.physical = physical;
    a.true_center = unit.phase_center();
    a.true_offset = lion::rf::wrap_phase(unit.reader_offset_rad +
                                         lion::rf::make_tag(0).tag_offset_rad);
    auto scenario = lion::sim::Scenario::Builder{}
                        .environment(spec.environment)
                        .add_antenna(unit)
                        .add_tag()
                        .seed(spec.base_seed ^ lion::engine::job_seed(id))
                        .build();
    lion::sim::ThreeLineRig rig;
    rig.x_min = -spec.rig_half_span;
    rig.x_max = spec.rig_half_span;
    for (const auto& s : scenario.sweep(0, 0, rig.build())) {
      a.rows.push_back(csv_row(s));
    }
    out.push_back(std::move(a));
  }
  return out;
}

std::vector<lion::sim::PhaseSample> parse_rows(
    const std::vector<std::string>& rows, std::size_t count) {
  lion::io::CsvStreamParser parser;
  std::vector<lion::sim::PhaseSample> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count && i < rows.size(); ++i) {
    const auto r = parser.push_line(rows[i]);
    if (r.status == lion::io::CsvRowStatus::kSample) out.push_back(r.sample);
  }
  return out;
}

std::string calibrate_declare(const std::string& id, const Antenna& a) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "!session %s center=%.17g,%.17g,%.17g",
                id.c_str(), a.physical[0], a.physical[1], a.physical[2]);
  return buf;
}

lion::core::RobustCalibrationConfig declared_config(
    const std::string& declare) {
  lion::serve::SessionConfig cfg;
  std::string error;
  if (!lion::serve::make_session_config(lion::serve::parse_line(declare), cfg,
                                        error)) {
    std::fprintf(stderr, "bad declare '%s': %s\n", declare.c_str(),
                 error.c_str());
    std::exit(2);
  }
  return cfg.calibration;
}

std::pair<double, double> truth_errors(const lion::core::CalibrationReport& r,
                                       const Antenna& a) {
  const double center_mm =
      1e3 * lion::linalg::distance(r.center.estimated_center, a.true_center);
  const double offset_mrad =
      1e3 * lion::rf::circular_distance(r.phase_offset, a.true_offset);
  return {center_mm, offset_mrad};
}

std::string csv_row(const lion::sim::PhaseSample& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%.17g,%.17g,%.17g,%.17g,%.17g,%u,%.17g",
                s.position[0], s.position[1], s.position[2], s.phase,
                s.rssi_dbm, static_cast<unsigned>(s.channel), s.t);
  return buf;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double dump_spans(Json& out, const char* key) {
  out.open_array(key);
  for (const auto& e : lion::obs::trace_snapshot()) {
    out.open_array();
    out.str(nullptr, e.name);
    out.num(static_cast<double>(e.tid));
    out.num(static_cast<double>(e.start_ns));
    out.num(static_cast<double>(e.dur_ns));
    out.num(e.has_arg ? static_cast<double>(e.arg) : -1.0);
    out.close_array();
  }
  out.close_array();
  const auto dropped = static_cast<double>(lion::obs::trace_dropped());
  lion::obs::trace_reset();
  return dropped;
}

}  // namespace perfbench
