#include "serve/session.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <system_error>
#include <utility>

#include "obs/json.hpp"

namespace lion::serve {

namespace {

void append_vec(std::string& out, const Vec3& v) {
  out.push_back('[');
  obs::append_json_number(out, v[0]);
  out.push_back(',');
  obs::append_json_number(out, v[1]);
  out.push_back(',');
  obs::append_json_number(out, v[2]);
  out.push_back(']');
}

std::string envelope(const char* schema, const std::string& session,
                     std::uint64_t seq) {
  std::string out = "{\"schema\":\"";
  out += schema;
  out += "\",\"session\":\"";
  out += obs::json_escape(session);
  out += "\",\"seq\":";
  out += std::to_string(seq);
  return out;
}

}  // namespace

bool make_session_config(const ParsedLine& line, SessionConfig& out,
                         std::string& error) {
  SessionConfig cfg;
  cfg.mode = line.mode;
  if (!line.center) {
    error = "session requires center=x,y,z (physical center for calibrate, "
            "phase center for track)";
    return false;
  }
  cfg.center = *line.center;
  if (line.wavelength) {
    cfg.calibration.adaptive.base.wavelength = *line.wavelength;
    cfg.localizer.wavelength = *line.wavelength;
  }
  if (cfg.mode == SessionMode::kTrack) {
    if (line.direction) cfg.belt_direction = *line.direction;
    if (cfg.belt_direction.norm() == 0.0) {
      error = "track session: belt direction must be non-zero";
      return false;
    }
    cfg.belt_direction = cfg.belt_direction.normalized();
    if (line.speed) cfg.belt_speed = *line.speed;
    if (line.window) cfg.window = *line.window;
    if (line.hop) cfg.hop = *line.hop;
    if (cfg.window < 8) {
      error = "track session: window must be >= 8 samples";
      return false;
    }
    if (cfg.hop == 0) {
      error = "track session: hop must be positive";
      return false;
    }
    cfg.localizer.target_dim = line.dim.value_or(2);
    cfg.localizer.side_hint = line.hint;
    if (line.smoothing) {
      error = "track session: smoothing= is a calibrate option";
      return false;
    }
  } else {
    // Calibrate-mode sessions take no tracker knobs: rejecting them loudly
    // beats silently ignoring a client's window=... typo.
    if (line.direction || line.speed || line.window || line.hop ||
        line.dim || line.hint) {
      error =
          "calibrate session accepts only center=, wavelength= and "
          "smoothing=";
      return false;
    }
    if (line.smoothing) {
      cfg.calibration.preprocess.smoothing_window = *line.smoothing;
    }
  }
  out = cfg;
  return true;
}

core::IncrementalTrackConfig incremental_config(const SessionConfig& config) {
  core::IncrementalTrackConfig out;
  out.antenna_phase_center = config.center;
  out.belt_direction = config.belt_direction;
  out.belt_speed = config.belt_speed;
  out.wavelength = config.localizer.wavelength;
  out.pair_interval = config.localizer.pair_interval;
  out.pair_tolerance = config.localizer.pair_tolerance;
  out.side_hint = config.localizer.side_hint;
  out.ransac = config.localizer.ransac;
  return out;
}

core::TrackFix solve_track_window(
    const std::vector<sim::PhaseSample>& window_samples,
    const SessionConfig& config) {
  core::TrackFix fix;
  if (window_samples.empty()) return fix;
  fix.t = window_samples.back().t;
  try {
    core::TrackerConfig tc;
    tc.antenna_phase_center = config.center;
    tc.belt_direction = config.belt_direction;
    tc.belt_speed = config.belt_speed;
    tc.window = window_samples.size();
    tc.hop = window_samples.size();
    tc.localizer = config.localizer;
    core::ConveyorTracker tracker(tc);
    for (const auto& s : window_samples) {
      if (const auto emitted = tracker.push(s)) return *emitted;
    }
  } catch (const std::exception&) {
    fix.valid = false;
  }
  return fix;
}

std::uint64_t cal_buffer_digest(const sim::PhaseSample* samples,
                                std::size_t count) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix64 = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  const auto mixd = [&mix64](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    mix64(bits);
  };
  for (std::size_t i = 0; i < count; ++i) {
    const sim::PhaseSample& s = samples[i];
    mixd(s.t);
    mixd(s.position[0]);
    mixd(s.position[1]);
    mixd(s.position[2]);
    mixd(s.phase);
    mixd(s.rssi_dbm);
    mix64(s.channel);
  }
  return h;
}

std::uint64_t cal_buffer_digest(const std::vector<sim::PhaseSample>& buffer) {
  return cal_buffer_digest(buffer.data(), buffer.size());
}

void CalMemo::install(std::size_t solved_samples, std::uint64_t solved_digest,
                      std::string solved_json) {
  valid = true;
  samples = solved_samples;
  digest = solved_digest;
  report_json = std::move(solved_json);
}

bool CalMemo::matches(const std::vector<sim::PhaseSample>& buffer) const {
  return valid && buffer.size() == samples &&
         cal_buffer_digest(buffer) == digest;
}

std::string cal_anchor_line(const CalMemo& memo) {
  char head[48];
  const int n = std::snprintf(head, sizeof head, "%zu %016llx ", memo.samples,
                              static_cast<unsigned long long>(memo.digest));
  std::string out(head, static_cast<std::size_t>(n));
  out += memo.report_json;
  return out;
}

std::optional<CalAnchor> parse_cal_anchor(std::string_view line) {
  CalAnchor out;
  const char* const end = line.data() + line.size();
  const auto count = std::from_chars(line.data(), end, out.samples);
  if (count.ec != std::errc()) return std::nullopt;
  // ` <16 hex> <json>`: anything else after the count is a bare anchor.
  std::string_view rest(count.ptr, static_cast<std::size_t>(end - count.ptr));
  constexpr std::size_t kHex = 16;
  if (rest.size() < kHex + 3 || rest[0] != ' ' || rest[kHex + 1] != ' ') {
    return out;
  }
  const char* const hex = rest.data() + 1;
  const auto digest = std::from_chars(hex, hex + kHex, out.digest, 16);
  if (digest.ec != std::errc() || digest.ptr != hex + kHex) return out;
  out.has_report = true;
  out.report_json = rest.substr(kHex + 2);
  return out;
}

std::string report_response(const std::string& session, std::uint64_t seq,
                            std::string_view report_json,
                            const char* source) {
  std::string out = envelope("lion.report.v1", session, seq);
  out += ",\"source\":\"";
  out += source;
  out += "\",\"report\":";
  out += report_json;
  out.push_back('}');
  return out;
}

std::string fix_response(const std::string& session, std::uint64_t seq,
                         std::uint64_t window_index,
                         const core::TrackFix& fix) {
  std::string out = envelope("lion.fix.v1", session, seq);
  out += ",\"window\":";
  out += std::to_string(window_index);
  out += ",\"t\":";
  obs::append_json_number(out, fix.t);
  out += ",\"start\":";
  append_vec(out, fix.start);
  out += ",\"position\":";
  append_vec(out, fix.position);
  out += ",\"sigma\":";
  obs::append_json_number(out, fix.sigma);
  out += ",\"mean_residual\":";
  obs::append_json_number(out, fix.mean_residual);
  out += ",\"valid\":";
  out += fix.valid ? "true" : "false";
  out.push_back('}');
  return out;
}

std::string tick_response(const std::string& session, std::uint64_t seq,
                          std::uint64_t tick_index, const core::TrackFix& fix,
                          std::size_t rows, const char* source) {
  std::string out = envelope("lion.tick.v1", session, seq);
  out += ",\"tick\":";
  out += std::to_string(tick_index);
  out += ",\"t\":";
  obs::append_json_number(out, fix.t);
  out += ",\"start\":";
  append_vec(out, fix.start);
  out += ",\"position\":";
  append_vec(out, fix.position);
  out += ",\"sigma\":";
  obs::append_json_number(out, fix.sigma);
  out += ",\"rms\":";
  obs::append_json_number(out, fix.mean_residual);
  out += ",\"rows\":";
  out += std::to_string(rows);
  out += ",\"source\":\"";
  out += source;
  out += "\",\"valid\":";
  out += fix.valid ? "true" : "false";
  out.push_back('}');
  return out;
}

std::string error_response(const std::string& session, std::uint64_t seq,
                           const std::string& code,
                           const std::string& detail) {
  std::string out = envelope("lion.error.v1", session, seq);
  out += ",\"code\":\"";
  out += obs::json_escape(code);
  out += "\",\"detail\":\"";
  out += obs::json_escape(detail);
  out += "\"}";
  return out;
}

std::string event_response(std::uint64_t seq, const std::string& event,
                           const std::string& session, std::uint64_t value) {
  std::string out = "{\"schema\":\"lion.event.v1\",\"seq\":";
  out += std::to_string(seq);
  out += ",\"event\":\"";
  out += obs::json_escape(event);
  out += "\",\"session\":\"";
  out += obs::json_escape(session);
  out += "\",\"value\":";
  out += std::to_string(value);
  out.push_back('}');
  return out;
}

std::string trace_response(const std::string& session,
                           const std::vector<SpanRecord>& spans) {
  std::string out = "{\"schema\":\"lion.trace.v1\",\"session\":\"";
  out += obs::json_escape(session);
  out += "\",\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i) out.push_back(',');
    const SpanRecord& s = spans[i];
    out += "{\"trace\":";
    out += std::to_string(s.trace_id);
    out += ",\"stage\":\"";
    out += obs::stage_name(s.stage);
    out += "\",\"start_ns\":";
    out += std::to_string(s.start_ns);
    out += ",\"dur_ns\":";
    out += std::to_string(s.dur_ns);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::string restore_response(const std::string& session,
                             std::uint64_t records, std::uint64_t samples,
                             std::uint64_t flushes, bool torn) {
  std::string out = "{\"schema\":\"lion.restore.v1\",\"session\":\"";
  out += obs::json_escape(session);
  out += "\",\"records\":";
  out += std::to_string(records);
  out += ",\"samples\":";
  out += std::to_string(samples);
  out += ",\"flushes\":";
  out += std::to_string(flushes);
  out += ",\"torn\":";
  out += torn ? "true" : "false";
  out.push_back('}');
  return out;
}

}  // namespace lion::serve
