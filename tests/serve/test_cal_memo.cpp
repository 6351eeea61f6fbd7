// Conformance of the calibrate `!flush` memo.
//
// The contract under test (see session.hpp CalMemo and service.hpp):
//   - a calibrate `!flush` answers "memo" while the buffer is bitwise the
//     one the last full solve saw, and "fallback" (a scheduled full solve)
//     otherwise — a cold session, any append, a carved or mutated buffer;
//   - every report payload, memo or fallback, is byte-identical to a fresh
//     calibrate_antenna_robust over the same rows, whatever the status;
//   - the emitted byte stream is chunk-boundary and thread-count
//     invariant: the decision depends on the accepted lines only;
//   - `!stats`, `!healthz` and `/metrics` agree on
//     cal_flushes == cal_memo + cal_fallbacks;
//   - smoothing= is a calibrate-only declare option.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "io/csv.hpp"
#include "io/report_json.hpp"
#include "linalg/small.hpp"
#include "linalg/vec.hpp"
#include "obs/metrics.hpp"
#include "rf/phase_model.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/telemetry.hpp"
#include "serve/wire.hpp"
#include "sim/scenario.hpp"
#include "sim/trajectory.hpp"

namespace lion::serve {
namespace {

constexpr char kDeclare[] = "!session cal center=0.009,0.789,0.006 smoothing=1";

/// Clean three-line-rig scan: exact Eq. (1) phases from a slightly offset
/// physical center plus a constant cable offset, on a dt = 0.1 grid with
/// full rssi/channel/t columns.
std::vector<std::string> rig_rows() {
  sim::ThreeLineRig rig;
  rig.x_min = -0.55;
  rig.x_max = 0.55;
  const auto traj = rig.build();
  const linalg::Vec3 center{0.009, 0.789, 0.006};
  std::vector<std::string> rows;
  for (double t = 0.0; t <= traj.duration(); t += 0.1) {
    const auto p = traj.position(t);
    const double phase = rf::wrap_phase(
        rf::distance_phase(linalg::distance(center, p)) + 2.1);
    char buf[200];
    std::snprintf(buf, sizeof(buf), "%.17g,%.17g,%.17g,%.17g,-55,0,%.17g",
                  p[0], p[1], p[2], phase, t);
    rows.emplace_back(buf);
  }
  return rows;
}

/// Single-line scan (y = z = 0): 3D-degenerate on purpose, so the batch
/// pipeline reports a non-kOk status.
std::vector<std::string> line_rows(std::size_t n) {
  const linalg::Vec3 center{0.0, 0.8, 0.0};
  std::vector<std::string> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x =
        -0.5 + static_cast<double>(i) / static_cast<double>(n - 1);
    const linalg::Vec3 p{x, 0.0, 0.0};
    const double phase =
        rf::wrap_phase(rf::distance_phase(linalg::distance(center, p)));
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.17g,0,0,%.17g", x, phase);
    rows.emplace_back(buf);
  }
  return rows;
}

/// The samples the session's CSV parser accepts from the first `count`
/// rows.
std::vector<sim::PhaseSample> parsed(const std::vector<std::string>& rows,
                                     std::size_t count) {
  io::CsvStreamParser csv;
  std::vector<sim::PhaseSample> out;
  for (std::size_t i = 0; i < count; ++i) {
    const auto row = csv.push_line(rows[i]);
    if (row.status == io::CsvRowStatus::kSample) out.push_back(row.sample);
  }
  return out;
}

/// The `"report":{...}}` tail a fresh full solve over the first `count`
/// rows would serialize, with the session's declared configuration —
/// the bytes every flush answer must carry.
std::string batch_payload(const std::string& declare,
                          const std::vector<std::string>& rows,
                          std::size_t count) {
  SessionConfig cfg;
  std::string error;
  EXPECT_TRUE(make_session_config(parse_line(declare), cfg, error)) << error;
  return "\"report\":" +
         io::report_json(core::calibrate_antenna_robust(
             parsed(rows, count), cfg.center, cfg.calibration)) +
         "}";
}

struct Capture {
  std::mutex mu;
  std::vector<std::string> lines;
  StreamService::Sink sink() {
    return [this](std::string_view line) {
      std::lock_guard<std::mutex> lock(mu);
      lines.emplace_back(line);
    };
  }
};

std::vector<std::string> run_stream(const std::string& input,
                                    std::size_t chunk,
                                    const ServiceConfig& cfg = {}) {
  Capture cap;
  StreamService service(cfg, cap.sink());
  if (chunk == 0) {
    service.ingest_bytes(input);
  } else {
    for (std::size_t i = 0; i < input.size(); i += chunk) {
      service.ingest_bytes(input.substr(i, chunk));
    }
  }
  service.finish();
  return cap.lines;
}

std::vector<std::string> filter_reports(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const auto& l : lines) {
    if (l.find("\"schema\":\"lion.report.v1\"") != std::string::npos) {
      out.push_back(l);
    }
  }
  return out;
}

std::string source_of(const std::string& report_line) {
  const auto key = report_line.find("\"source\":\"");
  if (key == std::string::npos) return "";
  const auto start = key + 10;
  return report_line.substr(start, report_line.find('"', start) - start);
}

/// The serialized report payload, independent of envelope (seq, source).
std::string report_payload(const std::string& report_line) {
  const auto key = report_line.find("\"report\":");
  EXPECT_NE(key, std::string::npos) << report_line;
  if (key == std::string::npos) return "";
  return report_line.substr(key);
}

/// Value after `key` in `text`: a JSON `"name":`, or a Prometheus sample
/// `\nname ` (the newline skips the `# TYPE name kind` comment).
double number_after(const std::string& text, const std::string& key) {
  const auto pos = text.find(key);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << text;
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + key.size(), nullptr);
}

/// cold flush, memo, one appended row, flush, memo.
std::string progression_input(const std::vector<std::string>& rows) {
  std::string input = std::string(kDeclare) + "\n";
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) input += rows[i] + "\n";
  input += "!flush cal\n!flush cal\n";
  input += rows.back() + "\n";
  input += "!flush cal\n!flush cal\n";
  return input;
}

// ---------------------------------------------------------------------------
// Memo vs full solve, and byte-identity with the batch pipeline
// ---------------------------------------------------------------------------

TEST(IncrementalCalServe, SourceTagProgressesColdMemoFallbackMemo) {
  const auto rows = rig_rows();
  const auto reports = filter_reports(run_stream(progression_input(rows), 0));
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(source_of(reports[0]), "fallback");  // no memo yet
  EXPECT_EQ(source_of(reports[1]), "memo");      // unchanged buffer
  EXPECT_EQ(source_of(reports[2]), "fallback");  // one appended row
  EXPECT_EQ(source_of(reports[3]), "memo");      // the new memo

  const std::string before = batch_payload(kDeclare, rows, rows.size() - 1);
  const std::string after = batch_payload(kDeclare, rows, rows.size());
  ASSERT_NE(before, after);  // the appended row must move the answer
  EXPECT_EQ(report_payload(reports[0]), before);
  EXPECT_EQ(report_payload(reports[1]), before);
  EXPECT_EQ(report_payload(reports[2]), after);
  EXPECT_EQ(report_payload(reports[3]), after);
}

/// The rows before `base`, the flushes `flushes_before`, the rows from
/// `base` on, then the flushes `flushes_after`.
std::string append_input(const std::vector<std::string>& rows,
                         std::size_t base, const std::string& flushes_before,
                         const std::string& flushes_after) {
  std::string input = std::string(kDeclare) + "\n";
  for (std::size_t i = 0; i < base; ++i) input += rows[i] + "\n";
  input += flushes_before;
  for (std::size_t i = base; i < rows.size(); ++i) input += rows[i] + "\n";
  input += flushes_after;
  return input;
}

TEST(IncrementalCal, ColdFlushFallsBack) {
  // A fresh session has no memo: its first flush is a full solve.
  const auto rows = rig_rows();
  std::string input = std::string(kDeclare) + "\n";
  for (const auto& r : rows) input += r + "\n";
  input += "!flush cal\n!stats\n";
  const auto lines = run_stream(input, 0);
  const auto reports = filter_reports(lines);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(source_of(reports[0]), "fallback");
  EXPECT_EQ(report_payload(reports[0]),
            batch_payload(kDeclare, rows, rows.size()));
  const std::string& stats = lines.back();
  EXPECT_NE(stats.find("\"cal_fallbacks\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cal_memo\":0"), std::string::npos) << stats;
}

TEST(IncrementalCal, MemoFlushIsByteIdentical) {
  const auto rows = rig_rows();
  const auto stream = parsed(rows, rows.size());
  SessionConfig cfg;
  std::string error;
  ASSERT_TRUE(make_session_config(parse_line(kDeclare), cfg, error)) << error;
  const auto report =
      core::calibrate_antenna_robust(stream, cfg.center, cfg.calibration);
  ASSERT_EQ(report.status, core::CalibrationStatus::kOk);

  CalMemo memo;
  memo.install(stream.size(), cal_buffer_digest(stream),
               io::report_json(report));
  ASSERT_TRUE(memo.matches(stream));
  EXPECT_EQ(memo.report_json, io::report_json(report));
}

TEST(IncrementalCal, MemoServesNonOkAnchorsToo) {
  // The memo rests on pipeline determinism alone, so even a
  // degenerate-geometry report is memoizable byte-for-byte.
  std::vector<sim::PhaseSample> stream(100);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i].t = 0.01 * static_cast<double>(i);
    stream[i].position = {0.1, 0.2, 0.0};
    stream[i].phase = 1.0;
  }
  const auto report =
      core::calibrate_antenna_robust(stream, linalg::Vec3{0.0, 0.8, 0.0});
  ASSERT_EQ(report.status, core::CalibrationStatus::kDegenerateGeometry);
  CalMemo memo;
  memo.install(stream.size(), cal_buffer_digest(stream),
               io::report_json(report));
  ASSERT_TRUE(memo.matches(stream));
  EXPECT_EQ(memo.report_json, io::report_json(report));
}

TEST(IncrementalCal, WarmAppendFlushIsByteIdenticalToBatch) {
  // A flush after a multi-row append onto an anchored buffer re-solves
  // the whole buffer: the batch answer, not the anchor's.
  const auto rows = rig_rows();
  const std::size_t base = rows.size() - rows.size() / 10;
  const auto reports = filter_reports(
      run_stream(append_input(rows, base, "!flush cal\n", "!flush cal\n"), 0));
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(source_of(reports[0]), "fallback");
  EXPECT_EQ(source_of(reports[1]), "fallback");
  const std::string full = batch_payload(kDeclare, rows, rows.size());
  ASSERT_NE(report_payload(reports[0]), full);
  EXPECT_EQ(report_payload(reports[1]), full);
}

TEST(IncrementalCal, WarmFlushIsDeterministicAcrossRepeats) {
  // Repeated flushes after an append: one full solve, then memo answers
  // carrying the same bytes.
  const auto rows = rig_rows();
  const std::size_t base = rows.size() - rows.size() / 12;
  const auto reports = filter_reports(run_stream(
      append_input(rows, base, "!flush cal\n",
                   "!flush cal\n!flush cal\n!flush cal\n"),
      0));
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(source_of(reports[1]), "fallback");
  EXPECT_EQ(source_of(reports[2]), "memo");
  EXPECT_EQ(source_of(reports[3]), "memo");
  EXPECT_EQ(report_payload(reports[2]), report_payload(reports[1]));
  EXPECT_EQ(report_payload(reports[3]), report_payload(reports[1]));
  EXPECT_EQ(report_payload(reports[1]),
            batch_payload(kDeclare, rows, rows.size()));
}

TEST(IncrementalCalServe, WarmReportIsByteIdenticalToBatch) {
  // The append flush of an anchored session and the only flush of a fresh
  // session over the same rows ship the same payload.
  const auto rows = rig_rows();
  const std::size_t base = rows.size() - rows.size() / 10;
  const auto anchored = filter_reports(
      run_stream(append_input(rows, base, "!flush cal\n", "!flush cal\n"), 0));
  ASSERT_EQ(anchored.size(), 2u);
  ASSERT_EQ(source_of(anchored[1]), "fallback");

  std::string fresh_input = std::string(kDeclare) + "\n";
  for (const auto& r : rows) fresh_input += r + "\n";
  fresh_input += "!flush cal\n";
  const auto fresh = filter_reports(run_stream(fresh_input, 0));
  ASSERT_EQ(fresh.size(), 1u);
  ASSERT_EQ(source_of(fresh[0]), "fallback");

  EXPECT_EQ(report_payload(anchored[1]), report_payload(fresh[0]));
}

TEST(IncrementalCalServe, DegradedAnchorTripsStatusGateButMemoStillAnswers) {
  // A non-ok anchor is memoized like any other; an append onto it
  // re-solves.
  const auto rows = line_rows(120);
  const std::string declare = "!session line center=0,0.8,0 smoothing=1";
  std::string input = declare + "\n";
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) input += rows[i] + "\n";
  input += "!flush line\n";  // full solve; a non-kOk (degenerate) report
  input += "!flush line\n";  // unchanged buffer -> memo, any status
  input += rows.back() + "\n";
  input += "!flush line\n";  // appended row -> full solve again
  input += "!stats\n";

  const auto lines = run_stream(input, 0);
  const auto reports = filter_reports(lines);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(source_of(reports[0]), "fallback");
  EXPECT_EQ(source_of(reports[1]), "memo");
  EXPECT_EQ(source_of(reports[2]), "fallback");
  const std::string anchor = batch_payload(declare, rows, rows.size() - 1);
  ASSERT_EQ(anchor.find("\"status\":\"ok\""), std::string::npos) << anchor;
  EXPECT_EQ(report_payload(reports[0]), anchor);
  EXPECT_EQ(report_payload(reports[1]), anchor);
  EXPECT_EQ(report_payload(reports[2]),
            batch_payload(declare, rows, rows.size()));

  const std::string& stats = lines.back();
  EXPECT_NE(stats.find("\"cal_memo\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cal_fallbacks\":2"), std::string::npos) << stats;
}

TEST(IncrementalCal, ResetReturnsToCold) {
  // A closed session takes its memo with it: re-declaring the same id with
  // another smoothing width over the same rows must solve afresh.
  const auto rows = rig_rows();
  const std::string redeclare = "!session cal center=0.009,0.789,0.006";
  std::string input = std::string(kDeclare) + "\n";
  for (const auto& r : rows) input += r + "\n";
  input += "!flush cal\n!close cal\n";  // close == final flush: memo
  input += redeclare + "\n";
  for (const auto& r : rows) input += r + "\n";
  input += "!flush cal\n";

  const auto reports = filter_reports(run_stream(input, 0));
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(source_of(reports[0]), "fallback");
  EXPECT_EQ(source_of(reports[1]), "memo");
  EXPECT_EQ(source_of(reports[2]), "fallback");
  const std::string fresh = batch_payload(redeclare, rows, rows.size());
  ASSERT_NE(fresh, report_payload(reports[0]));
  EXPECT_EQ(report_payload(reports[2]), fresh);
}

TEST(IncrementalCalServe, FlushStreamIsChunkAndThreadInvariant) {
  const std::string input = progression_input(rig_rows());
  const auto whole = run_stream(input, 0);
  ASSERT_FALSE(whole.empty());
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    EXPECT_EQ(run_stream(input, chunk), whole) << "chunk " << chunk;
  }
  ServiceConfig one;
  one.threads = 1;
  EXPECT_EQ(run_stream(input, 0, one), whole);
}

// ---------------------------------------------------------------------------
// The memo decision itself
// ---------------------------------------------------------------------------

TEST(IncrementalCal, CarveTripsOnTruncationAndOnPrefixMutation) {
  const auto rows = rig_rows();
  const auto stream = parsed(rows, rows.size());
  ASSERT_GT(stream.size(), 10u);
  CalMemo memo;
  EXPECT_FALSE(memo.matches(stream));  // nothing installed yet
  memo.install(stream.size(), cal_buffer_digest(stream),
               io::report_json(core::CalibrationReport{}));
  EXPECT_TRUE(memo.matches(stream));

  auto truncated = stream;
  truncated.pop_back();
  EXPECT_FALSE(memo.matches(truncated));

  auto appended = stream;
  appended.push_back(stream.back());
  EXPECT_FALSE(memo.matches(appended));

  // Same size, one early sample rewritten: only the digest can tell.
  auto mutated = stream;
  mutated[3].phase += 1e-9;
  EXPECT_FALSE(memo.matches(mutated));
}

TEST(IncrementalCal, DigestDetectsEveryFieldFlip) {
  const auto rows = rig_rows();
  const auto stream = parsed(rows, rows.size());
  const auto base = cal_buffer_digest(stream);
  auto flip = [&](auto mutate) {
    auto copy = stream;
    mutate(copy[copy.size() / 3]);
    return cal_buffer_digest(copy);
  };
  EXPECT_NE(base, flip([](sim::PhaseSample& s) { s.t += 1e-12; }));
  EXPECT_NE(base, flip([](sim::PhaseSample& s) { s.position[1] += 1e-12; }));
  EXPECT_NE(base, flip([](sim::PhaseSample& s) { s.phase += 1e-12; }));
  EXPECT_NE(base, flip([](sim::PhaseSample& s) { s.rssi_dbm += 1.0; }));
  EXPECT_NE(base, flip([](sim::PhaseSample& s) { s.channel += 1; }));
  // Bitwise, not numeric: -0.0 differs from 0.0 (position[2] is 0.0 on L1).
  EXPECT_NE(base, flip([](sim::PhaseSample& s) { s.position[2] = -0.0; }));
  // Order-dependent: swapping two samples changes the digest.
  auto swapped = stream;
  std::swap(swapped[1], swapped[2]);
  EXPECT_NE(base, cal_buffer_digest(swapped));
}

TEST(IncrementalCal, AnchorLineRoundTripsTheMemo) {
  const auto rows = rig_rows();
  const auto stream = parsed(rows, rows.size());
  CalMemo memo;
  memo.install(stream.size(), cal_buffer_digest(stream),
               io::report_json(core::CalibrationReport{}));
  const std::string line = cal_anchor_line(memo);
  // `<samples> <16 hex digits> <json>`: the digest keeps its leading zeros.
  EXPECT_EQ(line.substr(0, line.find(' ')), std::to_string(stream.size()));
  EXPECT_EQ(line.find(' ', line.find(' ') + 1) - line.find(' '), 17u);

  const auto anchor = parse_cal_anchor(line);
  ASSERT_TRUE(anchor.has_value());
  EXPECT_TRUE(anchor->has_report);
  EXPECT_EQ(anchor->samples, memo.samples);
  EXPECT_EQ(anchor->digest, memo.digest);
  EXPECT_EQ(anchor->report_json, memo.report_json);

  memo.digest = 0x00000000000000abULL;
  const auto small = parse_cal_anchor(cal_anchor_line(memo));
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->digest, 0xabULL);
}

TEST(IncrementalCal, AnchorWithoutDigestAndReportIsBare) {
  // Older daemons journaled the bare sample count; a tail that is not
  // ` <16 hex> <json>` gets the same treatment (restore re-solves).
  for (const char* line :
       {"4476", "4476 ", "4476 00112233445566", "4476 0011223344556677",
        "4476 0011223344556677 ", "4476 00112233445566zz {}",
        "4476 -011223344556677 {}", "4476x0011223344556677 {}"}) {
    SCOPED_TRACE(line);
    const auto anchor = parse_cal_anchor(line);
    ASSERT_TRUE(anchor.has_value());
    EXPECT_EQ(anchor->samples, 4476u);
    EXPECT_FALSE(anchor->has_report);
  }
  for (const char* line : {"", " 4476", "x", "-1"}) {
    SCOPED_TRACE(line);
    EXPECT_FALSE(parse_cal_anchor(line).has_value());
  }
}

TEST(IncrementalCal, BatchPipelineIsPureAcrossWorkspaceReuse) {
  // The memo rests on pipeline purity: the same buffer must serialize
  // identically through a cold call and a reused-workspace call.
  const linalg::Vec3 physical{0.0, 0.8, 0.0};
  auto scenario = sim::Scenario::Builder{}
                      .environment(sim::EnvironmentKind::kLabTypical)
                      .add_antenna(physical)
                      .add_tag()
                      .seed(7)
                      .build();
  sim::ThreeLineRig rig;
  rig.x_min = -0.55;
  rig.x_max = 0.55;
  const auto stream = scenario.sweep(0, 0, rig.build());
  linalg::SolverWorkspace ws;
  const auto warm1 = core::calibrate_antenna_robust(stream, physical, {}, &ws);
  const auto warm2 = core::calibrate_antenna_robust(stream, physical, {}, &ws);
  const auto cold = core::calibrate_antenna_robust(stream, physical);
  EXPECT_EQ(io::report_json(warm1), io::report_json(cold));
  EXPECT_EQ(io::report_json(warm2), io::report_json(cold));
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST(IncrementalCalServe, CalCountersAgreeAcrossStatsHealthzAndMetrics) {
  // The daemon enables the registry whenever the scrape plane is up; its
  // families must not collide with the service-rendered ones.
  struct MetricsOn {
    MetricsOn() { obs::set_metrics_enabled(true); }
    ~MetricsOn() { obs::set_metrics_enabled(false); }
  } metrics_on;
  Capture cap;
  StreamService service(ServiceConfig{}, cap.sink());
  service.ingest_bytes(progression_input(rig_rows()) + "!stats\n!healthz\n");
  service.drain();
  const std::string metrics =
      render_metrics_body({service.telemetry()}, nullptr);
  service.finish();

  std::string stats, health;
  for (const auto& l : cap.lines) {
    if (l.find("\"schema\":\"lion.stats.v1\"") != std::string::npos) stats = l;
    if (l.find("\"schema\":\"lion.health.v1\"") != std::string::npos) {
      health = l;
    }
  }
  ASSERT_FALSE(stats.empty());
  ASSERT_FALSE(health.empty());

  for (const std::string& json : {stats, health}) {
    const double flushes = number_after(json, "\"cal_flushes\":");
    const double memo = number_after(json, "\"cal_memo\":");
    const double fallbacks = number_after(json, "\"cal_fallbacks\":");
    EXPECT_EQ(flushes, 4.0) << json;
    EXPECT_EQ(memo, 2.0) << json;
    EXPECT_EQ(flushes, memo + fallbacks) << json;
    EXPECT_EQ(json.find("cal_incremental"), std::string::npos) << json;
    EXPECT_EQ(json.find("cal_fb_"), std::string::npos) << json;
  }
  const double flushes = number_after(metrics, "\nlion_serve_cal_flushes_total ");
  const double memo = number_after(metrics, "\nlion_serve_cal_memo_total ");
  const double fallbacks =
      number_after(metrics, "\nlion_serve_cal_fallbacks_total ");
  EXPECT_EQ(flushes, 4.0);
  EXPECT_EQ(flushes, memo + fallbacks);
  EXPECT_EQ(number_after(metrics, "\nlion_serve_cal_fallback_ratio "), 0.5);
  EXPECT_EQ(metrics.find("cal_incremental"), std::string::npos);
  EXPECT_EQ(metrics.find("by_reason"), std::string::npos);
  for (const char* family :
       {"lion_serve_cal_flushes_total", "lion_serve_cal_memo_total",
        "lion_serve_cal_fallbacks_total", "lion_serve_cal_fallback_ratio"}) {
    const std::string type_line = std::string("# TYPE ") + family + " ";
    EXPECT_EQ(metrics.find(type_line), metrics.rfind(type_line))
        << family << " rendered twice";
  }
}

TEST(IncrementalCalServe, HealthzCarriesCalCountersAndRatio) {
  const auto lines = run_stream(progression_input(rig_rows()) + "!healthz\n", 0);
  ASSERT_FALSE(lines.empty());
  const std::string& health = lines.back();
  ASSERT_NE(health.find("\"schema\":\"lion.health.v1\""), std::string::npos)
      << health;
  EXPECT_NE(health.find("\"cal_flushes\":4"), std::string::npos) << health;
  EXPECT_NE(health.find("\"cal_memo\":2"), std::string::npos) << health;
  EXPECT_NE(health.find("\"cal_fallbacks\":2"), std::string::npos) << health;
  EXPECT_NE(health.find("\"cal_fallback_ratio\":0.5"), std::string::npos)
      << health;
}

// ---------------------------------------------------------------------------
// Declare validation
// ---------------------------------------------------------------------------

TEST(IncrementalCalServe, SmoothingIsACalibrateOnlyOption) {
  const auto lines = run_stream(
      "!session trk mode=track center=0,0,0 dir=1,0,0 speed=1 "
      "window=1000 hop=500 smoothing=1\n",
      0);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"schema\":\"lion.error.v1\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("smoothing"), std::string::npos) << lines[0];
}

TEST(IncrementalCalServe, MalformedSmoothingValueIsAnError) {
  const auto lines =
      run_stream("!session cal center=0,0.8,0 smoothing=banana\n", 0);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"schema\":\"lion.error.v1\""), std::string::npos)
      << lines[0];
}

}  // namespace
}  // namespace lion::serve
