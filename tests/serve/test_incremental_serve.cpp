// Serve-level conformance of the `!tick <id>` incremental pose path.
//
// The contract under test (see service.hpp "Determinism contract"):
//   - the emitted byte stream with pose ticks stays independent of chunk
//     boundaries ({1, 7, 4096, whole-stream} splits) and pool thread
//     count, across seeded interleavings of data / tick / flush lines;
//   - a fallback tick is byte-identical to the full-pipeline window solve
//     serialized through tick_response (source="fallback");
//   - an incremental tick is byte-identical to a locally mirrored
//     core::IncrementalTrackSolver fed the same accepted samples through
//     the same window mutations (push / carve-retire / flush-clear) —
//     including after window carving, the eviction-downdate regression;
//   - pose ticks on unknown or calibrate sessions answer errors;
//   - idle eviction destroys incremental state: a re-declared session
//     ticks as a fresh solver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "rf/constants.hpp"
#include "rf/phase_model.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"

namespace lion::serve {
namespace {

constexpr char kDeclare[] =
    "!session trk mode=track center=0,0,0 dir=1,0,0 speed=1 "
    "window=1000 hop=500 hint=-1,0.6,0";

/// Geometry matching kDeclare: tag from (-1, 0.6, 0) down the x belt at
/// 1 m/s, antenna at the origin, 100 Hz reads, exact Eq. (1) phases.
std::string track_row(int i) {
  const double t = 0.01 * i;
  const double x = -1.0 + t;
  const double d = std::sqrt(x * x + 0.6 * 0.6);
  const double phase = rf::wrap_phase(rf::distance_phase(d));
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"session\":\"trk\",\"x\":0,\"y\":0,\"z\":0,"
                "\"phase\":%.17g,\"t\":%.17g}",
                phase, t);
  return buf;
}

SessionConfig config_from_declare(const std::string& declare) {
  const ParsedLine parsed = parse_line(declare);
  SessionConfig cfg;
  std::string error;
  EXPECT_TRUE(make_session_config(parsed, cfg, error)) << error;
  return cfg;
}

std::vector<sim::PhaseSample> parsed_samples(
    const std::vector<std::string>& rows) {
  std::vector<sim::PhaseSample> out;
  for (const auto& row : rows) {
    const ParsedLine parsed = parse_line(row);
    EXPECT_TRUE(parsed.json_sample.has_value()) << row;
    if (parsed.json_sample) out.push_back(*parsed.json_sample);
  }
  return out;
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

// ---------------------------------------------------------------------------
// Chunk / thread invariance
// ---------------------------------------------------------------------------

TEST(IncrementalServe, TickStreamIsChunkInvariant) {
  std::string input = std::string(kDeclare) + "\n";
  for (int i = 0; i < 220; ++i) {
    input += track_row(i);
    input += "\n";
    if (i % 40 == 39) input += "!tick trk\n";
  }
  input += "!flush trk\n!tick trk\n";

  const auto whole = run_stream(input, 0);
  ASSERT_FALSE(whole.empty());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    EXPECT_EQ(run_stream(input, chunk), whole) << "chunk " << chunk;
  }
}

TEST(IncrementalServe, SeededInterleavingsAreThreadCountInvariant) {
  // >= 200 seeded interleavings of append / tick / flush, each compared
  // across pool sizes (and a byte-chunked re-run of the first few).
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    std::string input = std::string(kDeclare) + "\n";
    int row = 0;
    for (int op = 0; op < 40; ++op) {
      const std::uint64_t dice = next() % 10;
      if (dice < 7) {
        const int burst = 1 + static_cast<int>(next() % 12);
        for (int i = 0; i < burst; ++i) {
          input += track_row(row++);
          input += "\n";
        }
      } else if (dice < 9) {
        input += "!tick trk\n";
      } else {
        input += "!flush trk\n";
      }
    }
    ServiceConfig one;
    one.threads = 1;
    ServiceConfig four;
    four.threads = 4;
    const auto base = run_stream(input, 0, one);
    EXPECT_EQ(run_stream(input, 0, four), base) << "seed " << seed;
    if (seed < 8) {
      EXPECT_EQ(run_stream(input, 7, four), base) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Byte-identity of both tick sources
// ---------------------------------------------------------------------------

TEST(IncrementalServe, FallbackTickIsByteIdenticalToWindowSolve) {
  // 15 samples span 0.15 m of arc < pair_interval: zero rows, so the tick
  // must take the fallback path — the full-pipeline solve of the current
  // window, serialized with source="fallback" and rows=0.
  std::vector<std::string> rows;
  for (int i = 0; i < 15; ++i) rows.push_back(track_row(i));

  std::string input = std::string(kDeclare) + "\n";
  for (const auto& r : rows) input += r + "\n";
  input += "!tick trk\n";
  const auto lines = run_stream(input, 0);
  ASSERT_EQ(lines.size(), 1u);

  const SessionConfig cfg = config_from_declare(kDeclare);
  const core::TrackFix fix =
      solve_track_window(parsed_samples(rows), cfg);
  EXPECT_EQ(lines[0], tick_response("trk", 0, 0, fix, 0, "fallback"));
  EXPECT_NE(lines[0].find("\"source\":\"fallback\""), std::string::npos);
}

TEST(IncrementalServe, IncrementalTickIsByteIdenticalToMirroredSolver) {
  std::vector<std::string> rows;
  for (int i = 0; i < 120; ++i) rows.push_back(track_row(i));

  std::string input = std::string(kDeclare) + "\n";
  for (const auto& r : rows) input += r + "\n";
  input += "!tick trk\n";
  const auto lines = run_stream(input, 0);
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_NE(lines[0].find("\"source\":\"incremental\""), std::string::npos)
      << lines[0];

  const SessionConfig cfg = config_from_declare(kDeclare);
  core::IncrementalTrackSolver mirror(incremental_config(cfg));
  for (const auto& s : parsed_samples(rows)) mirror.push(s);
  const core::TickResult tick = mirror.tick();
  ASSERT_TRUE(tick.valid);
  core::TrackFix fix;
  fix.t = tick.t;
  fix.start = tick.start;
  fix.position = tick.position;
  fix.sigma = tick.sigma;
  fix.mean_residual = tick.rms;
  fix.valid = true;
  EXPECT_EQ(lines[0],
            tick_response("trk", 0, 0, fix, tick.rows, "incremental"));
}

// Eviction-downdate regression: rows carved out of the window by the hop
// must have left the incremental normal equations via downdate, so a tick
// after several carves matches a mirror that replayed the same carving.
TEST(IncrementalServe, TickAfterWindowCarvesMatchesMirroredRetires) {
  constexpr char kCarving[] =
      "!session trk mode=track center=0,0,0 dir=1,0,0 speed=1 "
      "window=64 hop=32 hint=-1,0.6,0";
  std::vector<std::string> rows;
  for (int i = 0; i < 200; ++i) rows.push_back(track_row(i));

  std::string input = std::string(kCarving) + "\n";
  for (const auto& r : rows) input += r + "\n";
  input += "!tick trk\n";
  const auto lines = run_stream(input, 0);
  ASSERT_GE(lines.size(), 2u);  // carved-window fixes, then the tick
  const std::string& tick_line = lines.back();
  ASSERT_NE(tick_line.find("\"schema\":\"lion.tick.v1\""),
            std::string::npos);
  ASSERT_NE(tick_line.find("\"source\":\"incremental\""), std::string::npos)
      << tick_line;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"schema\":\"lion.fix.v1\""), std::string::npos)
        << lines[i];
  }

  // Mirror the service's window mutations exactly: push every accepted
  // sample; when the buffer reaches `window`, carve `hop` via retire.
  const SessionConfig cfg = config_from_declare(kCarving);
  core::IncrementalTrackSolver mirror(incremental_config(cfg));
  std::size_t buffered = 0;
  for (const auto& s : parsed_samples(rows)) {
    mirror.push(s);
    if (++buffered >= cfg.window) {
      mirror.retire(cfg.hop);
      buffered -= cfg.hop;
    }
  }
  const core::TickResult tick = mirror.tick();
  ASSERT_TRUE(tick.valid);
  core::TrackFix fix;
  fix.t = tick.t;
  fix.start = tick.start;
  fix.position = tick.position;
  fix.sigma = tick.sigma;
  fix.mean_residual = tick.rms;
  fix.valid = true;
  const std::uint64_t seq = lines.size() - 1;  // one seq per fix before it
  EXPECT_EQ(tick_line,
            tick_response("trk", seq, 0, fix, tick.rows, "incremental"));
}

// ---------------------------------------------------------------------------
// Error paths and lifecycle
// ---------------------------------------------------------------------------

TEST(IncrementalServe, TickOnUnknownOrCalibrateSessionErrors) {
  Capture cap;
  StreamService service(ServiceConfig{}, cap.sink());
  service.ingest_line("!tick nosuch");
  service.ingest_line("!session cal center=0,0.8,0");
  service.ingest_line("!tick cal");
  service.finish();
  ASSERT_EQ(cap.lines.size(), 2u);
  EXPECT_NE(cap.lines[0].find("\"code\":\"unknown_session\""),
            std::string::npos)
      << cap.lines[0];
  EXPECT_NE(cap.lines[1].find("\"code\":\"bad_control\""), std::string::npos)
      << cap.lines[1];

  const auto stats = service.stats();
  EXPECT_EQ(stats[ServeCounter::kPoseTicks], 0u);
  EXPECT_EQ(stats[ServeCounter::kErrors], 2u);
}

TEST(IncrementalServe, StatsCountBothTickPaths) {
  Capture cap;
  StreamService service(ServiceConfig{}, cap.sink());
  service.ingest_line(kDeclare);
  service.ingest_line("!tick trk");  // no samples: fallback
  for (int i = 0; i < 120; ++i) service.ingest_line(track_row(i));
  service.ingest_line("!tick trk");  // warm: incremental
  service.ingest_line("!stats");
  service.finish();

  const auto stats = service.stats();
  EXPECT_EQ(stats[ServeCounter::kPoseTicks], 2u);
  EXPECT_EQ(stats[ServeCounter::kTickFallbacks], 1u);
  bool saw_stats = false;
  for (const auto& line : cap.lines) {
    if (line.find("\"schema\":\"lion.stats.v1\"") == std::string::npos) {
      continue;
    }
    saw_stats = true;
    EXPECT_NE(line.find("\"pose_ticks\":2"), std::string::npos) << line;
    EXPECT_NE(line.find("\"tick_fallbacks\":1"), std::string::npos) << line;
  }
  EXPECT_TRUE(saw_stats);
}

TEST(IncrementalServe, FlushClearsIncrementalState) {
  Capture cap;
  StreamService service(ServiceConfig{}, cap.sink());
  service.ingest_line(kDeclare);
  for (int i = 0; i < 120; ++i) service.ingest_line(track_row(i));
  service.ingest_line("!flush trk");
  service.ingest_line("!tick trk");  // drained window: must fall back
  service.finish();
  bool saw_fallback_tick = false;
  for (const auto& line : cap.lines) {
    if (line.find("\"schema\":\"lion.tick.v1\"") == std::string::npos) {
      continue;
    }
    EXPECT_NE(line.find("\"source\":\"fallback\""), std::string::npos)
        << line;
    saw_fallback_tick = true;
  }
  EXPECT_TRUE(saw_fallback_tick);
}

TEST(IncrementalServe, EvictionDestroysIncrementalState) {
  ServiceConfig cfg;
  cfg.idle_ttl_ticks = 50;
  Capture cap;
  StreamService service(cfg, cap.sink());
  service.ingest_line(kDeclare);
  for (int i = 0; i < 120; ++i) service.ingest_line(track_row(i));
  service.ingest_line("!tick 100");  // idle the session past the TTL
  service.ingest_line("# sweep");    // any line runs the eviction sweep
  service.drain();
  EXPECT_EQ(service.stats()[ServeCounter::kEvictions], 1u);

  // Re-declare: the session must come back with *fresh* incremental
  // state — few samples, so the tick takes the fallback path and matches
  // a solve over only the new samples.
  service.ingest_line(kDeclare);
  std::vector<std::string> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(track_row(i));
  for (const auto& r : rows) service.ingest_line(r);
  service.ingest_line("!tick trk");
  service.finish();

  ASSERT_FALSE(cap.lines.empty());
  const std::string& tick_line = cap.lines.back();
  ASSERT_NE(tick_line.find("\"schema\":\"lion.tick.v1\""),
            std::string::npos)
      << tick_line;
  EXPECT_NE(tick_line.find("\"source\":\"fallback\""), std::string::npos)
      << tick_line;
  const SessionConfig scfg = config_from_declare(kDeclare);
  const core::TrackFix fix = solve_track_window(parsed_samples(rows), scfg);
  // Seq 1: the eviction event consumed seq 0.
  EXPECT_EQ(tick_line, tick_response("trk", 1, 0, fix, 0, "fallback"));
}

}  // namespace
}  // namespace lion::serve
