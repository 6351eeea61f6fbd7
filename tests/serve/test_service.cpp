// StreamService behavior: session lifecycle, error statuses, the ordered
// emitter, the virtual clock, stats, and the timeout degradation path.
// Everything here is single-ingest-thread, where the service's output is
// contractually a pure function of its input.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/thread_pool.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"

namespace lion::serve {
namespace {

struct Harness {
  std::vector<std::string> lines;
  StreamService service;

  explicit Harness(ServiceConfig cfg = {})
      : service(std::move(cfg), [this](std::string_view line) {
          lines.emplace_back(line);
        }) {}

  void feed(const std::vector<std::string>& input) {
    for (const auto& l : input) service.ingest_line(l);
    service.drain();
  }
};

bool has_field(const std::string& line, const std::string& key,
               const std::string& value) {
  return line.find("\"" + key + "\":\"" + value + "\"") != std::string::npos;
}

// A tiny but solvable calibrate payload is overkill for lifecycle tests;
// most cases only need rows that *parse*, not rows that calibrate.
const char* kRow = "0.1,0.2,0.3,1.5";

TEST(Service, DeclareIsSilentAndDataBeforeDeclareErrors) {
  Harness h;
  h.feed({"0.1,0.2,0.3,1.5"});
  ASSERT_EQ(h.lines.size(), 1u);
  EXPECT_TRUE(has_field(h.lines[0], "schema", "lion.error.v1"));
  EXPECT_TRUE(has_field(h.lines[0], "code", "unknown_session"));

  h.feed({"!session a center=0,0.8,0", kRow, kRow});
  EXPECT_EQ(h.lines.size(), 1u);  // declare + accepted rows answer nothing
  EXPECT_EQ(h.service.stats()[ServeCounter::kSamples], 2u);
}

TEST(Service, RoutedDataToUnknownSessionErrors) {
  Harness h;
  h.feed({"!session a center=0,0.8,0", "@ghost 0.1,0.2,0.3,1.5"});
  ASSERT_EQ(h.lines.size(), 1u);
  EXPECT_TRUE(has_field(h.lines[0], "code", "unknown_session"));
  EXPECT_TRUE(has_field(h.lines[0], "session", "ghost"));
}

TEST(Service, DuplicateDeclareAndSessionLimit) {
  ServiceConfig cfg;
  cfg.max_sessions = 1;
  Harness h(cfg);
  h.feed({"!session a center=0,0.8,0", "!session a center=0,0.8,0",
          "!session b center=0,0.8,0"});
  ASSERT_EQ(h.lines.size(), 2u);
  EXPECT_TRUE(has_field(h.lines[0], "code", "bad_control"));
  EXPECT_TRUE(has_field(h.lines[1], "code", "session_limit"));
}

TEST(Service, BadDeclareOptionsBecomeErrors) {
  Harness h;
  h.feed({"!session a",                                   // no center
          "!session b center=0,0,0 window=100",           // tracker knob
          "!session c mode=track center=0,0,0 window=4",  // window < 8
          "!session d mode=track center=0,0,0 dir=0,0,0"});
  ASSERT_EQ(h.lines.size(), 4u);
  for (const auto& line : h.lines) {
    EXPECT_TRUE(has_field(line, "code", "bad_control")) << line;
  }
}

TEST(Service, ImplicitCenterOpensDefaultSession) {
  ServiceConfig cfg;
  cfg.implicit_center = Vec3{0.0, 0.8, 0.0};
  Harness h(cfg);
  h.feed({"x,y,z,phase", kRow, "!flush default"});
  ASSERT_EQ(h.lines.size(), 1u);
  EXPECT_TRUE(has_field(h.lines[0], "schema", "lion.report.v1"));
  EXPECT_TRUE(has_field(h.lines[0], "session", "default"));
  // One parseable row cannot calibrate — graceful degradation, not crash.
  EXPECT_NE(h.lines[0].find("\"status\":"), std::string::npos);
}

TEST(Service, CsvHeaderAndParseErrorsPerSession) {
  Harness h;
  h.feed({"!session a center=0,0.8,0", "x,y,z,phase",  // header: silent
          "1,2,3,nonsense",                            // parse error
          "1,2"});                                     // too few columns
  ASSERT_EQ(h.lines.size(), 2u);
  EXPECT_TRUE(has_field(h.lines[0], "code", "parse_error"));
  EXPECT_TRUE(has_field(h.lines[1], "code", "parse_error"));
  EXPECT_EQ(h.service.stats()[ServeCounter::kParseErrors], 2u);
}

TEST(Service, SequenceNumbersAreDenseAndOrdered) {
  Harness h;
  h.feed({"!session a center=0,0.8,0", "garbage,row", "!flush a",
          "@ghost 1,2,3,4", "!flush a", "!stats"});
  ASSERT_GE(h.lines.size(), 5u);
  for (std::size_t i = 0; i < h.lines.size(); ++i) {
    const std::string want = "\"seq\":" + std::to_string(i);
    EXPECT_NE(h.lines[i].find(want), std::string::npos)
        << "line " << i << ": " << h.lines[i];
  }
}

TEST(Service, StatsLineReportsCounters) {
  Harness h;
  h.feed({"!session a center=0,0.8,0", kRow, kRow, "bad,row", "!tick 5",
          "!stats"});
  ASSERT_EQ(h.lines.size(), 2u);
  const std::string& stats = h.lines[1];
  EXPECT_TRUE(has_field(stats, "schema", "lion.stats.v1"));
  EXPECT_NE(stats.find("\"sessions\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"samples\":2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"parse_errors\":1"), std::string::npos) << stats;
  // 6 lines ingested + 5 explicit ticks.
  EXPECT_NE(stats.find("\"ticks\":11"), std::string::npos) << stats;
}

TEST(Service, CloseFlushesThenForgetsSession) {
  Harness h;
  h.feed({"!session a center=0,0.8,0", kRow, "!close a", "@a 1,2,3,4"});
  ASSERT_EQ(h.lines.size(), 2u);
  EXPECT_TRUE(has_field(h.lines[0], "schema", "lion.report.v1"));
  EXPECT_TRUE(has_field(h.lines[1], "code", "unknown_session"));
  EXPECT_EQ(h.service.stats().sessions, 0u);
}

TEST(Service, FlushUnknownSessionErrors) {
  Harness h;
  h.feed({"!flush nope", "!close nope"});
  ASSERT_EQ(h.lines.size(), 2u);
  EXPECT_TRUE(has_field(h.lines[0], "code", "unknown_session"));
  EXPECT_TRUE(has_field(h.lines[1], "code", "unknown_session"));
}

TEST(Service, IdleSessionsEvictDeterministically) {
  ServiceConfig cfg;
  cfg.idle_ttl_ticks = 10;
  Harness h(cfg);
  // b is *older* than c but both expire on the same sweep: eviction order
  // must be (last_active, id) — b first.
  h.feed({"!session b center=0,0.8,0", "!session c center=0,0.8,0",
          "!tick 20"});
  ASSERT_EQ(h.lines.size(), 2u);
  EXPECT_TRUE(has_field(h.lines[0], "event", "evict"));
  EXPECT_TRUE(has_field(h.lines[0], "session", "b"));
  EXPECT_TRUE(has_field(h.lines[1], "session", "c"));
  EXPECT_EQ(h.service.stats()[ServeCounter::kEvictions], 2u);
  EXPECT_EQ(h.service.stats().sessions, 0u);

  // Active traffic refreshes the TTL.
  h.feed({"!session d center=0,0.8,0", "@d 1,2,3,4", "!tick 9", "@d 1,2,3,4",
          "!tick 9"});
  EXPECT_EQ(h.service.stats().sessions, 1u);
}

TEST(Service, EvictionIsByteIdenticalAcrossRuns) {
  const std::vector<std::string> script = {
      "!session m2 center=0,0.8,0", "!session m1 center=0,0.8,0",
      "@m1 1,2,3,4", "!tick 6",     "!session m3 center=0,0.8,0",
      "!tick 7",     "!stats"};
  ServiceConfig cfg;
  cfg.idle_ttl_ticks = 8;
  Harness first(cfg), second(cfg);
  first.feed(script);
  second.feed(script);
  EXPECT_EQ(first.lines, second.lines);
}

TEST(Service, BusyRejectionWhenInflightCapIsZero) {
  ServiceConfig cfg;
  cfg.max_inflight_per_session = 0;
  cfg.reject_when_busy = true;
  Harness h(cfg);
  h.feed({"!session a center=0,0.8,0", kRow, "!flush a"});
  ASSERT_EQ(h.lines.size(), 1u);
  EXPECT_TRUE(has_field(h.lines[0], "code", "busy"));
  EXPECT_EQ(h.service.stats()[ServeCounter::kRejectedBusy], 1u);
  EXPECT_EQ(h.service.stats()[ServeCounter::kReports], 0u);
}

TEST(Service, BusyRejectedCloseKeepsSessionForRetry) {
  // Clog a 1-thread shared pool so the flush's solve stays in flight; the
  // close that follows is busy-rejected and must NOT drop the session (and
  // with it the accumulated buffer) — the client retries the close.
  engine::ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> released = gate.get_future().share();
  ServiceConfig cfg;
  cfg.max_inflight_per_session = 1;
  cfg.reject_when_busy = true;
  std::vector<std::string> lines;
  {
    StreamService service(
        cfg, [&lines](std::string_view l) { lines.emplace_back(l); }, &pool);
    pool.submit([released] { released.wait(); });
    service.ingest_line("!session a center=0,0.8,0");
    service.ingest_line(kRow);
    service.ingest_line("!flush a");  // occupies the only in-flight slot
    service.ingest_line("!close a");  // busy-rejected
    EXPECT_EQ(service.stats().sessions, 1u);
    EXPECT_EQ(service.stats()[ServeCounter::kRejectedBusy], 1u);
    gate.set_value();
    service.drain();
    service.ingest_line("!close a");  // retry now succeeds
    service.finish();
    EXPECT_EQ(service.stats().sessions, 0u);
  }
  // Seq order: flush report, busy error, close report.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(has_field(lines[0], "schema", "lion.report.v1"));
  EXPECT_TRUE(has_field(lines[1], "code", "busy"));
  EXPECT_TRUE(has_field(lines[2], "schema", "lion.report.v1"));
}

TEST(Service, WorkerExceptionEmitsErrorAndStillDrains) {
  // A clock that throws exactly on the worker's deadline check: before the
  // run_request guard this leaked the reserved seq and outstanding_ slot,
  // wedging the reorder buffer and hanging drain()/finish() forever.
  auto calls = std::make_shared<std::atomic<int>>(0);
  ServiceConfig cfg;
  cfg.request_timeout_s = 1.0;
  cfg.clock = [calls]() -> double {
    if (calls->fetch_add(1) == 1) {
      throw std::runtime_error("injected clock fault");
    }
    return 0.0;
  };
  Harness h(cfg);
  h.feed({"!session a center=0,0.8,0", kRow, "!flush a"});
  ASSERT_EQ(h.lines.size(), 1u);
  EXPECT_TRUE(has_field(h.lines[0], "schema", "lion.error.v1"));
  EXPECT_TRUE(has_field(h.lines[0], "code", "internal_error"));
  EXPECT_EQ(h.service.stats()[ServeCounter::kErrors], 1u);
  // The fault is per-request: the session survives and later solves work.
  h.feed({"!flush a"});
  ASSERT_EQ(h.lines.size(), 2u);
  EXPECT_TRUE(has_field(h.lines[1], "schema", "lion.report.v1"));
}

TEST(Service, RequestTimeoutDegradesToSolverFailureReport) {
  // Virtual clock that leaps 1000s per reading: the worker's deadline
  // check always sees the request as expired.
  auto tick = std::make_shared<std::atomic<int>>(0);
  ServiceConfig cfg;
  cfg.request_timeout_s = 0.5;
  cfg.clock = [tick] { return 1000.0 * tick->fetch_add(1); };
  Harness h(cfg);
  h.feed({"!session a center=0,0.8,0", kRow, "!flush a"});
  ASSERT_EQ(h.lines.size(), 1u);
  EXPECT_TRUE(has_field(h.lines[0], "schema", "lion.report.v1"));
  EXPECT_TRUE(has_field(h.lines[0], "status", "solver_failure"));
  EXPECT_NE(h.lines[0].find("deadline"), std::string::npos);
  EXPECT_EQ(h.service.stats()[ServeCounter::kTimeouts], 1u);
}

TEST(Service, BufferFullRejectsExtraSamples) {
  ServiceConfig cfg;
  cfg.max_session_samples = 2;
  Harness h(cfg);
  h.feed({"!session a center=0,0.8,0", kRow, kRow, kRow});
  ASSERT_EQ(h.lines.size(), 1u);
  EXPECT_TRUE(has_field(h.lines[0], "code", "buffer_full"));
}

TEST(Service, OversizedWireLineBecomesErrorStatus) {
  ServiceConfig cfg;
  cfg.max_line_bytes = 16;
  Harness h(cfg);
  h.service.ingest_bytes("!session a center=0,0.8,0 wavelength=0.326\n");
  h.service.finish();
  ASSERT_EQ(h.lines.size(), 1u);
  EXPECT_TRUE(has_field(h.lines[0], "code", "oversized_line"));
  EXPECT_EQ(h.service.stats()[ServeCounter::kOversized], 1u);
  EXPECT_EQ(h.service.stats().sessions, 0u);
}

TEST(Service, TrackSessionEmitsWindowFixes) {
  Harness h;
  h.service.ingest_line(
      "!session belt mode=track center=0,0.8,0 window=8 hop=8 speed=0.1");
  for (int i = 0; i < 24; ++i) {
    h.service.ingest_line("{\"x\":0,\"y\":0,\"z\":0,\"phase\":" +
                          std::to_string(i % 6) + ",\"t\":" +
                          std::to_string(0.1 * i) + "}");
  }
  h.service.finish();
  ASSERT_EQ(h.lines.size(), 3u);  // 24 samples / window 8
  for (std::size_t i = 0; i < h.lines.size(); ++i) {
    EXPECT_TRUE(has_field(h.lines[i], "schema", "lion.fix.v1")) << h.lines[i];
    EXPECT_NE(h.lines[i].find("\"window\":" + std::to_string(i)),
              std::string::npos)
        << h.lines[i];
  }
  EXPECT_EQ(h.service.stats()[ServeCounter::kFixes], 3u);
}

TEST(Service, TrackFlushDrainsPartialWindow) {
  Harness h;
  h.service.ingest_line(
      "!session belt mode=track center=0,0.8,0 window=100 hop=50");
  for (int i = 0; i < 10; ++i) {
    h.service.ingest_line("{\"x\":0,\"y\":0,\"z\":0,\"phase\":1,\"t\":" +
                          std::to_string(0.1 * i) + "}");
  }
  h.service.ingest_line("!flush belt");
  h.service.finish();
  ASSERT_EQ(h.lines.size(), 1u);
  EXPECT_TRUE(has_field(h.lines[0], "schema", "lion.fix.v1"));
}

}  // namespace
}  // namespace lion::serve
