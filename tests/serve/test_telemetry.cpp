// Telemetry plane: per-session RED snapshots, the `!trace` span dump,
// the `!healthz` observability gauges, the Prometheus exposition
// renderer, the HTTP scrape endpoint under concurrent ingest load, and
// the contract that matters most — turning every observability feature
// on leaves the sequenced byte stream identical.

#include "serve/telemetry.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace lion {
namespace {

std::string data_path(const std::string& name) {
  return std::string(LION_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Feed one calibrate fixture through a service built on `cfg` and return
/// every emitted line.
std::vector<std::string> run_fixture(const serve::ServiceConfig& cfg,
                                     const std::string& csv_bytes,
                                     const std::vector<std::string>& extra =
                                         {}) {
  std::vector<std::string> lines;
  serve::StreamService service(
      cfg, [&lines](std::string_view line) { lines.emplace_back(line); });
  service.ingest_bytes("!session g center=0,0.8,0\n" + csv_bytes +
                       "\n!flush g\n");
  if (!extra.empty()) service.drain();  // solve spans precede the extras
  for (const std::string& l : extra) service.ingest_line(l);
  service.finish();
  return lines;
}

// RAII guard: tests that flip the process-wide obs switches must restore
// them, or they would leak into the rest of this binary's suites.
struct ObsFlagsGuard {
  ~ObsFlagsGuard() {
    obs::set_metrics_enabled(false);
    obs::set_tracing_enabled(false);
  }
};

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Minimal HTTP/1.0 exchange against 127.0.0.1:port; returns the full
/// response (headers + body), or "" on connect failure.
std::string http_request(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string response;
  if (send_all(fd, request.data(), request.size())) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

TEST(Telemetry, SnapshotTracksPerSessionRed) {
  const std::string csv = read_file(data_path("golden_rig.csv"));
  ASSERT_FALSE(csv.empty());
  std::vector<std::string> lines;
  serve::StreamService service(
      serve::ServiceConfig{},
      [&lines](std::string_view line) { lines.emplace_back(line); });
  service.ingest_bytes("!session g center=0,0.8,0\n" + csv + "\n!flush g\n");
  service.drain();

  const serve::ServiceTelemetry tel = service.telemetry();
  EXPECT_GE(tel.uptime_s, 0.0);
  EXPECT_GT(tel.stats[serve::ServeCounter::kSamples], 0u);
  ASSERT_EQ(tel.sessions.size(), 1u);
  const serve::SessionTelemetry& s = tel.sessions[0];
  EXPECT_EQ(s.id, "g");
  EXPECT_FALSE(s.track);
  EXPECT_EQ(s.in_flight, 0u);  // drained
  EXPECT_EQ(s.samples, tel.stats[serve::ServeCounter::kSamples]);
  EXPECT_EQ(s.flushes, 1u);
  EXPECT_GE(s.requests, 1u);
  EXPECT_EQ(s.errors, 0u);
  // The flush's solve landed in the duration histogram.
  EXPECT_GE(s.solve_seconds.count(), 1u);
  EXPECT_GT(s.solve_seconds.sum(), 0.0);
}

// `!trace` must answer on a completely uninstrumented daemon: the
// per-session span ring is always maintained, independent of the global
// metrics/tracing switches (both off by default in this binary).
TEST(Telemetry, TraceDumpListsPipelineSpans) {
  const std::string csv = read_file(data_path("golden_rig.csv"));
  const auto lines =
      run_fixture(serve::ServiceConfig{}, csv, {"!trace g"});

  std::string trace;
  for (const auto& l : lines) {
    if (l.rfind("{\"schema\":\"lion.trace.v1\"", 0) == 0) trace = l;
  }
  ASSERT_FALSE(trace.empty());
  EXPECT_NE(trace.find("\"session\":\"g\""), std::string::npos);
  // Out-of-band: a trace dump consumes no sequence number.
  EXPECT_EQ(trace.find("\"seq\":"), std::string::npos);
  // The ingest-side stages are recorded per line; the solve stages at
  // completion. All of them survive into the dump for a small stream.
  EXPECT_NE(trace.find("\"stage\":\"demux\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"stage\":\"queue_wait\""), std::string::npos);
  EXPECT_NE(trace.find("\"stage\":\"serve_solve\""), std::string::npos);
  EXPECT_NE(trace.find("\"trace\":"), std::string::npos);
  EXPECT_NE(trace.find("\"dur_ns\":"), std::string::npos);
}

TEST(Telemetry, TraceUnknownSessionIsAnError) {
  std::vector<std::string> lines;
  serve::StreamService service(
      serve::ServiceConfig{},
      [&lines](std::string_view line) { lines.emplace_back(line); });
  service.ingest_line("!trace nosuch");
  service.finish();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"schema\":\"lion.error.v1\""), std::string::npos);
  EXPECT_NE(lines[0].find("unknown_session"), std::string::npos);
}

TEST(Telemetry, HealthzCarriesObservabilityGauges) {
  const std::string csv = read_file(data_path("golden_rig.csv"));
  const auto lines =
      run_fixture(serve::ServiceConfig{}, csv, {"!healthz"});
  std::string health;
  for (const auto& l : lines) {
    if (l.rfind("{\"schema\":\"lion.health.v1\"", 0) == 0) health = l;
  }
  ASSERT_FALSE(health.empty());
  EXPECT_NE(health.find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(health.find("\"tick_fallback_ratio\":"), std::string::npos);
  EXPECT_NE(health.find("\"reorder_depth_hwm\":"), std::string::npos);
}

TEST(Telemetry, RenderMetricsBodyExposesSessionSeries) {
  // The daemon enables the registry whenever the scrape plane is up
  // (TelemetryServer::start does the same); mirror that here.
  ObsFlagsGuard guard;
  obs::set_metrics_enabled(true);
  const std::string csv = read_file(data_path("golden_rig.csv"));
  std::vector<std::string> lines;
  serve::StreamService service(
      serve::ServiceConfig{},
      [&lines](std::string_view line) { lines.emplace_back(line); });
  service.ingest_bytes("!session g center=0,0.8,0\n" + csv + "\n!flush g\n");
  service.drain();

  obs::EventLog events;
  events.emit(obs::Severity::kWarn, "slow_request", "g", "test");
  const std::string body =
      serve::render_metrics_body({service.telemetry()}, &events);

  EXPECT_NE(body.find("lion_serve_lines_total "), std::string::npos);
  EXPECT_NE(body.find("lion_serve_live_sessions 1"), std::string::npos);
  EXPECT_NE(body.find("lion_session_requests_total{session=\"g\"} "),
            std::string::npos);
  EXPECT_NE(body.find("lion_session_samples_total{session=\"g\"} "),
            std::string::npos);
  EXPECT_NE(body.find("lion_session_solve_seconds_bucket{session=\"g\","
                      "le=\"+Inf\"} "),
            std::string::npos);
  EXPECT_NE(body.find("lion_session_solve_seconds_sum{session=\"g\"} "),
            std::string::npos);
  EXPECT_NE(body.find("lion_session_solve_seconds_count{session=\"g\"} "),
            std::string::npos);
  EXPECT_NE(body.find("lion_process_rss_bytes "), std::string::npos);
  // Calibrate-flush split: the single flush above found no memo and ran
  // the full solve.
  EXPECT_NE(body.find("lion_serve_cal_flushes_total 1"), std::string::npos);
  EXPECT_NE(body.find("lion_serve_cal_memo_total 0"), std::string::npos);
  EXPECT_NE(body.find("lion_serve_cal_fallbacks_total 1"), std::string::npos);
  EXPECT_NE(body.find("lion_events_emitted_total 1"), std::string::npos);
  EXPECT_NE(body.find("lion_events_by_severity_total{severity=\"warn\"} 1"),
            std::string::npos);

  // Exposition shape: every non-comment line is `name[{labels}] value`
  // with a parseable value.
  std::istringstream iss(body);
  for (std::string line; std::getline(iss, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    char* end = nullptr;
    std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;
  }
}

// Sharded serving: the connection gauge comes from the transport (one
// service entry per *shard* no longer means one per connection), and the
// per-shard queue series render from the lock-free gauge mirrors.
TEST(Telemetry, RenderMetricsBodyExposesShardQueueSeries) {
  ObsFlagsGuard guard;
  obs::set_metrics_enabled(true);
  std::vector<serve::ShardGauges> shards(2);
  shards[0].shard = 0;
  shards[0].queue_depth = 5;
  shards[0].queue_hwm = 9;
  shards[0].queue_stalls = 2;
  shards[1].shard = 1;
  shards[1].queue_hwm = 3;
  const std::string body =
      serve::render_metrics_body({}, nullptr, shards, 7);
  EXPECT_NE(body.find("lion_serve_connections 7"), std::string::npos);
  EXPECT_NE(body.find("lion_shard_queue_depth{shard=\"0\"} 5"),
            std::string::npos);
  EXPECT_NE(body.find("lion_shard_queue_depth{shard=\"1\"} 0"),
            std::string::npos);
  EXPECT_NE(body.find("lion_shard_queue_hwm{shard=\"0\"} 9"),
            std::string::npos);
  EXPECT_NE(body.find("lion_shard_queue_hwm{shard=\"1\"} 3"),
            std::string::npos);
  EXPECT_NE(body.find("lion_shard_queue_stalls_total{shard=\"0\"} 2"),
            std::string::npos);
  EXPECT_NE(body.find("lion_shard_queue_stalls_total{shard=\"1\"} 0"),
            std::string::npos);

  // Legacy single-service callers (no transport plumbed in): connection
  // count falls back to the service entry count, no shard series.
  const std::string legacy = serve::render_metrics_body({}, nullptr);
  EXPECT_NE(legacy.find("lion_serve_connections 0"), std::string::npos);
  EXPECT_EQ(legacy.find("lion_shard_queue_depth"), std::string::npos);
}

// The scrape endpoint must answer correct 200s while a client hammers
// the data plane — and the concurrent scrapes must not perturb the
// session's responses (the replies below are still counted and checked).
TEST(Telemetry, EndpointServesScrapesUnderIngestLoad) {
  const std::string csv = read_file(data_path("golden_rig.csv"));
  serve::ServerConfig scfg;
  scfg.tcp_port = 0;
  serve::SocketServer server(scfg);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  serve::TelemetryConfig tcfg;
  tcfg.port = 0;
  tcfg.collect = [&server] { return server.telemetry(); };
  serve::TelemetryServer telemetry(tcfg);
  ASSERT_TRUE(telemetry.start(error)) << error;

  // Data-plane client.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  std::atomic<bool> done{false};
  std::atomic<int> scrapes_ok{0};
  std::atomic<int> scrapes_bad{0};
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string response =
          http_request(telemetry.port(), "GET /metrics HTTP/1.0\r\n\r\n");
      if (response.rfind("HTTP/1.0 200", 0) == 0 &&
          response.find("lion_serve_lines_total") != std::string::npos) {
        scrapes_ok.fetch_add(1);
      } else {
        scrapes_bad.fetch_add(1);
      }
    }
  });

  const std::string wire =
      "!session load center=0,0.8,0\n" + csv + "\n!flush load\n";
  for (std::size_t off = 0; off < wire.size(); off += 512) {
    ASSERT_TRUE(
        send_all(fd, wire.data() + off, std::min<std::size_t>(512, wire.size() - off)));
  }
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  done.store(true);
  scraper.join();

  EXPECT_NE(reply.find("\"schema\":\"lion.report.v1\""), std::string::npos);
  EXPECT_EQ(reply.find("\"schema\":\"lion.error.v1\""), std::string::npos);
  EXPECT_GT(scrapes_ok.load(), 0);
  EXPECT_EQ(scrapes_bad.load(), 0);

  // Path/method handling.
  EXPECT_EQ(http_request(telemetry.port(), "GET /healthz HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 200", 0),
            0u);
  EXPECT_EQ(http_request(telemetry.port(), "GET /nope HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 404", 0),
            0u);
  EXPECT_EQ(http_request(telemetry.port(), "POST /metrics HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 405", 0),
            0u);

  telemetry.stop();
  server.stop();
}

// The determinism keystone: metrics on, tracing on, an event log attached
// and a hair-trigger slow-request threshold must leave every sequenced
// byte identical to the all-off run.
TEST(Telemetry, FullObservabilityKeepsSequencedBytesIdentical) {
  const std::string csv = read_file(data_path("golden_rig.csv"));
  ASSERT_FALSE(csv.empty());

  const auto baseline = run_fixture(serve::ServiceConfig{}, csv);
  ASSERT_FALSE(baseline.empty());

  ObsFlagsGuard guard;
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  obs::EventLog events;
  serve::ServiceConfig cfg;
  cfg.events = &events;
  cfg.slow_request_s = 1e-12;  // every request is "slow"
  const auto instrumented = run_fixture(cfg, csv);

  ASSERT_EQ(baseline.size(), instrumented.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i], instrumented[i]) << "line " << i;
  }
  // And the observation side actually observed: the slow-request event
  // fired without touching the byte stream.
  bool saw_slow = false;
  for (const auto& e : events.snapshot()) {
    if (e.type == "slow_request") saw_slow = true;
  }
  EXPECT_TRUE(saw_slow);
}

}  // namespace
}  // namespace lion
