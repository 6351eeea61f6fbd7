// Scrape endpoint for the serving stack: a minimal HTTP/1.0 server that
// renders the process's telemetry as Prometheus text exposition.
//
//   GET /metrics   text/plain 0.0.4: the obs::MetricsRegistry snapshot,
//                  process RSS/fd gauges, the serve counter table
//                  (kServeCounters) summed over services, aggregate serve
//                  gauges, event-log counters, and per-session RED series
//                  (labelled {session="<id>"}).
//   GET /healthz   application/json liveness probe: status, uptime,
//                  connection/session counts.
//
// Design constraints, in order:
//   - never touch the deterministic ingest path: the endpoint runs on its
//     own accept thread, and every value it reads comes from a lock-free
//     registry snapshot or a bounded collect() callback that takes the
//     same per-service mutex `!stats` already takes;
//   - survive rude clients: requests are read with a poll() deadline and
//     a size cap, one at a time (a scraper is one Prometheus instance,
//     not a fleet), and any malformed request gets a 400 and a close;
//   - degrade, never crash: a failed bind reports through start()'s error
//     string and leaves the daemon serving without telemetry.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.hpp"
#include "serve/service.hpp"

namespace lion::serve {

struct TelemetryConfig {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral (port() reports the bound one)
  /// Snapshots of every live service (one per ingest shard). Called per
  /// scrape, off the ingest threads; may be empty/null.
  std::function<std::vector<ServiceTelemetry>()> collect;
  /// Lock-free per-shard queue gauges (SocketServer::shard_gauges). Kept
  /// separate from collect: these stay scrapeable even while a shard
  /// thread is wedged sending to a slow consumer. May be null.
  std::function<std::vector<ShardGauges>()> shard_gauges;
  /// Live transport connections (SocketServer::live_connections). The
  /// collect() entry count stopped meaning "connections" when services
  /// became per-shard. Null = fall back to the collect() entry count.
  std::function<std::uint64_t()> connections;
  /// Event log to export emission counters from; may be nullptr.
  obs::EventLog* events = nullptr;
};

/// Render the scrape body (exposed for tests: the exact bytes /metrics
/// serves, minus HTTP framing). `connections` < 0 falls back to
/// services.size() — the pre-shard "one service per connection" layout.
std::string render_metrics_body(
    const std::vector<ServiceTelemetry>& services, const obs::EventLog* events,
    const std::vector<ShardGauges>& shards = {},
    std::int64_t connections = -1);

class TelemetryServer {
 public:
  explicit TelemetryServer(TelemetryConfig config);
  ~TelemetryServer();  ///< stop()s if still running

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Bind + listen + spawn the serving thread. False (reason in `error`)
  /// on socket failure; the server is then inert.
  bool start(std::string& error);

  /// Bound TCP port after an ephemeral bind; -1 when not started.
  int port() const { return port_; }

  /// Scrapes answered so far (including /healthz).
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Close the listener and join the serving thread. Safe to call twice.
  void stop();

 private:
  void serve_loop();
  void handle_client(int fd);

  TelemetryConfig cfg_;
  int listen_fd_ = -1;
  int port_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: stop() wakes the poll
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::thread thread_;
  double start_s_ = 0.0;  ///< steady-clock seconds at start()
};

}  // namespace lion::serve
