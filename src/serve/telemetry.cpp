#include "serve/telemetry.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/json.hpp"
#include "obs/process.hpp"
#include "obs/prometheus.hpp"

namespace lion::serve {

namespace {

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

void send_response(int fd, const char* status, const char* content_type,
                   const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  send_all(fd, out.data(), out.size());
}

/// One labelled histogram family: TYPE header once, then per-session
/// cumulative buckets + sum + count. append_prometheus_sample's empty
/// type skips repeat headers.
void append_session_histogram(std::string& out, const std::string& family,
                              const std::vector<ServiceTelemetry>& services) {
  out += "# TYPE ";
  out += family;
  out += " histogram\n";
  char buf[40];
  for (const ServiceTelemetry& svc : services) {
    for (const SessionTelemetry& s : svc.sessions) {
      const std::string label_base =
          "session=\"" + obs::prometheus_label_escape(s.id) + "\"";
      const obs::HistogramData& h = s.solve_seconds;
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < h.bounds().size(); ++i) {
        cum += h.buckets()[i];
        std::snprintf(buf, sizeof buf, "%g", h.bounds()[i]);
        obs::append_prometheus_sample(
            out, family + "_bucket", label_base + ",le=\"" + buf + "\"",
            static_cast<double>(cum), "");
      }
      cum += h.buckets().empty() ? 0 : h.buckets().back();
      obs::append_prometheus_sample(out, family + "_bucket",
                                    label_base + ",le=\"+Inf\"",
                                    static_cast<double>(cum), "");
      obs::append_prometheus_sample(out, family + "_sum", label_base, h.sum(),
                                    "");
      obs::append_prometheus_sample(out, family + "_count", label_base,
                                    static_cast<double>(h.count()), "");
    }
  }
}

}  // namespace

std::string render_metrics_body(const std::vector<ServiceTelemetry>& services,
                                const obs::EventLog* events,
                                const std::vector<ShardGauges>& shards,
                                std::int64_t connections) {
  // 1. The process-wide registry (stage histograms, pipeline counters).
  std::string out =
      obs::prometheus_render(obs::MetricsRegistry::instance().snapshot());

  // 2. Process gauges.
  obs::append_prometheus_sample(
      out, "lion_process_rss_bytes", "",
      static_cast<double>(obs::process_rss_bytes()), "gauge");
  obs::append_prometheus_sample(
      out, "lion_process_open_fds", "",
      static_cast<double>(obs::process_open_fds()), "gauge");

  // 3. The serve counter table, each counter summed over every live
  //    service, then the aggregate serve gauges.
  ServeStats total;
  double reorder_hwm = 0, journal_lag = 0, journal_degraded = 0;
  for (const ServiceTelemetry& svc : services) {
    for (std::size_t i = 0; i < kServeCounterCount; ++i) {
      total.counters[i] += svc.stats.counters[i];
    }
    total.sessions += svc.stats.sessions;
    reorder_hwm = std::max(reorder_hwm, static_cast<double>(svc.reorder_hwm));
    journal_lag += static_cast<double>(svc.journal_lag);
    journal_degraded += static_cast<double>(svc.journal_degraded);
  }
  for (const ServeCounterSpec& spec : kServeCounters) {
    obs::append_prometheus_sample(
        out, std::string("lion_serve_") + spec.name + "_total", "",
        static_cast<double>(total[spec.id]), "counter");
  }
  obs::append_prometheus_sample(out, "lion_serve_live_sessions", "",
                                static_cast<double>(total.sessions), "gauge");
  obs::append_prometheus_sample(
      out, "lion_serve_connections", "",
      static_cast<double>(connections >= 0
                              ? connections
                              : static_cast<std::int64_t>(services.size())),
      "gauge");
  // Per-shard ingest-queue series, from the lock-free gauge mirrors: a
  // shard wedged by a slow consumer still reports its depth here.
  const struct {
    const char* family;
    const char* type;
    std::uint64_t ShardGauges::*value;
  } shard_series[] = {
      {"lion_shard_queue_depth", "gauge", &ShardGauges::queue_depth},
      {"lion_shard_queue_hwm", "gauge", &ShardGauges::queue_hwm},
      {"lion_shard_queue_stalls_total", "counter", &ShardGauges::queue_stalls},
  };
  for (const auto& series : shard_series) {
    const char* type = series.type;  // on the family's first sample only
    for (const ShardGauges& g : shards) {
      obs::append_prometheus_sample(
          out, series.family, "shard=\"" + std::to_string(g.shard) + "\"",
          static_cast<double>(g.*series.value), type);
      type = "";
    }
  }
  obs::append_prometheus_sample(out, "lion_serve_reorder_depth_hwm", "",
                                reorder_hwm, "gauge");
  obs::append_prometheus_sample(out, "lion_serve_journal_lag_records", "",
                                journal_lag, "gauge");
  obs::append_prometheus_sample(out, "lion_serve_journal_degraded_sessions",
                                "", journal_degraded, "gauge");
  const FallbackRatios ratios = fallback_ratios(total);
  obs::append_prometheus_sample(out, "lion_serve_tick_fallback_ratio", "",
                                ratios.tick, "gauge");
  obs::append_prometheus_sample(out, "lion_serve_cal_fallback_ratio", "",
                                ratios.cal, "gauge");

  // 4. Per-session RED series.
  if (!services.empty()) {
    const struct {
      const char* family;
      const char* type;
      std::uint64_t SessionTelemetry::*value;
    } session_series[] = {
        {"lion_session_requests_total", "counter", &SessionTelemetry::requests},
        {"lion_session_errors_total", "counter", &SessionTelemetry::errors},
        {"lion_session_samples_total", "counter", &SessionTelemetry::samples},
        {"lion_session_pose_ticks_total", "counter",
         &SessionTelemetry::pose_ticks},
        {"lion_session_in_flight", "gauge", &SessionTelemetry::in_flight},
    };
    for (const auto& series : session_series) {
      const char* type = series.type;  // on the family's first sample only
      for (const ServiceTelemetry& svc : services) {
        for (const SessionTelemetry& s : svc.sessions) {
          obs::append_prometheus_sample(
              out, series.family,
              "session=\"" + obs::prometheus_label_escape(s.id) + "\"",
              static_cast<double>(s.*series.value), type);
          type = "";
        }
      }
    }
    append_session_histogram(out, "lion_session_solve_seconds", services);
  }

  // 5. Event-log health: is the ops channel keeping up?
  if (events != nullptr) {
    obs::append_prometheus_sample(out, "lion_events_emitted_total", "",
                                  static_cast<double>(events->emitted()),
                                  "counter");
    obs::append_prometheus_sample(out, "lion_events_dropped_total", "",
                                  static_cast<double>(events->dropped()),
                                  "counter");
    obs::append_prometheus_sample(
        out, "lion_events_rate_limited_total", "",
        static_cast<double>(events->rate_limited()), "counter");
    const auto counts = events->severity_counts();
    out += "# TYPE lion_events_by_severity_total counter\n";
    for (std::size_t i = 0; i < counts.size(); ++i) {
      obs::append_prometheus_sample(
          out, "lion_events_by_severity_total",
          std::string("severity=\"") +
              obs::severity_name(static_cast<obs::Severity>(i)) + "\"",
          static_cast<double>(counts[i]), "");
    }
  }
  return out;
}

TelemetryServer::TelemetryServer(TelemetryConfig config)
    : cfg_(std::move(config)) {}

TelemetryServer::~TelemetryServer() { stop(); }

bool TelemetryServer::start(std::string& error) {
  if (running_.load()) {
    error = "telemetry server already running";
    return false;
  }
  // A scrape plane without a live registry would serve empty counter
  // families; starting the endpoint is the opt-in for the (observation-
  // only) metrics path, exactly like `lion_served --telemetry-port`.
  obs::set_metrics_enabled(true);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error = std::string("telemetry socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    error = "telemetry: bad host '" + cfg_.host + "'";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    error = std::string("telemetry bind :") + std::to_string(cfg_.port) +
            ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  if (::listen(listen_fd_, 8) < 0) {
    error = std::string("telemetry listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::pipe(wake_fds_) < 0) {
    error = std::string("telemetry pipe: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  for (const int fd : wake_fds_) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
  start_s_ = std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
  running_.store(true);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void TelemetryServer::stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (wake_fds_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void TelemetryServer::serve_loop() {
  while (running_.load()) {
    pollfd pfds[2] = {};
    pfds[0].fd = listen_fd_;
    pfds[0].events = POLLIN;
    pfds[1].fd = wake_fds_[0];
    pfds[1].events = POLLIN;
    const int ready = ::poll(pfds, 2, /*timeout_ms=*/-1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[1].revents & POLLIN) break;  // stop()
    if ((pfds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Scrapes are handled serially on this thread: one Prometheus server
    // polling every few seconds, not a request flood — and serial handling
    // means a burst of scrapes cannot amplify snapshot work.
    handle_client(fd);
    ::close(fd);
  }
}

void TelemetryServer::handle_client(int fd) {
  // Read the request head with a deadline so a stalled client cannot park
  // the serving thread. 4 KiB is plenty for "GET /metrics HTTP/1.1".
  std::string head;
  char buf[1024];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/2000);
    if (ready <= 0) return;  // timeout or error: drop silently
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return;
    head.append(buf, static_cast<std::size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos ||
        head.find("\n\n") != std::string::npos) {
      break;
    }
    if (head.size() > 4096) {
      send_response(fd, "400 Bad Request", "text/plain",
                    "request too large\n");
      return;
    }
  }
  const std::size_t eol = head.find_first_of("\r\n");
  const std::string request_line = head.substr(0, eol);
  const bool is_get = request_line.rfind("GET ", 0) == 0;
  std::string path;
  if (is_get) {
    const std::size_t sp = request_line.find(' ', 4);
    path = request_line.substr(4, sp == std::string::npos ? std::string::npos
                                                          : sp - 4);
  }
  if (!is_get) {
    send_response(fd, "405 Method Not Allowed", "text/plain",
                  "only GET is supported\n");
    return;
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (path == "/metrics") {
    std::vector<ServiceTelemetry> services;
    if (cfg_.collect) services = cfg_.collect();
    std::vector<ShardGauges> shards;
    if (cfg_.shard_gauges) shards = cfg_.shard_gauges();
    const std::int64_t connections =
        cfg_.connections ? static_cast<std::int64_t>(cfg_.connections()) : -1;
    send_response(fd, "200 OK",
                  "text/plain; version=0.0.4; charset=utf-8",
                  render_metrics_body(services, cfg_.events, shards,
                                      connections));
    return;
  }
  if (path == "/healthz") {
    std::vector<ServiceTelemetry> services;
    if (cfg_.collect) services = cfg_.collect();
    std::size_t sessions = 0;
    for (const ServiceTelemetry& svc : services) {
      sessions += svc.stats.sessions;
    }
    const double uptime =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count() -
        start_s_;
    std::string body = "{\"status\":\"ok\",\"uptime_s\":";
    obs::append_json_number(body, uptime);
    body += ",\"connections\":";
    body += std::to_string(cfg_.connections
                               ? cfg_.connections()
                               : static_cast<std::uint64_t>(services.size()));
    body += ",\"sessions\":";
    body += std::to_string(sessions);
    body += "}\n";
    send_response(fd, "200 OK", "application/json", body);
    return;
  }
  send_response(fd, "404 Not Found", "text/plain",
                "try /metrics or /healthz\n");
}

}  // namespace lion::serve
