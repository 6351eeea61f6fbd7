// Streaming service throughput — the serving-path real-time budget.
//
// Drives a StreamService in-process (no sockets: this measures the
// service core — wire parsing, demux, scheduling, ordered emission — not
// the kernel's TCP stack) with a multi-session calibrate workload built
// from simulated rig scans. Every check compares numbers taken in this
// one run, so machine speed cancels out, and any failed check makes the
// exit code 1:
//
//   - ingest throughput in read records per second, floored at 1000/s (a
//     reader fleet at 120 Hz/antenna needs ~1e3/s for a dozen antennas);
//     flush-to-report latency percentiles are reported alongside;
//   - journaled ingest (a JournalStore under a temp dir) and
//     telemetry-on ingest each keep >= 90% of plain throughput, as the
//     median ratio over interleaved passes;
//   - a `!tick` on a 5k-row track window is >= 5x faster at p95 than a
//     full window re-solve, with no fallbacks;
//   - every repeat calibrate `!flush` of an unchanged 5k-row buffer
//     answers from the memo, and only the installing flush solves;
//   - fleet ingest (opt-in, `--fleet N`): a sharded SocketServer hosted
//     in-process, driven over real TCP by a forked replay_client fleet
//     (N active + `--idle M` idle connections). It checks the server-side
//     fd/RSS footprint through the idle hold and, with `--fleet-floor`,
//     a floor on aggregate reads/s.

#include <dirent.h>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "io/csv.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/trace.hpp"
#include "rf/phase_model.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/scenario.hpp"

using namespace lion;
using linalg::Vec3;

int main(int argc, char** argv) {
  bench::BenchReporter report("serve", argc, argv);
  report.param("jobs", 8.0);

  // Fleet-mode knobs. `--fleet 0` (the default) skips the fleet section
  // entirely so the in-process rows keep their historical cost.
  std::size_t fleet = 0;
  std::size_t fleet_idle = 0;
  std::size_t fleet_shards = 4;
  double fleet_hold_s = 2.0;
  double fleet_floor = 0.0;  ///< reads/s acceptance floor; 0 = report only
  std::string replay_client;
  {
    const std::string self = argv[0];
    const auto slash = self.rfind('/');
    const std::string bin_dir = slash == std::string::npos
                                    ? std::string(".")
                                    : self.substr(0, slash);
    replay_client = bin_dir + "/../tools/replay_client";
  }
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--fleet") {
      fleet = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--idle") {
      fleet_idle = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--shards") {
      fleet_shards = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--fleet-hold") {
      fleet_hold_s = std::strtod(next(), nullptr);
    } else if (flag == "--fleet-floor") {
      fleet_floor = std::strtod(next(), nullptr);
    } else if (flag == "--json") {
      next();  // consumed by BenchReporter
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (fleet_shards == 0) fleet_shards = 1;
  bench::banner("Streaming service throughput",
                "ingest sustains >= 1000 reads/s with flush-to-report "
                "latency bounded by one calibration solve");

  // One simulated rig scan, serialized once; every session replays it.
  auto scenario = bench::standard_scenario(sim::EnvironmentKind::kLabTypical,
                                           Vec3{0.0, 0.8, 0.0}, 7);
  sim::ThreeLineRig rig;
  rig.x_min = -0.55;
  rig.x_max = 0.55;
  const auto samples = scenario.sweep(0, 0, rig.build());
  std::ostringstream csv;
  io::write_samples_csv(csv, samples);
  std::vector<std::string> rows;
  {
    std::istringstream in(csv.str());
    for (std::string line; std::getline(in, line);) rows.push_back(line);
  }

  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kFlushesPerSession = 2;

  // Build the full wire payload up front so the measured loop is the
  // service, not payload formatting. Sessions are interleaved row by row
  // to keep the demux path honest.
  std::vector<std::string> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    std::string id = "s";
    id += std::to_string(s);
    ids.push_back(std::move(id));
  }
  std::vector<std::string> payload;
  for (const std::string& id : ids) {
    payload.push_back("!session " + id + " center=0,0.8,0");
  }
  for (std::size_t rep = 0; rep < kFlushesPerSession; ++rep) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (const std::string& id : ids) {
        payload.push_back("@" + id + " " + rows[r]);
      }
    }
    for (const std::string& id : ids) {
      payload.push_back("!flush " + id);
    }
  }

  // --- end-to-end: ingest everything, time flush->report latencies. ---
  std::vector<double> flush_send_s;
  std::vector<double> report_recv_s;
  std::mutex recv_mu;
  bench::Timer wall;
  {
    serve::StreamService service(
        serve::ServiceConfig{},
        [&](std::string_view line) {
          if (line.find("\"schema\":\"lion.report.v1\"") !=
              std::string_view::npos) {
            std::lock_guard<std::mutex> lock(recv_mu);
            report_recv_s.push_back(wall.seconds());
          }
        });
    for (const std::string& line : payload) {
      if (line[0] == '!' && line.rfind("!flush", 0) == 0) {
        flush_send_s.push_back(wall.seconds());
      }
      service.ingest_line(line);
    }
    service.finish();
  }
  const double wall_s = wall.seconds();

  const std::size_t reads =
      samples.size() * kSessions * kFlushesPerSession;
  const double reads_per_s = static_cast<double>(reads) / wall_s;
  // The ordered emitter releases reports in flush order, so pairing the
  // k-th report with the k-th flush is exact.
  std::vector<double> latency_ms;
  for (std::size_t i = 0;
       i < flush_send_s.size() && i < report_recv_s.size(); ++i) {
    latency_ms.push_back((report_recv_s[i] - flush_send_s[i]) * 1e3);
  }

  std::printf("\nsessions: %zu, flushes: %zu, reads ingested: %zu\n",
              kSessions, flush_send_s.size(), reads);
  std::printf("wall: %.3f s, ingest throughput: %.0f reads/s\n", wall_s,
              reads_per_s);
  std::printf("flush->report latency [ms]: p50 %.1f, p95 %.1f, p99 %.1f\n",
              linalg::percentile(latency_ms, 50),
              linalg::percentile(latency_ms, 95),
              linalg::percentile(latency_ms, 99));

  report.row("throughput")
      .value("threads", 0.0)
      .value("items_per_s", reads_per_s)
      .value("reads", static_cast<double>(reads))
      .value("wall_s", wall_s)
      .value("latency_p50_ms", linalg::percentile(latency_ms, 50))
      .value("latency_p95_ms", linalg::percentile(latency_ms, 95))
      .value("latency_p99_ms", linalg::percentile(latency_ms, 99));

  // --- journaled and telemetry-on ingest vs plain: the same workload
  // with durability on (a JournalStore under a fresh temp dir per run:
  // leftover journals would turn the re-declares into restores), and with
  // the full observability plane armed (metrics registry live, span
  // tracing on, an event log with a hair-trigger slow-request threshold so
  // every solve emits an event and the token bucket does the damping).
  // Wall time is dominated by the solve drain and a shared machine drifts
  // from run to run, so the three configs run interleaved (order rotated
  // each pass) and each check takes the median over passes of
  // plain wall / config wall, its throughput relative to plain.
  const auto run_wall = [&payload](serve::ServiceConfig cfg) {
    bench::Timer t;
    {
      serve::StreamService service(std::move(cfg), [](std::string_view) {});
      for (const std::string& line : payload) service.ingest_line(line);
      service.finish();
    }
    return t.seconds();
  };
  const auto run_journaled_wall = [&run_wall]() {
    char tmpl[] = "/tmp/lion_bench_journal_XXXXXX";
    const char* jdir = ::mkdtemp(tmpl);
    serve::JournalStoreConfig jcfg;
    jcfg.dir = jdir != nullptr ? jdir : "bench_journal.tmp";
    serve::JournalStore store(jcfg);
    serve::ServiceConfig cfg;
    cfg.journal = &store;
    const double s = run_wall(std::move(cfg));
    if (::DIR* d = ::opendir(jcfg.dir.c_str())) {
      while (dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") {
          ::unlink((jcfg.dir + "/" + name).c_str());
        }
      }
      ::closedir(d);
    }
    ::rmdir(jcfg.dir.c_str());
    return s;
  };
  const auto run_telemetry_wall = [&run_wall]() {
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(true);
    obs::EventLog events;
    serve::ServiceConfig cfg;
    cfg.events = &events;
    cfg.slow_request_s = 1e-12;
    const double s = run_wall(std::move(cfg));
    obs::set_metrics_enabled(false);
    obs::set_tracing_enabled(false);
    return s;
  };
  constexpr std::size_t kOverheadPasses = 7;
  std::vector<double> journaled_s, telemetry_s;
  std::vector<double> journaled_vs_plain, telemetry_vs_plain;
  for (std::size_t pass = 0; pass < kOverheadPasses; ++pass) {
    double wall_of[3] = {0.0, 0.0, 0.0};  // plain, journaled, telemetry
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t config = (pass + k) % 3;
      wall_of[config] = config == 0   ? run_wall(serve::ServiceConfig{})
                        : config == 1 ? run_journaled_wall()
                                      : run_telemetry_wall();
    }
    journaled_s.push_back(wall_of[1]);
    telemetry_s.push_back(wall_of[2]);
    journaled_vs_plain.push_back(wall_of[0] / wall_of[1]);
    telemetry_vs_plain.push_back(wall_of[0] / wall_of[2]);
  }
  const double journaled_ratio = linalg::percentile(journaled_vs_plain, 50);
  const double telemetry_ratio = linalg::percentile(telemetry_vs_plain, 50);
  const auto overhead_row = [&](const char* row, const char* label,
                                const std::vector<double>& walls,
                                double ratio) {
    const double median_s = linalg::percentile(walls, 50);
    const double overhead_pct = 100.0 * (1.0 / ratio - 1.0);
    std::printf(
        "%s ingest: %.0f reads/s median, %.3f of plain (%.1f%% overhead, "
        "median of %zu interleaved passes)\n",
        label, static_cast<double>(reads) / median_s, ratio, overhead_pct,
        kOverheadPasses);
    report.row(row)
        .value("threads", 0.0)
        .value("items_per_s", static_cast<double>(reads) / median_s)
        .value("wall_s", median_s)
        .value("vs_plain", ratio)
        .value("overhead_pct", overhead_pct);
  };
  overhead_row("throughput_journaled", "journaled", journaled_s,
               journaled_ratio);
  overhead_row("throughput_telemetry", "telemetry-on", telemetry_s,
               telemetry_ratio);

  // --- long-session tracking: full re-solve vs incremental `!tick`. -----
  // A 5k-sample track session emitting one pose per read. The full path
  // re-runs the whole window pipeline per pose (window=5000 hop=1); the
  // incremental path holds the window open and answers `!tick` from the
  // maintained normal equations. Poses are serialized (send -> drain) so
  // each latency sample is one pose's end-to-end cost, pool included.
  constexpr std::size_t kPrefill = 5000;
  constexpr std::size_t kPoses = 100;
  const auto belt_row = [](std::size_t i) {
    const double t = 0.01 * static_cast<double>(i);
    const double x = -1.0 + 0.05 * t;
    const double d = std::sqrt(x * x + 0.6 * 0.6);
    const double phase = rf::wrap_phase(rf::distance_phase(d));
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"session\":\"trk\",\"x\":0,\"y\":0,\"z\":0,"
                  "\"phase\":%.17g,\"t\":%.17g}",
                  phase, t);
    return std::string(buf);
  };
  const auto track_declare = [](std::size_t window, std::size_t hop) {
    return "!session trk mode=track center=0,0,0 dir=1,0,0 speed=0.05 "
           "window=" +
           std::to_string(window) + " hop=" + std::to_string(hop) +
           " hint=-1,0.6,0";
  };

  std::vector<double> full_ms, tick_ms;
  std::size_t tick_fallbacks = 0;
  double full_wall_s = 0.0, tick_wall_s = 0.0;
  {
    serve::StreamService svc(serve::ServiceConfig{},
                             [](std::string_view) {});
    svc.ingest_line(track_declare(kPrefill, 1));
    for (std::size_t i = 0; i + 1 < kPrefill; ++i) {
      svc.ingest_line(belt_row(i));
    }
    svc.drain();
    bench::Timer run;
    for (std::size_t p = 0; p < kPoses; ++p) {
      bench::Timer t;
      svc.ingest_line(belt_row(kPrefill - 1 + p));  // completes a window
      svc.drain();
      full_ms.push_back(t.seconds() * 1e3);
    }
    full_wall_s = run.seconds();
    svc.finish();
  }
  {
    std::size_t incremental_poses = 0;
    serve::StreamService svc(
        serve::ServiceConfig{}, [&](std::string_view line) {
          if (line.find("\"schema\":\"lion.tick.v1\"") !=
              std::string_view::npos) {
            if (line.find("\"source\":\"incremental\"") !=
                std::string_view::npos) {
              ++incremental_poses;
            } else {
              ++tick_fallbacks;
            }
          }
        });
    svc.ingest_line(track_declare(10 * kPrefill, 10 * kPrefill));
    for (std::size_t i = 0; i + 1 < kPrefill; ++i) {
      svc.ingest_line(belt_row(i));
    }
    svc.drain();
    bench::Timer run;
    for (std::size_t p = 0; p < kPoses; ++p) {
      bench::Timer t;
      svc.ingest_line(belt_row(kPrefill - 1 + p));
      svc.ingest_line("!tick trk");
      svc.drain();
      tick_ms.push_back(t.seconds() * 1e3);
    }
    tick_wall_s = run.seconds();
    svc.finish();
    if (incremental_poses + tick_fallbacks != kPoses) {
      std::printf("warning: expected %zu tick responses, saw %zu\n", kPoses,
                  incremental_poses + tick_fallbacks);
    }
  }
  const double full_p95 = linalg::percentile(full_ms, 95);
  const double tick_p95 = linalg::percentile(tick_ms, 95);
  std::printf(
      "\ntrack poses over a %zu-sample window (%zu poses each):\n"
      "  full re-solve [ms]: p50 %.3f, p95 %.3f, p99 %.3f (%.0f poses/s)\n"
      "  `!tick`       [ms]: p50 %.3f, p95 %.3f, p99 %.3f (%.0f poses/s, "
      "%zu fallbacks)\n",
      kPrefill, kPoses, linalg::percentile(full_ms, 50), full_p95,
      linalg::percentile(full_ms, 99),
      static_cast<double>(kPoses) / full_wall_s,
      linalg::percentile(tick_ms, 50), tick_p95,
      linalg::percentile(tick_ms, 99),
      static_cast<double>(kPoses) / tick_wall_s, tick_fallbacks);
  report.row("track_full")
      .value("threads", 0.0)
      .value("window_rows", static_cast<double>(kPrefill))
      .value("items_per_s", static_cast<double>(kPoses) / full_wall_s)
      .value("latency_p50_ms", linalg::percentile(full_ms, 50))
      .value("latency_p95_ms", full_p95)
      .value("latency_p99_ms", linalg::percentile(full_ms, 99));
  report.row("track_tick")
      .value("threads", 0.0)
      .value("window_rows", static_cast<double>(kPrefill))
      .value("items_per_s", static_cast<double>(kPoses) / tick_wall_s)
      .value("latency_p50_ms", linalg::percentile(tick_ms, 50))
      .value("latency_p95_ms", tick_p95)
      .value("latency_p99_ms", linalg::percentile(tick_ms, 99))
      .value("fallbacks", static_cast<double>(tick_fallbacks));

  // --- calibrate `!flush` memo: an unchanged buffer is answered from the
  // last full solve's report (size + digest check), not solved again. One
  // full solve installs the memo; every one of kCalIncrFlushes repeat
  // flushes must then answer "memo". The check counts sources, not time,
  // so a memo that silently stopped matching fails it on any machine.
  constexpr std::size_t kCalRows = 5000;
  constexpr std::size_t kCalIncrFlushes = 100;
  const auto cal_traj = rig.build();
  const Vec3 cal_center{0.009, 0.789, 0.006};
  std::size_t cal_memo = 0, cal_fallback = 0;
  std::vector<double> cal_incr_ms;
  double cal_install_ms = 0.0, cal_incr_wall_s = 0.0;
  {
    serve::StreamService svc(
        serve::ServiceConfig{}, [&](std::string_view line) {
          if (line.find("\"schema\":\"lion.report.v1\"") ==
              std::string_view::npos) {
            return;
          }
          if (line.find("\"source\":\"memo\"") != std::string_view::npos) {
            ++cal_memo;
          } else {
            ++cal_fallback;
          }
        });
    svc.ingest_line("!session cal center=0.009,0.789,0.006 smoothing=1");
    for (std::size_t i = 0; i < kCalRows; ++i) {
      const double t = cal_traj.duration() * static_cast<double>(i) /
                       static_cast<double>(kCalRows - 1);
      const auto pos = cal_traj.position(t);
      const double phase = rf::wrap_phase(
          rf::distance_phase(linalg::distance(cal_center, pos)) + 2.1);
      char buf[160];
      std::snprintf(buf, sizeof buf, "%.17g,%.17g,%.17g,%.17g", pos[0],
                    pos[1], pos[2], phase);
      svc.ingest_line(buf);
    }
    svc.drain();
    bench::Timer install;
    svc.ingest_line("!flush cal");  // full solve installs the memo
    svc.drain();
    cal_install_ms = install.seconds() * 1e3;
    bench::Timer run;
    for (std::size_t p = 0; p < kCalIncrFlushes; ++p) {
      bench::Timer t;
      svc.ingest_line("!flush cal");
      svc.drain();
      cal_incr_ms.push_back(t.seconds() * 1e3);
    }
    cal_incr_wall_s = run.seconds();
    svc.finish();
  }
  const bool memo_ok = cal_memo == kCalIncrFlushes && cal_fallback == 1;
  std::printf(
      "\ncalibrate flushes over a %zu-row buffer:\n"
      "  installing full solve [ms]: %.3f\n"
      "  memo flush [ms]: p50 %.4f, p95 %.4f, p99 %.4f\n"
      "  sources: %zu memo, %zu fallback\n",
      kCalRows, cal_install_ms, linalg::percentile(cal_incr_ms, 50),
      linalg::percentile(cal_incr_ms, 95), linalg::percentile(cal_incr_ms, 99),
      cal_memo, cal_fallback);
  report.row("cal_incr")
      .value("threads", 0.0)
      .value("window_rows", static_cast<double>(kCalRows))
      .value("items_per_s",
             static_cast<double>(kCalIncrFlushes) / cal_incr_wall_s)
      .value("latency_p50_ms", linalg::percentile(cal_incr_ms, 50))
      .value("latency_p95_ms", linalg::percentile(cal_incr_ms, 95))
      .value("latency_p99_ms", linalg::percentile(cal_incr_ms, 99))
      .value("install_ms", cal_install_ms)
      .value("memo", static_cast<double>(cal_memo))
      .value("fallback", static_cast<double>(cal_fallback));

  // --- fleet ingest: sharded epoll front-end under a TCP fleet. --------
  // The server lives in this process so obs::process_* gauges measure the
  // serving side; the fleet client is a forked replay_client (its own fd
  // table, so 10k server conns + 10k client conns never share one
  // ulimit). The client sends declares + rows + a `!stats` barrier and no
  // `!flush` — this row is the ingest plane (accept, decode, route,
  // demux), not the solver. Gates:
  //   - the client's own completion checks (every barrier answered, zero
  //     errors/connect failures/idle drops) via its exit status;
  //   - peak fd growth >= fleet + idle: every connection was really held
  //     concurrently, not serialized by accept backpressure;
  //   - through the trailing idle hold, server fds must not grow and RSS
  //     must stay flat (the 10k-idle hold acceptance);
  //   - after the client exits, fds return to the pre-fleet baseline (no
  //     per-connection leak);
  //   - with `--fleet-floor R`, aggregate ingest >= R reads/s.
  bool fleet_ok = true;
  if (fleet > 0) {
    bench::banner(
        "Fleet ingest (sharded epoll front-end)",
        "every connection held at once, the idle fleet flat in fds/RSS "
        "through the hold, and no fd left after teardown");

    char csv_path[] = "/tmp/lion_bench_fleet_XXXXXX";
    const int csv_fd = ::mkstemp(csv_path);
    if (csv_fd < 0) {
      std::perror("mkstemp");
      return 1;
    }
    {
      const std::string& bytes = csv.str();
      std::size_t off = 0;
      while (off < bytes.size()) {
        const ssize_t n =
            ::write(csv_fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
          if (errno == EINTR) continue;
          std::perror("write scan csv");
          return 1;
        }
        off += static_cast<std::size_t>(n);
      }
      ::close(csv_fd);
    }

    serve::ServerConfig scfg;
    scfg.tcp_port = 0;
    scfg.shards = fleet_shards;
    scfg.max_connections = fleet + fleet_idle + 64;
    scfg.service.threads = 2;
    serve::SocketServer server(std::move(scfg));
    std::string err;
    if (!server.start(err)) {
      std::fprintf(stderr, "error: fleet server start: %s\n", err.c_str());
      ::unlink(csv_path);
      return 1;
    }
    const std::uint64_t base_fds = obs::process_open_fds();
    const std::string tcp_spec =
        "127.0.0.1:" + std::to_string(server.port());

    int out_pipe[2];
    if (::pipe(out_pipe) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t child = ::fork();
    if (child < 0) {
      std::perror("fork");
      return 1;
    }
    if (child == 0) {
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      const std::string fleet_s = std::to_string(fleet);
      const std::string idle_s = std::to_string(fleet_idle);
      char hold_s[32];
      std::snprintf(hold_s, sizeof hold_s, "%.3f", fleet_hold_s);
      const char* cargv[] = {replay_client.c_str(),
                             "--tcp", tcp_spec.c_str(),
                             "--file", csv_path,
                             "--fleet", fleet_s.c_str(),
                             "--idle", idle_s.c_str(),
                             "--fleet-hold", hold_s,
                             "--connect-timeout", "30",
                             "--id-prefix", "bench",
                             nullptr};
      ::execv(cargv[0], const_cast<char* const*>(cargv));
      std::fprintf(stderr, "error: exec %s: %s\n", replay_client.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    ::close(out_pipe[1]);
    ::fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);

    // Sample the serving process while the fleet runs; drain the child's
    // stdout as it goes so a chatty client can never fill the pipe.
    struct FootprintSample {
      double t_s;
      std::uint64_t fds;
      std::uint64_t rss;
    };
    std::vector<FootprintSample> footprint;
    std::string child_out;
    char buf[4096];
    bench::Timer child_wall;
    int status = 0;
    for (;;) {
      for (;;) {
        const ssize_t n = ::read(out_pipe[0], buf, sizeof buf);
        if (n > 0) {
          child_out.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        break;
      }
      const pid_t reaped = ::waitpid(child, &status, WNOHANG);
      if (reaped == child) break;
      footprint.push_back({child_wall.seconds(), obs::process_open_fds(),
                           obs::process_rss_bytes()});
      ::usleep(50 * 1000);
    }
    for (;;) {  // tail of the pipe after exit
      const ssize_t n = ::read(out_pipe[0], buf, sizeof buf);
      if (n > 0) {
        child_out.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    ::close(out_pipe[0]);
    std::fwrite(child_out.data(), 1, child_out.size(), stdout);
    const bool child_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!child_ok) {
      std::fprintf(stderr, "error: replay_client fleet exited %s %d\n",
                   WIFEXITED(status) ? "with status" : "on signal",
                   WIFEXITED(status) ? WEXITSTATUS(status)
                                     : WTERMSIG(status));
    }

    // The client prints one lion.fleet.v1 summary line; pull the numeric
    // fields straight out of it.
    const auto fleet_num = [&child_out](const char* key) -> double {
      const auto rec = child_out.find("\"schema\":\"lion.fleet.v1\"");
      if (rec == std::string::npos) return -1.0;
      const std::string pat = std::string("\"") + key + "\":";
      const auto pos = child_out.find(pat, rec);
      if (pos == std::string::npos) return -1.0;
      return std::strtod(child_out.c_str() + pos + pat.size(), nullptr);
    };
    const double fleet_reads = fleet_num("reads");
    const double fleet_wall_s = fleet_num("wall_s");
    const double fleet_reads_per_s = fleet_num("reads_per_s");
    const double fleet_conn_p95_ms = fleet_num("conn_wall_ms_p95");
    const double fleet_connect_p95_ms = fleet_num("connect_ms_p95");

    // Peak concurrency: one server fd per connection, so the fd high-water
    // mark proves the idle fleet was held all at once (active connections
    // complete and close at their own pace during the ramp, so the peak is
    // gated on the idle fleet, not idle + active).
    std::uint64_t peak_fds = base_fds;
    for (const FootprintSample& s : footprint) {
      peak_fds = std::max(peak_fds, s.fds);
    }
    const std::uint64_t conn_peak =
        peak_fds > base_fds ? peak_fds - base_fds : 0;
    const bool conn_ok = conn_peak >= fleet_idle;

    // Idle hold: the client keeps the idle fleet connected for the final
    // --fleet-hold seconds. Over that window (trimmed to dodge active
    // teardown overlap) fds must not grow and must still cover the idle
    // fleet, and RSS must stay flat.
    bool hold_ok = true;
    double hold_rss_delta_mb = 0.0;
    if (fleet_idle > 0 && fleet_hold_s >= 1.0) {
      // Anchor on the last instant the idle fleet was still fully held:
      // after the hold the client tears down 10k fds before exiting, and
      // that teardown tail must not masquerade as hold drift.
      double hold_end_t_s = -1.0;
      for (const FootprintSample& s : footprint) {
        if (s.fds >= base_fds + fleet_idle) hold_end_t_s = s.t_s;
      }
      std::vector<const FootprintSample*> window;
      for (const FootprintSample& s : footprint) {
        if (s.t_s >= hold_end_t_s - fleet_hold_s + 0.4 &&
            s.t_s <= hold_end_t_s) {
          window.push_back(&s);
        }
      }
      if (hold_end_t_s < 0.0 || window.size() < 2) {
        hold_ok = false;
        std::fprintf(stderr,
                     "error: fleet hold window has %zu samples (< 2)\n",
                     window.size());
      } else {
        const FootprintSample& first = *window.front();
        const FootprintSample& last = *window.back();
        hold_rss_delta_mb =
            (static_cast<double>(last.rss) - static_cast<double>(first.rss)) /
            (1024.0 * 1024.0);
        constexpr double kHoldRssBudgetMb = 16.0;
        hold_ok = last.fds <= first.fds &&
                  last.fds >= base_fds + fleet_idle &&
                  hold_rss_delta_mb <= kHoldRssBudgetMb;
        if (!hold_ok) {
          std::fprintf(stderr,
                       "error: idle hold drifted: fds %llu -> %llu "
                       "(baseline %llu + %zu idle), rss %+.1f MB\n",
                       static_cast<unsigned long long>(first.fds),
                       static_cast<unsigned long long>(last.fds),
                       static_cast<unsigned long long>(base_fds), fleet_idle,
                       hold_rss_delta_mb);
        }
      }
    }

    // Leak check: once the fleet disconnects, the server must return to
    // its pre-fleet fd count. Teardown of 10k connections is async, so
    // resample for up to 2 s before calling it a leak.
    std::uint64_t settled_fds = obs::process_open_fds();
    {
      bench::Timer settle;
      while (settled_fds > base_fds && settle.seconds() < 2.0) {
        ::usleep(50 * 1000);
        settled_fds = obs::process_open_fds();
      }
    }
    const bool leak_ok = settled_fds <= base_fds;
    if (!leak_ok) {
      std::fprintf(stderr,
                   "error: %llu fds still open after fleet teardown "
                   "(baseline %llu)\n",
                   static_cast<unsigned long long>(settled_fds),
                   static_cast<unsigned long long>(base_fds));
    }

    server.stop();
    ::unlink(csv_path);

    const bool floor_met =
        fleet_floor <= 0.0 || fleet_reads_per_s >= fleet_floor;
    if (!floor_met) {
      std::fprintf(stderr,
                   "error: fleet ingest %.0f reads/s < --fleet-floor %.0f\n",
                   fleet_reads_per_s, fleet_floor);
    }
    fleet_ok = child_ok && conn_ok && hold_ok && leak_ok && floor_met &&
               fleet_reads_per_s > 0.0;

    std::printf(
        "\nfleet: %zu active + %zu idle conns on %zu shards: "
        "%.0f reads/s aggregate (%.0f reads in %.3f s)\n",
        fleet, fleet_idle, fleet_shards, fleet_reads_per_s, fleet_reads,
        fleet_wall_s);
    std::printf(
        "fleet footprint: conn peak %llu (>= %zu needed), idle-hold rss "
        "%+.1f MB, settled fds %llu vs baseline %llu\n",
        static_cast<unsigned long long>(conn_peak), fleet_idle,
        hold_rss_delta_mb, static_cast<unsigned long long>(settled_fds),
        static_cast<unsigned long long>(base_fds));

    report.row("fleet")
        .value("threads", static_cast<double>(fleet_shards))
        .value("items_per_s", fleet_reads_per_s)
        .value("reads", fleet_reads)
        .value("wall_s", fleet_wall_s)
        .value("fleet", static_cast<double>(fleet))
        .value("idle", static_cast<double>(fleet_idle))
        .value("conn_peak", static_cast<double>(conn_peak))
        .value("hold_rss_delta_mb", hold_rss_delta_mb)
        .value("conn_wall_ms_p95", fleet_conn_p95_ms)
        .value("connect_ms_p95", fleet_connect_p95_ms);
  }

  const bool floor_ok = reads_per_s >= 1000.0;
  // The journaled path must keep 90% of the plain path's throughput
  // (write() per record is buffered; fsync is batched). Same bar for the
  // observability plane: relaxed atomics, bounded rings and a
  // rate-limited event log must cost < 10% of ingest throughput.
  const bool journal_ok = journaled_ratio >= 0.9;
  const bool telemetry_ok = telemetry_ratio >= 0.9;
  // The incremental fast path must beat a per-read full recompute of the
  // 5k-row window by >= 5x at p95, with every pose answered incrementally
  // (a fallback would mean the residual gate tripped on clean data).
  const bool tick_ok =
      full_p95 > 0.0 && tick_p95 * 5.0 <= full_p95 && tick_fallbacks == 0;
  std::printf("\nacceptance: ingest %.0f reads/s %s 1000 reads/s floor\n",
              reads_per_s, floor_ok ? ">=" : "<");
  std::printf("acceptance: journaled ingest %.3f of plain %s 0.9\n",
              journaled_ratio, journal_ok ? ">=" : "<");
  std::printf("acceptance: telemetry-on ingest %.3f of plain %s 0.9\n",
              telemetry_ratio, telemetry_ok ? ">=" : "<");
  std::printf(
      "acceptance: `!tick` p95 %.3f ms %s full re-solve p95 %.3f ms / 5 "
      "(%zu fallbacks)\n",
      tick_p95, tick_ok ? "<=" : ">", full_p95, tick_fallbacks);
  std::printf(
      "acceptance: calibrate flushes %zu memo + %zu fallback %s %zu + 1\n",
      cal_memo, cal_fallback, memo_ok ? "==" : "!=", kCalIncrFlushes);
  if (fleet > 0) {
    std::printf("acceptance: fleet footprint + ingest floor %s\n",
                fleet_ok ? "ok" : "FAILED");
  }
  return floor_ok && journal_ok && telemetry_ok && tick_ok && memo_ok &&
                 fleet_ok
             ? 0
             : 1;
}
