// The serve counter table (serve::kServeCounters) behind every surface:
// one service driven through a mix that moves the counters, then each
// counter read back from stats(), `!stats`, `!healthz` and the /metrics
// body must agree; `!stats` bytes are pinned to the frozen lion.stats.v1
// field list; and no /metrics family is typed twice.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "engine/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "rf/phase_model.hpp"
#include "serve/journal.hpp"
#include "serve/service.hpp"
#include "serve/telemetry.hpp"

#include "journal_edit.hpp"

namespace lion::serve {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/lion_counter_test_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    path = dir ? dir : "";
  }
  ~TempDir() {
    if (::DIR* d = ::opendir(path.c_str())) {
      while (dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        const std::string entry = path + "/" + name;
        if (::unlink(entry.c_str()) != 0) ::rmdir(entry.c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
};

/// Thread-safe line collector for a service sink.
struct Lines {
  std::mutex mu;
  std::vector<std::string> all;

  void operator()(std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    all.emplace_back(line);
  }
  /// The last line of `schema`, or "" when none arrived.
  std::string last(const std::string& schema) {
    std::lock_guard<std::mutex> lock(mu);
    const std::string key = "{\"schema\":\"" + schema + "\"";
    for (auto it = all.rbegin(); it != all.rend(); ++it) {
      if (it->rfind(key, 0) == 0) return *it;
    }
    return "";
  }
  std::size_t count(const std::string& needle) {
    std::lock_guard<std::mutex> lock(mu);
    std::size_t n = 0;
    for (const auto& l : all) n += l.find(needle) != std::string::npos;
    return n;
  }
};

/// The number after `"key":` in a JSON line; -1 when absent.
double json_field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + pos + pat.size(), nullptr);
}

/// Every unlabelled sample of a Prometheus body, by family name.
std::map<std::string, double> metric_samples(const std::string& body) {
  std::map<std::string, double> out;
  std::istringstream iss(body);
  for (std::string line; std::getline(iss, line);) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (line.find('{') != std::string::npos) continue;
    out[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

/// Calibrate CSV rows along a rail under an antenna at (0, 0.8, 0).
std::vector<std::string> rail_rows(std::size_t n, std::size_t offset = 0) {
  std::vector<std::string> rows;
  for (std::size_t i = offset; i < offset + n; ++i) {
    const double x = -0.6 + 0.01 * static_cast<double>(i);
    const double phase = rf::wrap_phase(
        rf::distance_phase(std::sqrt(x * x + 0.8 * 0.8)));
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.9g,0,0,%.9g", x, phase);
    rows.emplace_back(buf);
  }
  return rows;
}

/// Track JSON row: a tag down the x belt at 1 m/s past the origin.
std::string belt_row(int i) {
  const double t = 0.01 * i;
  const double x = -1.0 + t;
  const double phase =
      rf::wrap_phase(rf::distance_phase(std::sqrt(x * x + 0.6 * 0.6)));
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"session\":\"belt\",\"x\":0,\"y\":0,\"z\":0,"
                "\"phase\":%.17g,\"t\":%.17g}",
                phase, t);
  return buf;
}

TEST(CounterTable, EveryCounterAgreesOnEverySurface) {
  TempDir dir;
  JournalStoreConfig jcfg;
  jcfg.dir = dir.path;
  JournalStore store(jcfg);
  ASSERT_TRUE(store.ok()) << store.error();

  // The deadline clock stands still unless `late` is set; then every
  // reading is 1000 s after the last, so whatever is submitted meanwhile
  // is past its deadline when a worker picks it up.
  std::atomic<bool> late{false};
  std::atomic<int> readings{0};
  engine::ThreadPool pool(1);
  Lines out;
  ServiceConfig cfg;
  cfg.journal = &store;
  cfg.reject_when_busy = true;
  cfg.max_inflight_per_session = 1;
  cfg.idle_ttl_ticks = 100000;
  cfg.max_line_bytes = 1024;
  cfg.request_timeout_s = 60.0;
  cfg.clock = [&] { return late ? 1000.0 * ++readings : 0.0; };
  StreamService service(
      cfg, [&out](std::string_view line) { out(line); }, &pool);
  const auto feed = [&service](const std::vector<std::string>& lines,
                               std::uint64_t origin = 0) {
    for (const auto& l : lines) service.ingest_line(l, origin);
    service.drain();
  };

  // Calibrate: rows and a parse error, then a full solve held on the
  // pool so a second flush is refused busy; the next flush finds the
  // buffer unchanged and answers from the memo.
  feed({"!session cal center=0,0.8,0"});
  feed(rail_rows(40));
  feed({"1,2,3,nonsense"});
  std::promise<void> started;
  std::promise<void> gate;
  pool.submit([&started, opened = gate.get_future().share()] {
    started.set_value();
    opened.wait();
  });
  started.get_future().wait();  // the pool's one worker is now held
  service.ingest_line("!flush cal");
  service.ingest_line("!flush cal");
  gate.set_value();
  service.drain();
  feed({"!flush cal"});
  EXPECT_NE(out.last("lion.report.v1").find("\"source\":\"memo\""),
            std::string::npos);
  // A changed buffer flushed past its deadline.
  feed(rail_rows(1, 40));
  late = true;
  feed({"!flush cal"});
  late = false;

  // Track: window fixes, incremental and fallback pose ticks.
  feed({"!session belt mode=track center=0,0,0 dir=1,0,0 speed=1 "
        "window=64 hop=32 hint=-1,0.6,0"});
  for (int i = 0; i < 160; ++i) {
    feed({belt_row(i)});
    if ((i + 1) % 10 == 0) feed({"!tick belt"});
  }

  // An oversized line, through the service's own line splitter.
  service.ingest_bytes(std::string(2000, 'x') + "\n");
  service.drain();

  // Restores: each session is flushed, its connection dropped, then
  // re-declared. "keep" installs its journaled memo; "bare" has its
  // anchors stripped to the bare-count form and re-solves instead.
  for (const auto& [id, origin] :
       {std::pair<std::string, std::uint64_t>{"keep", 7}, {"bare", 8}}) {
    const std::string declare = "!session " + id + " center=0,0.8,0";
    feed({declare}, origin);
    feed(rail_rows(30), origin);
    feed({"!flush " + id}, origin);
    service.release_origin(origin);
    if (id == "bare") {
      ASSERT_EQ(strip_anchor_reports(store.path_for(id)), 1u);
    }
    feed({declare}, origin);
  }
  EXPECT_EQ(out.count("\"schema\":\"lion.restore.v1\""), 2u);

  // A journal that cannot be opened degrades its session.
  ASSERT_EQ(::mkdir(store.path_for("jerr").c_str(), 0700), 0);
  feed({"!session jerr center=0,0.8,0"});

  // Advance the virtual clock past the idle TTL: every session evicts.
  feed({"!tick 200000"});
  EXPECT_EQ(service.stats().sessions, 0u);

  // A registry reset must not touch serve counters (they never lived
  // there), whether or not metrics are enabled.
  obs::MetricsRegistry::instance().reset();

  feed({"!stats"});
  const ServeStats at_stats = service.stats();
  const auto metrics_at_stats =
      metric_samples(render_metrics_body({service.telemetry()}, nullptr));
  const std::string stats_line = out.last("lion.stats.v1");
  ASSERT_FALSE(stats_line.empty());
  feed({"!healthz"});
  const ServeStats at_health = service.stats();
  const auto metrics_at_health =
      metric_samples(render_metrics_body({service.telemetry()}, nullptr));
  const std::string health_line = out.last("lion.health.v1");
  ASSERT_FALSE(health_line.empty());

  // Left unmoved by this mix: backpressure_waits (this service rejects at
  // the cap instead of waiting; test_concurrency.cpp moves it) and
  // replay_memo_failures (nothing in the pipeline can be made to throw
  // while a restore rebuilds the memo).
  const std::vector<ServeCounter> unmoved = {
      ServeCounter::kBackpressureWaits, ServeCounter::kReplayMemoFailures};
  for (const ServeCounterSpec& spec : kServeCounters) {
    SCOPED_TRACE(spec.name);
    const std::string family = std::string("lion_serve_") + spec.name +
                               "_total";
    const double value = static_cast<double>(at_health[spec.id]);
    EXPECT_EQ(json_field(health_line, spec.name), value);
    ASSERT_EQ(metrics_at_health.count(family), 1u);
    EXPECT_EQ(metrics_at_health.at(family), value);
    ASSERT_EQ(metrics_at_stats.count(family), 1u);
    EXPECT_EQ(metrics_at_stats.at(family),
              static_cast<double>(at_stats[spec.id]));
    if (spec.stats_v1) {
      EXPECT_EQ(json_field(stats_line, spec.name),
                static_cast<double>(at_stats[spec.id]));
    } else {
      EXPECT_EQ(json_field(stats_line, spec.name), -1.0);
    }
    const bool expect_moved =
        std::find(unmoved.begin(), unmoved.end(), spec.id) == unmoved.end();
    EXPECT_EQ(value > 0.0, expect_moved);
  }
  // Only the two surface lines themselves came in between.
  EXPECT_EQ(at_health[ServeCounter::kLines],
            at_stats[ServeCounter::kLines] + 1);
  EXPECT_EQ(at_health[ServeCounter::kEvictions], 5u);
  EXPECT_EQ(at_health[ServeCounter::kRestores], 2u);
  EXPECT_EQ(at_health[ServeCounter::kReplaySolves], 1u);
  EXPECT_EQ(at_health[ServeCounter::kReplayMemoRestores], 1u);
  EXPECT_EQ(at_health[ServeCounter::kClockAdvances], 200000u);
  EXPECT_EQ(json_field(health_line, "ticks"),
            static_cast<double>(at_health.ticks));
  // The fallback ratios are the counters' ratios on both surfaces.
  const FallbackRatios ratios = fallback_ratios(at_health);
  const auto share = [&at_health](ServeCounter part, ServeCounter whole) {
    return static_cast<double>(at_health[part]) /
           static_cast<double>(at_health[whole]);
  };
  EXPECT_EQ(ratios.tick,
            share(ServeCounter::kTickFallbacks, ServeCounter::kPoseTicks));
  EXPECT_EQ(ratios.cal,
            share(ServeCounter::kCalFallbacks, ServeCounter::kCalFlushes));
  EXPECT_EQ(json_field(health_line, "tick_fallback_ratio"), ratios.tick);
  EXPECT_EQ(json_field(health_line, "cal_fallback_ratio"), ratios.cal);
  EXPECT_EQ(metrics_at_health.at("lion_serve_tick_fallback_ratio"),
            ratios.tick);
  EXPECT_EQ(metrics_at_health.at("lion_serve_cal_fallback_ratio"),
            ratios.cal);
}

// The lion.stats.v1 field list is frozen: clients key on it.
TEST(CounterTable, StatsLineBytesArePinned) {
  Lines out;
  ServiceConfig cfg;
  cfg.threads = 1;
  StreamService service(cfg, [&out](std::string_view line) { out(line); });
  for (const char* line :
       {"!session a center=0,0.8,0", "0.1,0.2,0.3,1.5", "0.2,0.2,0.3,1.7",
        "1,2,3,nonsense", "!flush a", "!tick 3", "!stats"}) {
    service.ingest_line(line);
  }
  service.finish();
  EXPECT_EQ(out.last("lion.stats.v1"),
            "{\"schema\":\"lion.stats.v1\",\"seq\":2,\"sessions\":1,"
            "\"lines\":7,\"samples\":2,\"parse_errors\":1,\"reports\":1,"
            "\"fixes\":0,\"errors\":1,\"evictions\":0,"
            "\"backpressure_waits\":0,\"rejected_busy\":0,\"timeouts\":0,"
            "\"oversized\":0,\"pose_ticks\":0,\"tick_fallbacks\":0,"
            "\"cal_flushes\":1,\"cal_memo\":0,\"cal_fallbacks\":1,"
            "\"ticks\":10}");
}

// Every family on /metrics is typed once: a counter rendered by two
// sources would print its `# TYPE` line twice.
TEST(CounterTable, EveryMetricsFamilyHasOneTypeLine) {
  for (const bool metrics_on : {false, true}) {
    SCOPED_TRACE(metrics_on ? "metrics on" : "metrics off");
    obs::set_metrics_enabled(metrics_on);
    Lines out;
    StreamService service(ServiceConfig{},
                          [&out](std::string_view line) { out(line); });
    service.ingest_line("!session g center=0,0.8,0");
    for (const auto& l : rail_rows(20)) service.ingest_line(l);
    service.ingest_line("!flush g");
    service.drain();
    const std::string body =
        render_metrics_body({service.telemetry(), service.telemetry()},
                            nullptr, {ShardGauges{}}, 1);
    obs::set_metrics_enabled(false);
    std::map<std::string, int> typed;
    std::istringstream iss(body);
    for (std::string line; std::getline(iss, line);) {
      if (line.rfind("# TYPE ", 0) != 0) continue;
      ++typed[line.substr(7, line.find(' ', 7) - 7)];
    }
    for (const ServeCounterSpec& spec : kServeCounters) {
      EXPECT_EQ(typed[std::string("lion_serve_") + spec.name + "_total"], 1)
          << spec.name;
    }
    for (const auto& [family, n] : typed) {
      EXPECT_EQ(n, 1) << family;
    }
    // Summed over both snapshots of the one service.
    EXPECT_NE(body.find("\nlion_serve_cal_flushes_total 2\n"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace lion::serve
