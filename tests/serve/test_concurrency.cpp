// Concurrency behavior of the session manager: N producer threads over M
// sessions, bounded in-flight queues with lossless backpressure, a shared
// worker pool across services, and determinism of the single-ingest-thread
// contract (including eviction under the virtual clock).

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/thread_pool.hpp"
#include "serve/service.hpp"

namespace lion::serve {
namespace {

std::string json_row(int i, const std::string& session = "") {
  std::string row = "{";
  if (!session.empty()) {
    row += "\"session\":\"";
    row += session;
    row += "\",";
  }
  row += "\"x\":";
  row += std::to_string(0.01 * i);
  row += ",\"y\":0.2,\"z\":0,\"phase\":";
  row += std::to_string(i % 7);
  row += ",\"t\":";
  row += std::to_string(0.1 * i);
  row += "}";
  return row;
}

TEST(Concurrency, ManyProducersManySessions) {
  constexpr int kProducers = 4;
  constexpr int kSessions = 4;
  constexpr int kRowsPerProducer = 200;

  std::mutex mu;
  std::vector<std::string> lines;
  StreamService service(ServiceConfig{}, [&](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  });

  std::vector<std::string> names;
  for (int s = 0; s < kSessions; ++s) {
    std::string name = "s";
    name += std::to_string(s);
    names.push_back(std::move(name));
  }
  for (const std::string& name : names) {
    service.ingest_line("!session " + name + " center=0,0.8,0");
  }

  // ingest_line is thread-safe; producers interleave arbitrarily, each
  // row naming its session inline so the interleaving cannot corrupt demux.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, &names, p] {
      for (int i = 0; i < kRowsPerProducer; ++i) {
        service.ingest_line(json_row(i, names[(p + i) % kSessions]));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (int s = 0; s < kSessions; ++s) {
    service.ingest_line("!flush s" + std::to_string(s));
  }
  service.finish();

  const auto stats = service.stats();
  EXPECT_EQ(stats[ServeCounter::kSamples],
            static_cast<std::uint64_t>(kProducers * kRowsPerProducer));
  EXPECT_EQ(stats[ServeCounter::kParseErrors], 0u);
  EXPECT_EQ(stats[ServeCounter::kReports],
            static_cast<std::uint64_t>(kSessions));

  // Exactly one report per session, seqs strictly increasing, and every
  // line is a complete JSON object (the sink is serialized).
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kSessions));
  std::uint64_t last_seq = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"schema\":\"lion.report.v1\""),
              std::string::npos)
        << lines[i];
    const auto pos = lines[i].find("\"seq\":");
    ASSERT_NE(pos, std::string::npos);
    const std::uint64_t seq = std::stoull(lines[i].substr(pos + 6));
    if (i > 0) {
      EXPECT_GT(seq, last_seq) << lines[i];
    }
    last_seq = seq;
  }
}

TEST(Concurrency, BackpressureBlocksLosslesslyAtInflightOne) {
  // With one in-flight slot per session, rapid flushes must *wait*, not
  // drop: every flush still produces its report, in order.
  ServiceConfig cfg;
  cfg.max_inflight_per_session = 1;
  cfg.threads = 2;
  std::mutex mu;
  std::vector<std::string> lines;
  StreamService service(cfg, [&](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  });
  service.ingest_line("!session a center=0,0.8,0");
  constexpr int kFlushes = 12;
  for (int f = 0; f < kFlushes; ++f) {
    for (int i = 0; i < 30; ++i) service.ingest_line(json_row(f * 30 + i));
    service.ingest_line("!flush a");
  }
  service.finish();
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kFlushes));
  for (const auto& line : lines) {
    EXPECT_NE(line.find("\"schema\":\"lion.report.v1\""), std::string::npos)
        << line;
  }
  EXPECT_GT(service.stats()[ServeCounter::kBackpressureWaits], 0u);
  EXPECT_EQ(service.stats()[ServeCounter::kRejectedBusy], 0u);
}

TEST(Concurrency, SharedPoolAcrossServices) {
  // Two services on one caller-owned pool (the SocketServer topology):
  // both make progress, neither corrupts the other's output.
  engine::ThreadPool pool(3);
  std::mutex mu_a, mu_b;
  std::vector<std::string> lines_a, lines_b;
  {
    StreamService a(ServiceConfig{}, [&](std::string_view l) {
      std::lock_guard<std::mutex> lock(mu_a);
      lines_a.emplace_back(l);
    }, &pool);
    StreamService b(ServiceConfig{}, [&](std::string_view l) {
      std::lock_guard<std::mutex> lock(mu_b);
      lines_b.emplace_back(l);
    }, &pool);
    std::thread ta([&a] {
      a.ingest_line("!session x center=0,0.8,0");
      for (int i = 0; i < 100; ++i) a.ingest_line(json_row(i));
      a.ingest_line("!flush x");
      a.finish();
    });
    std::thread tb([&b] {
      b.ingest_line("!session y center=0,0.8,0");
      for (int i = 0; i < 100; ++i) b.ingest_line(json_row(i + 1));
      b.ingest_line("!flush y");
      b.finish();
    });
    ta.join();
    tb.join();
  }
  pool.wait_idle();
  ASSERT_EQ(lines_a.size(), 1u);
  ASSERT_EQ(lines_b.size(), 1u);
  EXPECT_NE(lines_a[0].find("\"session\":\"x\""), std::string::npos);
  EXPECT_NE(lines_b[0].find("\"session\":\"y\""), std::string::npos);
}

TEST(Concurrency, EvictionUnderVirtualClockIsDeterministic) {
  // The determinism contract: one ingest thread in, the byte stream out is
  // a pure function of the input — including evictions, which ride the
  // virtual clock (ticks), never wall time. Two runs with worker pools of
  // different sizes must still emit identical bytes.
  const std::vector<std::string> script = [] {
    std::vector<std::string> s;
    s.push_back("!session old center=0,0.8,0");
    for (int i = 0; i < 10; ++i) s.push_back(json_row(i, "old"));
    s.push_back("!session young center=0,0.8,0");
    s.push_back("!flush old");
    s.push_back("!tick 40");
    s.push_back("!stats");
    return s;
  }();

  auto run = [&script](std::size_t threads) {
    ServiceConfig cfg;
    cfg.idle_ttl_ticks = 30;
    cfg.threads = threads;
    std::vector<std::string> lines;
    StreamService service(cfg, [&lines](std::string_view l) {
      lines.emplace_back(l);
    });
    for (const auto& line : script) service.ingest_line(line);
    service.finish();
    return lines;
  };

  const auto one = run(1);
  const auto four = run(4);
  EXPECT_EQ(one, four);
  // The script evicts both sessions at the tick jump (old went idle when
  // flushed; young never saw traffic after its declare).
  ASSERT_EQ(one.size(), 4u);  // report, 2 evict events, stats
  EXPECT_NE(one[1].find("\"event\":\"evict\""), std::string::npos) << one[1];
  EXPECT_NE(one[2].find("\"event\":\"evict\""), std::string::npos) << one[2];
  EXPECT_NE(one[3].find("\"schema\":\"lion.stats.v1\""), std::string::npos);
}

TEST(Concurrency, DrainIsIdempotentAndDestructionIsClean) {
  // Destroying a service with work in flight must not crash or deadlock;
  // drain() may be called repeatedly.
  for (int trial = 0; trial < 10; ++trial) {
    std::atomic<int> responses{0};
    StreamService service(ServiceConfig{}, [&](std::string_view) {
      responses.fetch_add(1);
    });
    service.ingest_line("!session a center=0,0.8,0");
    for (int i = 0; i < 50; ++i) service.ingest_line(json_row(i));
    service.ingest_line("!flush a");
    if (trial % 2 == 0) {
      service.drain();
      service.drain();
      EXPECT_EQ(responses.load(), 1);
    }
    // else: destructor drains.
  }
}

}  // namespace
}  // namespace lion::serve
