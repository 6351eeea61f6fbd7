// Serve-side guarantees of the adaptive-sweep fan-out: a calibrate solve
// borrows idle pool workers for its sweep cells, yet never waits for one.
// A 1-thread pool, a pool whose workers are all stuck on the service
// mutex, and a service torn down while its helpers are still queued must
// all complete with the batch bytes. The restore tests solve through the
// same fan-out by replaying bare-count anchors (the re-solve path); restore
// cost is pinned here too: a journal this daemon wrote restores its last
// memo from the anchor bytes, with no solve, however many flushes it holds.

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/calibration.hpp"
#include "engine/thread_pool.hpp"
#include "io/csv.hpp"
#include "io/report_json.hpp"
#include "obs/obs.hpp"
#include "rf/phase_model.hpp"
#include "serve/journal.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "sim/trajectory.hpp"

#include "journal_edit.hpp"

namespace lion::serve {
namespace {

constexpr char kDeclare[] = "!session cal center=0.009,0.789,0.006";

/// Clean three-line-rig scan on a dt = 0.1 grid with full CSV columns.
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
    std::snprintf(buf, sizeof buf, "%.17g,%.17g,%.17g,%.17g,-55,0,%.17g",
                  p[0], p[1], p[2], phase, t);
    rows.emplace_back(buf);
  }
  return rows;
}

/// Declare, then the rig rows in `flushes` equal chunks, each followed by
/// a !flush — every flush sees more rows than the last.
std::vector<std::string> session_input(std::size_t flushes) {
  const auto rows = rig_rows();
  std::vector<std::string> input{kDeclare};
  for (std::size_t f = 0; f < flushes; ++f) {
    const std::size_t begin = rows.size() * f / flushes;
    const std::size_t end = rows.size() * (f + 1) / flushes;
    input.insert(input.end(), rows.begin() + static_cast<std::ptrdiff_t>(begin),
                 rows.begin() + static_cast<std::ptrdiff_t>(end));
    input.push_back("!flush cal");
  }
  return input;
}

std::vector<std::string> reports(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const auto& l : lines) {
    if (l.find("\"schema\":\"lion.report.v1\"") != std::string::npos) {
      out.push_back(l);
    }
  }
  return out;
}

bool has_restore_ack(const std::vector<std::string>& lines) {
  for (const auto& l : lines) {
    if (l.rfind("{\"schema\":\"lion.restore.v1\"", 0) == 0) return true;
  }
  return false;
}

std::uint64_t counter(const char* name) {
  for (const auto& [n, v] :
       obs::MetricsRegistry::instance().snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/lion_fanout_test_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    path = dir ? dir : "";
  }
  ~TempDir() {
    if (::DIR* d = ::opendir(path.c_str())) {
      while (dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") ::unlink((path + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
};

/// A journaled service on `dir`, scheduling on `pool` (nullptr: its own
/// 2-thread pool). Destroying it is the in-process SIGKILL analogue.
struct Daemon {
  std::mutex mu;
  std::vector<std::string> lines;
  std::unique_ptr<JournalStore> store;
  std::unique_ptr<StreamService> service;

  explicit Daemon(const std::string& dir,
                  engine::ThreadPool* pool = nullptr) {
    JournalStoreConfig jcfg;
    jcfg.dir = dir;
    store = std::make_unique<JournalStore>(jcfg);
    EXPECT_TRUE(store->ok()) << store->error();
    ServiceConfig cfg;
    cfg.threads = 2;
    cfg.journal = store.get();
    StreamService::Sink sink = [this](std::string_view line) {
      std::lock_guard<std::mutex> lock(mu);
      lines.emplace_back(line);
    };
    service = pool ? std::make_unique<StreamService>(cfg, sink, pool)
                   : std::make_unique<StreamService>(cfg, sink);
  }

  void feed(const std::vector<std::string>& input) {
    for (const auto& l : input) service->ingest_line(l);
    service->drain();
  }

  std::vector<std::string> output() {
    std::lock_guard<std::mutex> lock(mu);
    return lines;
  }
};

/// Report lines of an uninterrupted, unjournaled run over `input`.
std::vector<std::string> uninterrupted(const std::vector<std::string>& input) {
  std::vector<std::string> lines;
  ServiceConfig cfg;
  cfg.threads = 2;
  StreamService service(
      cfg, [&lines](std::string_view line) { lines.emplace_back(line); });
  for (const auto& l : input) service.ingest_line(l);
  service.finish();
  return reports(lines);
}

class FanoutServe : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_metrics_enabled(true); }
  void TearDown() override { obs::set_metrics_enabled(false); }
};

TEST_F(FanoutServe, OneThreadPoolFlushMatchesBatch) {
  // One pool thread means no helpers: the worker claims all 36 cells.
  const auto input = session_input(1);
  std::vector<std::string> lines;
  ServiceConfig cfg;
  cfg.threads = 1;
  {
    StreamService service(
        cfg, [&lines](std::string_view line) { lines.emplace_back(line); });
    for (const auto& l : input) service.ingest_line(l);
    service.finish();
  }
  const auto got = reports(lines);
  ASSERT_EQ(got.size(), 1u);

  SessionConfig session;
  std::string error;
  ASSERT_TRUE(make_session_config(parse_line(kDeclare), session, error))
      << error;
  io::CsvStreamParser parser;
  std::vector<sim::PhaseSample> samples;
  for (std::size_t i = 1; i + 1 < input.size(); ++i) {
    const auto row = parser.push_line(input[i]);
    if (row.status == io::CsvRowStatus::kSample) samples.push_back(row.sample);
  }
  const std::string batch = io::report_json(core::calibrate_antenna_robust(
      samples, session.center, session.calibration));
  EXPECT_NE(got[0].find("\"report\":" + batch + "}"), std::string::npos)
      << got[0];
}

TEST_F(FanoutServe, RestoreInstallsTheJournaledMemoWhateverTheFlushHistory) {
  for (const std::size_t flushes : {1u, 6u}) {
    SCOPED_TRACE("flushes=" + std::to_string(flushes));
    const auto input = session_input(flushes);
    auto with_flush = input;
    with_flush.push_back("!flush cal");
    const auto want = uninterrupted(with_flush);
    ASSERT_EQ(want.size(), flushes + 1);

    TempDir dir;
    {
      Daemon p1(dir.path);
      p1.feed(input);
      std::size_t anchors = 0;  // every fallback journals an anchor
      for (const auto& r : reports(p1.output())) {
        anchors += r.find("\"source\":\"fallback\"") != std::string::npos;
      }
      EXPECT_GE(anchors, flushes > 1 ? 2u : 1u);
    }
    Daemon p2(dir.path);
    p2.service->ingest_line(kDeclare);
    EXPECT_TRUE(has_restore_ack(p2.output()));
    const ServeStats stats = p2.service->stats();
    EXPECT_EQ(stats[ServeCounter::kReplaySolves], 0u);
    EXPECT_EQ(stats[ServeCounter::kReplayMemoRestores], 1u);
    p2.feed({"!flush cal"});
    const auto got = reports(p2.output());
    ASSERT_EQ(got.size(), 1u);
    // Same bytes (source tag included) as the uninterrupted session's
    // next flush: the last anchor's bytes are the state all of them built.
    EXPECT_EQ(got[0], want.back());
  }
}

TEST_F(FanoutServe, RestoreCompletesWhilePoolWorkersWaitOnTheServiceMutex) {
  const auto input = session_input(1);
  auto with_flush = input;
  with_flush.push_back("!flush cal");
  const auto want = uninterrupted(with_flush);

  TempDir dir;
  { Daemon(dir.path).feed(input); }
  ASSERT_EQ(strip_anchor_reports(dir.path + "/cal.lionj"), 1u);

  // Both pool workers loop on the service mutex until the restore is
  // over, so none can run a sweep helper meanwhile: the replay solve of
  // the bare anchor must finish on the restoring thread alone.
  engine::ThreadPool pool(2);
  Daemon p2(dir.path, &pool);
  std::atomic<bool> restored{false};
  std::atomic<int> parked{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      parked.fetch_add(1);
      while (!restored.load()) {
        (void)p2.service->stats();
        std::this_thread::yield();
      }
    });
  }
  while (parked.load() < 2) std::this_thread::yield();
  const std::uint64_t offloaded = counter("adaptive.cells_offloaded");
  p2.service->ingest_line(kDeclare);
  restored.store(true);
  pool.wait_idle();
  EXPECT_TRUE(has_restore_ack(p2.output()));
  EXPECT_EQ(counter("adaptive.cells_offloaded"), offloaded);

  p2.feed({"!flush cal"});
  const auto got = reports(p2.output());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], want.back());
}

TEST_F(FanoutServe, ServiceTeardownWithQueuedHelpersIsClean) {
  const auto input = session_input(1);
  TempDir dir;
  { Daemon(dir.path).feed(input); }
  ASSERT_EQ(strip_anchor_reports(dir.path + "/cal.lionj"), 1u);

  // The only worker is parked, so the sweep helpers of the bare anchor's
  // replay solve stay queued until after the service (and everything its
  // solve used) is gone. When they finally run they must find nothing
  // left to claim.
  engine::ThreadPool pool(1);
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  // Wait until the worker holds the gate task: a worker that had not yet
  // woken would pop the newest task first and run a helper during the
  // restore, publishing its offload count after the snapshot below.
  std::promise<void> parked;
  std::future<void> parked_seen = parked.get_future();
  pool.submit([gate, &parked] {
    parked.set_value();
    gate.wait();
  });
  parked_seen.wait();
  {
    Daemon p2(dir.path, &pool);
    p2.service->ingest_line(kDeclare);
    EXPECT_TRUE(has_restore_ack(p2.output()));
  }
  const std::uint64_t offloaded = counter("adaptive.cells_offloaded");
  release.set_value();
  pool.wait_idle();
  EXPECT_EQ(counter("adaptive.cells_offloaded"), offloaded);

  // A service-owned pool torn down right after a flush: whatever helpers
  // are still queued or running at that moment die with it.
  ServiceConfig cfg;
  cfg.threads = 4;
  std::vector<std::string> lines;
  {
    StreamService service(
        cfg, [&lines](std::string_view line) { lines.emplace_back(line); });
    for (const auto& l : input) service.ingest_line(l);
    service.drain();
  }
  EXPECT_EQ(reports(lines).size(), 1u);
}

}  // namespace
}  // namespace lion::serve
