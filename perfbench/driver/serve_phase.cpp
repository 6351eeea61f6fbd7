// Serve phases: a journaled serve::SocketServer hosted in this process and
// driven over loopback TCP by perfbench::Conn clients (kConns connections,
// all on the calling thread).
//
//   setup        — start, connect, declare, barrier; timed in slots
//                  between the measured runs of the other phases.
//   serve_ingest — closed loop, in passes between the batch runs: every
//                  connection streams rig-scan rows for its calibrate
//                  sessions as fast as TCP backpressure admits, with the
//                  metrics registry on and /metrics scraped at a fixed
//                  interval; no `!flush`. A pass ends with a `!stats`
//                  barrier; the last one then restarts on the same journal
//                  directory and restores every session (three times).
//   serve_flush  — open loop: rows, `!flush`es and `!tick`s leave on a
//                  fixed schedule. Each calibrate session is one fleet
//                  antenna and runs one cycle: scan -> `!flush` ->
//                  repeated `!flush` -> small append -> `!flush` ->
//                  `!close` (the last cycle of each slot stays open, so
//                  the restarts restore a flush history).
//
// Every answer is checked: calibrate reports byte for byte against
// calibrate_antenna_robust on the same rows (the batch_fleet reports for
// the scan prefix), ticks against a mirrored IncrementalTrackSolver, and
// restore acks against the rows and flushes sent.

#include <dirent.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>

#include "core/incremental.hpp"
#include "driver/client.hpp"
#include "driver/harness.hpp"
#include "engine/batch.hpp"
#include "io/report_json.hpp"
#include "obs/obs.hpp"
#include "rf/phase_model.hpp"
#include "rf/rng.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/telemetry.hpp"
#include "serve/wire.hpp"

namespace perfbench {

namespace serve = lion::serve;

namespace {

// ---------------------------------------------------------------------------
// Daemon: the program under test, started and stopped like lion_served.
// ---------------------------------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  /// Start journaled on `journal_dir`, or unjournaled when it is empty.
  bool start(const std::string& journal_dir, bool telemetry,
             std::string& error) {
    serve::ServerConfig cfg;
    cfg.tcp_port = 0;
    cfg.shards = kShards;
    cfg.service.threads = kPoolThreads;
    if (!journal_dir.empty()) {
      serve::JournalStoreConfig jcfg;
      jcfg.dir = journal_dir;
      // Every record is still written as it is applied, but fsynced only
      // where the program forces it (each `!flush`, teardown), not every
      // 1024 records: the benchmark's disk is shared with other tenants,
      // and the batched fsyncs of a closed-loop ingest (~70 MB/s of
      // journal) made its rate follow their I/O load (a 40 % drop for a
      // whole run), while the rest of the run barely moved.
      jcfg.fsync_every = std::numeric_limits<std::size_t>::max();
      store_ = std::make_unique<serve::JournalStore>(jcfg);
      if (!store_->ok()) {
        error = "journal: " + store_->error();
        return false;
      }
      cfg.service.journal = store_.get();
    }
    server_ = std::make_unique<serve::SocketServer>(cfg);
    if (!server_->start(error)) return false;
    if (telemetry) {
      serve::TelemetryConfig tcfg;
      serve::SocketServer* server = server_.get();
      tcfg.collect = [server] { return server->telemetry(); };
      tcfg.shard_gauges = [server] { return server->shard_gauges(); };
      tcfg.connections = [server] { return server->live_connections(); };
      telemetry_ = std::make_unique<serve::TelemetryServer>(tcfg);
      if (!telemetry_->start(error)) return false;
    }
    return true;
  }

  void stop() {
    if (telemetry_) telemetry_->stop();
    if (server_) server_->stop();
    telemetry_.reset();
    server_.reset();
    store_.reset();
  }

  int port() const { return server_ ? server_->port() : -1; }
  int telemetry_port() const { return telemetry_ ? telemetry_->port() : -1; }
  serve::SocketServer& server() { return *server_; }

 private:
  std::unique_ptr<serve::JournalStore> store_;
  std::unique_ptr<serve::SocketServer> server_;
  std::unique_ptr<serve::TelemetryServer> telemetry_;
};

using Conns = std::vector<std::unique_ptr<Conn>>;
/// (session id, declare line) per connection.
using Declares = std::vector<std::vector<std::pair<std::string, std::string>>>;

Conns make_conns(std::size_t n) {
  Conns conns;
  for (std::size_t i = 0; i < n; ++i) conns.push_back(std::make_unique<Conn>());
  return conns;
}

bool connect_all(Conns& conns, int port) {
  for (auto& c : conns) {
    std::string error;
    if (!c->connect_to(port, error)) {
      std::fprintf(stderr, "serve: %s\n", error.c_str());
      return false;
    }
  }
  return true;
}

void disconnect_all(Conns& conns) {
  for (auto& c : conns) c->disconnect();
}

/// Run every connection until done, all on the calling thread.
bool run_all(Conns& conns, double epoch, double deadline) {
  std::vector<Conn*> all;
  for (auto& c : conns) all.push_back(c.get());
  const bool ok = run_conns(all, epoch, deadline);
  for (std::size_t i = 0; i < conns.size(); ++i) {
    if (!conns[i]->finished) {
      std::fprintf(stderr, "serve: connection %zu did not finish (%s)\n", i,
                   conns[i]->first_error.c_str());
    }
  }
  return ok;
}

int add_op(Conn& c, char kind, const std::string& session, double due,
           std::size_t subject, std::size_t rows) {
  Op op;
  op.kind = kind;
  op.session = session;
  op.sched = due;
  op.subject = subject;
  op.rows = rows;
  c.ops.push_back(op);
  return static_cast<int>(c.ops.size() - 1);
}

/// Append a `!stats` barrier op, answered once per shard.
void add_barrier(Conn& c, double due, std::size_t shards) {
  const int op = add_op(c, 'S', "", due, 0, 0);
  c.ops[static_cast<std::size_t>(op)].expect = shards;
  c.lines.push_back({due, "!stats\n", op});
}

/// One numeric field of each shard's answer to a barrier.
std::vector<double> stats_each(const Op& barrier, const char* key) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start < barrier.response.size()) {
    auto end = barrier.response.find('\n', start);
    if (end == std::string::npos) end = barrier.response.size();
    out.push_back(field_num(barrier.response.substr(start, end - start), key));
    start = end + 1;
  }
  return out;
}

double stats_sum(const Op& barrier, const char* key) {
  double total = 0.0;
  for (const double v : stats_each(barrier, key)) total += v;
  return total;
}

/// A barrier on connection 0 after the load: server-wide totals. A
/// missing answer leaves recv < 0.
Op final_barrier(Conns& conns, std::size_t shards) {
  Conn& c = *conns[0];
  c.clear_plan();
  add_barrier(c, 0.0, shards);
  run_conns({&c}, now_s(), 60.0);
  return c.ops[0];
}

void remove_tree(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

double dir_bytes(const std::string& dir) {
  double total = 0.0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      struct stat st {};
      if (::stat((dir + "/" + e->d_name).c_str(), &st) == 0 &&
          S_ISREG(st.st_mode)) {
        total += static_cast<double>(st.st_size);
      }
    }
    ::closedir(d);
  }
  return total;
}

/// Declare lines (no answer expected) plus one barrier per connection.
void plan_declares(Conns& conns, const Declares& declares,
                   std::size_t shards) {
  for (std::size_t c = 0; c < conns.size(); ++c) {
    conns[c]->clear_plan();
    for (const auto& [id, line] : declares[c]) {
      conns[c]->lines.push_back({0.0, line + "\n", -1});
    }
    add_barrier(*conns[c], 0.0, shards);
  }
}

/// Re-declare every session after a restart and wait for each restore
/// ack. Returns the restore time (first re-declare in the kernel to the
/// last ack), or a negative value when an ack is missing.
double restore_all(Conns& conns, int port, const Declares& declares) {
  if (!connect_all(conns, port)) return -1.0;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    conns[c]->clear_plan();
    for (const auto& [id, line] : declares[c]) {
      const int op = add_op(*conns[c], 'B', id, 0.0, 0, 0);
      conns[c]->lines.push_back({0.0, line + "\n", op});
    }
  }
  if (!run_all(conns, now_s(), 120.0)) return -1.0;
  double first = 1e300;
  double last = 0.0;
  for (const auto& c : conns) {
    for (const Op& op : c->ops) {
      if (op.recv < 0.0 || op.error) return -1.0;
      first = std::min(first, op.sent);
      last = std::max(last, op.recv);
    }
  }
  return last - first;
}

/// True when a restore ack reports the expected counts and no torn tail.
bool ack_matches(const Op& ack, double samples, double flushes,
                 double records) {
  const bool ok = field_num(ack.response, "samples") == samples &&
                  field_num(ack.response, "flushes") == flushes &&
                  field_num(ack.response, "records") == records &&
                  ack.response.find("\"torn\":false") != std::string::npos;
  if (!ok) {
    std::fprintf(stderr,
                 "restore ack mismatch (want samples %.0f flushes %.0f "
                 "records %.0f): %s\n",
                 samples, flushes, records, ack.response.c_str());
  }
  return ok;
}

/// Restart the daemon on `dir` and re-declare every session, kRestores
/// times (each restart replays the same journals); returns each restore
/// time. `check(c, ack)` judges every ack; a failed restart, a missing ack
/// or a rejected one counts in `failures`. `records` sums the first
/// restore's acked record counts.
constexpr std::size_t kRestores = 3;

template <typename Check>
std::vector<double> restore_times(Daemon& d, const std::string& dir,
                                  Conns& conns, const Declares& declares,
                                  const Check& check, std::size_t& failures,
                                  double& records) {
  std::vector<double> times;
  for (std::size_t k = 0; k < kRestores; ++k) {
    std::string error;
    if (!d.start(dir, /*telemetry=*/false, error)) {
      std::fprintf(stderr, "restart failed: %s\n", error.c_str());
      ++failures;
      break;
    }
    times.push_back(restore_all(conns, d.port(), declares));
    if (times.back() < 0.0) ++failures;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      for (const Op& ack : conns[c]->ops) {
        if (k == 0) records += std::max(0.0, field_num(ack.response, "records"));
        if (!check(c, ack)) ++failures;
      }
    }
    disconnect_all(conns);
    d.stop();
  }
  return times;
}

/// The report object a lion.report.v1 line carries ("" when malformed).
std::string report_part(const std::string& line) {
  static const std::string kKey = ",\"report\":";
  const auto pos = line.find(kKey);
  if (pos == std::string::npos || line.empty() || line.back() != '}') {
    return "";
  }
  return line.substr(pos + kKey.size(),
                     line.size() - 1 - (pos + kKey.size()));
}

/// Run `fn(i)` for i in [0, n) on `threads` threads.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t threads, const Fn& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (auto& t : pool) t.join();
}

/// Answers no op was waiting for, lion.error.v1 answers to lines that
/// expect none (a refused declare or data row) included.
std::size_t wire_failures(const Conns& conns) {
  std::size_t n = 0;
  for (const auto& c : conns) n += c->unexpected_lines;
  return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// setup
// ---------------------------------------------------------------------------

SetupSampler::SetupSampler(const Fleet& fleet) : declares_(kConns) {
  const std::size_t slots = kConns * kSlotsPerConn;
  for (std::size_t s = 0; s < slots && s < fleet.antennas.size(); ++s) {
    declares_[s % kConns].emplace_back("", fleet.declares[s]);
  }
}

void SetupSampler::slot() {
  // Confine this thread, and so every thread the set-ups start, to one
  // core for the slot: the time is then the set-up's own work, not
  // cross-core wake-ups and waits, which on a virtual machine depend on
  // how the host schedules the other vCPUs (on 4 vCPUs they moved a
  // set-up between 0.6 and 2.3 ms from one minute to the next, its CPU
  // time with it).
  cpu_set_t all;
  CPU_ZERO(&all);
  const bool confined = ::sched_getaffinity(0, sizeof all, &all) == 0;
  if (confined) {
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    ::sched_setaffinity(0, sizeof one, &one);
  }
  for (std::size_t rep = 0; rep <= kSetupRepsPerSlot && ok_; ++rep) {
    ++attempted_;
    auto conns = make_conns(kConns);
    Daemon d;
    std::string error;
    const double t0 = now_s();
    ok_ = d.start(/*journal_dir=*/"", /*telemetry=*/true, error) &&
          connect_all(conns, d.port());
    if (ok_) {
      plan_declares(conns, declares_, kShards);
      ok_ = run_all(conns, now_s(), 60.0);
    }
    if (rep > 0) setup_s_.push_back(now_s() - t0);
    // A refused declare answers lion.error.v1 (an unexpected line), and
    // the server counts it in every later barrier's `errors`.
    for (const auto& c : conns) {
      if (ok_ && (c->unexpected_lines != 0 ||
                  stats_sum(c->ops[0], "errors") != 0.0)) {
        ok_ = false;
        error = c->first_error;
      }
    }
    if (!ok_) std::fprintf(stderr, "setup failed: %s\n", error.c_str());
    disconnect_all(conns);
    d.stop();
  }
  if (confined) ::sched_setaffinity(0, sizeof all, &all);
}

bool SetupSampler::write(Json& out) const {
  out.open("setup");
  out.nums("setup_s", setup_s_);
  out.num("attempted", static_cast<double>(attempted_));
  out.num("failed", ok_ ? 0.0 : 1.0);
  out.close();
  return ok_;
}

// ---------------------------------------------------------------------------
// serve_ingest
// ---------------------------------------------------------------------------

namespace {

struct IngestResult {
  double reads = 0.0;
  double confirmed = 0.0;
  double wall_s = 0.0;
  Op totals;
  double queue_hwm = 0.0;
  double queue_stalls = 0.0;
  std::vector<double> scrape_ms;
  std::vector<double> scrape_bytes;
  double journal_bytes = 0.0;
  std::vector<double> restore_s;
  double restore_records = 0.0;
  std::size_t failed = 0;
  std::size_t attempted = 0;
};

/// One ingest pass on a fresh journal directory: declare, stream
/// `rounds` rounds of rows per connection, barrier, and (when `restore`)
/// restart and restore every session.
IngestResult ingest_pass(const std::string& dir,
                         const std::vector<std::vector<std::string>>& round,
                         const Declares& declares, std::size_t rounds,
                         bool restore) {
  IngestResult r;
  remove_tree(dir);
  Daemon d;
  std::string error;
  auto conns = make_conns(kConns);
  if (!d.start(dir, /*telemetry=*/true, error) ||
      !connect_all(conns, d.port())) {
    std::fprintf(stderr, "serve_ingest: start failed: %s\n", error.c_str());
    r.failed = r.attempted = 1;
    return r;
  }
  plan_declares(conns, declares, kShards);
  bool ok = run_all(conns, now_s(), 60.0);

  for (std::size_t c = 0; c < kConns; ++c) {
    Conn& conn = *conns[c];
    conn.clear_plan();
    conn.feed = &round[c];
    conn.feed_rounds = rounds;
    add_barrier(conn, 0.0, kShards);
    r.reads += static_cast<double>(round[c].size() * rounds);
  }
  // /metrics is scraped every kScrapeIntervalS from a thread of its own
  // (a scrape blocks) while the load runs.
  std::atomic<bool> loading{true};
  std::thread scraper([&] {
    for (double next = now_s(); loading.load(); next += kScrapeIntervalS) {
      scrape_metrics(d.telemetry_port(), r.scrape_ms, r.scrape_bytes);
      const double idle = next + kScrapeIntervalS - now_s();
      if (idle > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(idle));
      }
    }
  });
  const double epoch = now_s();
  ok = run_all(conns, epoch, 120.0) && ok;
  loading.store(false);
  scraper.join();
  for (const auto& c : conns) r.wall_s = std::max(r.wall_s, c->ops[0].recv);
  std::size_t wire = wire_failures(conns);
  r.totals = final_barrier(conns, kShards);
  for (const auto& g : d.server().shard_gauges()) {
    r.queue_hwm = std::max(r.queue_hwm, static_cast<double>(g.queue_hwm));
    r.queue_stalls += static_cast<double>(g.queue_stalls);
  }
  r.confirmed = stats_sum(r.totals, "samples");
  const double server_errors = stats_sum(r.totals, "errors");
  disconnect_all(conns);
  d.stop();
  r.journal_bytes = dir_bytes(dir);

  std::size_t restore_failures = 0;
  if (restore) {
    r.restore_s = restore_times(
        d, dir, conns, declares,
        [&](std::size_t c, const Op& ack) {
          const double per_session =
              static_cast<double>(round[c].size() * rounds) /
              static_cast<double>(kIngestSessionsPerConn);
          return ack_matches(ack, per_session, 0.0, per_session + 1.0);
        },
        restore_failures, r.restore_records);
  }
  remove_tree(dir);

  const bool reads_ok = r.confirmed == r.reads && r.totals.recv >= 0.0;
  if (!reads_ok) {
    std::fprintf(stderr, "serve_ingest: barrier confirmed %.0f reads of %.0f\n",
                 r.confirmed, r.reads);
  }
  for (const double ms : r.scrape_ms) r.failed += ms < 0.0 ? 1 : 0;
  r.failed += wire + restore_failures +
              static_cast<std::size_t>(std::max(0.0, server_errors)) +
              (reads_ok ? 0 : 1) + (ok ? 0 : 1);
  // Operations: the declares, the confirmed-reads barrier, each scrape and
  // each restore ack.
  const std::size_t sessions = kConns * kIngestSessionsPerConn;
  r.attempted =
      sessions + 1 + r.scrape_ms.size() + (restore ? kRestores * sessions : 0);
  return r;
}

}  // namespace

struct IngestPhase::State {
  RunOptions opt;
  std::string dir;
  std::vector<std::vector<std::string>> round;  ///< per connection
  Declares declares;
  std::size_t rounds = 0;  ///< rounds per pass
  std::vector<double> rates;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

IngestPhase::~IngestPhase() = default;

IngestPhase::IngestPhase(const RunOptions& opt)
    : s_(std::make_unique<State>()) {
  s_->opt = opt;
  s_->dir = opt.work_dir + "/ingest";
  const std::size_t per_conn = kIngestSessionsPerConn;
  const auto antennas = make_antennas(
      opt.w, opt.seed, first_antenna_id(opt.seed) + 1000000, kConns * per_conn);

  // Per connection: one round of rows interleaved across its sessions
  // (every session's whole scan).
  auto& round = s_->round;
  auto& declares = s_->declares;
  round.resize(kConns);
  declares.resize(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    std::size_t longest = 0;
    std::vector<std::string> ids;
    for (std::size_t k = 0; k < per_conn; ++k) {
      const Antenna& a = antennas[c * per_conn + k];
      ids.push_back("in" + std::to_string(c) + "_" + std::to_string(k));
      declares[c].emplace_back(ids.back(), calibrate_declare(ids.back(), a));
      longest = std::max(longest, a.rows.size());
    }
    for (std::size_t i = 0; i < longest; ++i) {
      for (std::size_t k = 0; k < per_conn; ++k) {
        const auto& rows = antennas[c * per_conn + k].rows;
        // Every session gets the same row count per round (restore checks
        // count per-session samples): short scans wrap around.
        round[c].push_back("@" + ids[k] + " " + rows[i % rows.size()] + "\n");
      }
    }
  }
  // The untraced reads go out in kIngestPasses passes, each on a fresh
  // daemon and journal, so one disturbed pass moves the median rate, not
  // the metric.
  const double reads_per_round = static_cast<double>(round[0].size() * kConns);
  s_->rounds = static_cast<std::size_t>(std::max(
      1.0, std::round(opt.ingest_reads / kIngestPasses / reads_per_round)));
}

namespace {

/// The telemetry plane is armed for every ingest pass: the metrics
/// registry starts empty and stays on (and /metrics is scraped) while the
/// pass runs; the phases in between run with it off.
IngestResult armed_pass(const std::string& dir,
                        const std::vector<std::vector<std::string>>& round,
                        const Declares& declares, std::size_t rounds,
                        bool restore) {
  lion::obs::MetricsRegistry::instance().reset();
  lion::obs::set_metrics_enabled(true);
  IngestResult r = ingest_pass(dir, round, declares, rounds, restore);
  lion::obs::set_metrics_enabled(false);
  return r;
}

}  // namespace

void IngestPhase::pass() {
  const IngestResult r = armed_pass(s_->dir, s_->round, s_->declares,
                                    s_->rounds, /*restore=*/false);
  s_->rates.push_back(r.wall_s > 0.0 ? r.confirmed / r.wall_s : 0.0);
  s_->attempted += r.attempted;
  s_->failed += r.failed;
}

bool IngestPhase::finish(Json& out) {
  const RunOptions& opt = s_->opt;
  const auto& round = s_->round;
  const auto& declares = s_->declares;
  const auto rounds = s_->rounds;
  const std::string& dir = s_->dir;
  const IngestResult plain =
      armed_pass(dir, round, declares, rounds, /*restore=*/true);
  std::vector<double>& rates = s_->rates;
  rates.push_back(plain.wall_s > 0.0 ? plain.confirmed / plain.wall_s : 0.0);
  const std::size_t attempted = s_->attempted + plain.attempted;
  const std::size_t failed = s_->failed + plain.failed;
  IngestResult traced;
  double decode_ns_per_line = 0.0;
  double dropped = 0.0;
  out.open("ingest");
  if (opt.trace) {
    // Three spans (ingest, demux, journal_append) per read, spread over
    // the shard threads.
    lion::obs::set_trace_capacity(1 << 18);
    lion::obs::trace_reset();
    lion::obs::set_tracing_enabled(true);
    traced = armed_pass(dir, round, declares, rounds, /*restore=*/false);
    lion::obs::set_tracing_enabled(false);
    dropped = dump_spans(out, "spans");

    // Wire decode cost on this workload's own bytes.
    std::string bytes;
    for (const auto& line : round[0]) bytes += line;
    std::vector<double> runs;
    for (int rep = 0; rep < 5; ++rep) {
      serve::ChunkDecoder decoder;
      std::size_t lines = 0;
      std::size_t data = 0;
      const double t0 = now_s();
      for (std::size_t off = 0; off < bytes.size(); off += 65536) {
        const auto chunk =
            decoder.feed(std::string_view(bytes).substr(off, 65536));
        for (const auto& l : chunk.lines) {
          data += serve::parse_line(l).kind == serve::ParsedLine::kData;
          ++lines;
        }
      }
      runs.push_back((now_s() - t0) * 1e9 / static_cast<double>(lines));
      if (data != lines || lines != round[0].size()) ++traced.failed;
    }
    std::sort(runs.begin(), runs.end());
    decode_ns_per_line = runs[runs.size() / 2];
  }

  out.nums("reads_per_s", rates);
  out.num("reads", plain.reads);
  out.num("confirmed_reads", plain.confirmed);
  out.num("wall_s", plain.wall_s);
  out.nums("restore_s", plain.restore_s);
  out.num("restore_records", plain.restore_records);
  out.num("journal_bytes", plain.journal_bytes);
  out.nums("scrape_ms", plain.scrape_ms);
  out.nums("scrape_bytes", plain.scrape_bytes);
  out.nums("shard_lines", stats_each(plain.totals, "lines"));
  out.num("backpressure_waits", stats_sum(plain.totals, "backpressure_waits"));
  out.num("queue_hwm", plain.queue_hwm);
  out.num("queue_stalls", plain.queue_stalls);
  if (opt.trace) {
    out.num("traced_reads", traced.reads);
    out.num("traced_wall_s", traced.wall_s);
    out.num("traced_lines", stats_sum(traced.totals, "lines"));
    out.num("decode_ns_per_line", decode_ns_per_line);
    out.num("trace_dropped", dropped);
  }
  out.num("attempted", static_cast<double>(attempted + traced.attempted));
  out.num("failed", static_cast<double>(failed + traced.failed));
  out.close();
  return failed + traced.failed == 0;
}

// ---------------------------------------------------------------------------
// serve_flush
// ---------------------------------------------------------------------------

namespace {

/// One track session (one per connection).
struct TrackSession {
  std::string id;
  std::string declare;
  std::vector<std::string> rows;
  std::vector<std::size_t> tick_after;  ///< rows sent before tick i
  std::vector<int> tick_ops;            ///< op index of tick i
};

/// Rows of a tag riding a conveyor past an antenna at the origin: wrapped
/// distance phase plus seeded noise.
std::vector<std::string> belt_rows(std::size_t n, double depth,
                                   std::uint64_t seed) {
  lion::rf::Rng rng(seed);
  std::vector<std::string> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lion::sim::PhaseSample s;
    s.t = 0.01 * static_cast<double>(i);
    const double x = -1.0 + 0.05 * s.t;
    const double d = std::sqrt(x * x + depth * depth);
    s.phase = lion::rf::wrap_phase(lion::rf::distance_phase(d) +
                                   rng.gaussian(0.02));
    rows.push_back(csv_row(s));
  }
  return rows;
}

char source_code(const std::string& response) {
  const std::string source = field_str(response, "source");
  if (source == "memo") return 'm';
  if (source == "incremental") return 'i';
  if (source == "fallback") return 'f';
  return '?';
}

}  // namespace

std::size_t flush_cycles(double flush_s) {
  const std::size_t slots = kConns * kSlotsPerConn;
  return std::max(slots,
                  static_cast<std::size_t>(std::floor(kCyclesPerS * flush_s)));
}

bool run_flush_phase(const RunOptions& opt, const Fleet& fleet, Json& out) {
  const std::size_t slots = kConns * kSlotsPerConn;
  const std::size_t cycles =
      std::min(fleet.antennas.size(), flush_cycles(opt.flush_s));
  const double period = static_cast<double>(slots) / kCyclesPerS;
  const double horizon = static_cast<double>(cycles) / kCyclesPerS;
  const std::size_t scan = fleet.scan_rows;

  // --- plan (input generation, not timed) ----------------------------------
  auto conns = make_conns(kConns);
  Declares setup_declares(kConns);
  Declares reopen(kConns);
  std::vector<std::size_t> total_rows(cycles, 0);
  for (std::size_t g = 0; g < cycles; ++g) {
    const std::size_t c = (g % slots) % kConns;
    Conn& conn = *conns[c];
    const Antenna& a = fleet.antennas[g];
    const std::string id = "f" + std::to_string(g);
    const std::string& declare = fleet.declares[g];
    const double t0 = static_cast<double>(g) / kCyclesPerS;
    const bool stays_open = g + slots >= cycles;
    const std::size_t n = std::min(a.rows.size(), scan + kDeltaRows);
    total_rows[g] = n;
    if (g < slots) {
      setup_declares[c].emplace_back(id, declare);
    } else {
      conn.lines.push_back({t0, declare + "\n", -1});
    }
    if (stays_open) reopen[c].emplace_back(id, declare);
    const double scan_s = 0.45 * period;
    for (std::size_t i = 0; i < scan; ++i) {
      conn.lines.push_back(
          {t0 + scan_s * static_cast<double>(i) / static_cast<double>(scan),
           "@" + id + " " + a.rows[i] + "\n", -1});
    }
    const auto request = [&](char kind, double due, std::size_t rows) {
      const char* verb = kind == 'C' ? "!close " : "!flush ";
      conn.lines.push_back(
          {due, verb + id + "\n", add_op(conn, kind, id, due, g, rows)});
    };
    request('F', t0 + scan_s, scan);
    for (std::size_t r = 0; r < kRepeats; ++r) {
      request('R', t0 + (0.70 + 0.02 * static_cast<double>(r)) * period, scan);
    }
    const double delta_at = t0 + 0.80 * period;
    for (std::size_t i = scan; i < n; ++i) {
      conn.lines.push_back({delta_at, "@" + id + " " + a.rows[i] + "\n", -1});
    }
    request('D', delta_at, n);
    if (!stays_open) request('C', t0 + 0.97 * period, n);
  }

  // Track sessions: prefilled during setup, then rows on a fixed cadence
  // with a `!tick` every tick_every rows.
  std::vector<TrackSession> tracks(kConns);
  const auto track_load_rows =
      static_cast<std::size_t>(horizon * kTrackRowsPerS);
  std::vector<std::vector<Line>> prefill(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    TrackSession& tr = tracks[c];
    lion::rf::Rng rng(lion::engine::job_seed(opt.seed * 7919 + c));
    const double depth = rng.uniform(0.5, 0.7);
    tr.id = "t" + std::to_string(c);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "!session %s mode=track center=0,0,0 dir=1,0,0 speed=0.05 "
                  "window=100000 hop=100000 hint=-1,%.17g,0",
                  tr.id.c_str(), depth);
    tr.declare = buf;
    tr.rows = belt_rows(kTrackPrefill + track_load_rows, depth,
                        lion::engine::job_seed(opt.seed * 31 + c));
    setup_declares[c].emplace_back(tr.id, tr.declare);
    for (std::size_t i = 0; i < kTrackPrefill; ++i) {
      prefill[c].push_back({0.0, "@" + tr.id + " " + tr.rows[i] + "\n", -1});
    }
    reopen[c].emplace_back(tr.id, tr.declare);
    Conn& conn = *conns[c];
    for (std::size_t i = 0; i < track_load_rows; ++i) {
      const double due = static_cast<double>(i) / kTrackRowsPerS;
      const std::size_t row = kTrackPrefill + i;
      conn.lines.push_back({due, "@" + tr.id + " " + tr.rows[row] + "\n", -1});
      if ((i + 1) % kTickEvery == 0) {
        tr.tick_after.push_back(row + 1);
        const int op = add_op(conn, 'T', tr.id, due, c, row + 1);
        tr.tick_ops.push_back(op);
        conn.lines.push_back({due, "!tick " + tr.id + "\n", op});
      }
    }
  }
  std::vector<std::vector<Line>> load_lines(kConns);
  std::vector<std::vector<Op>> load_ops(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    std::stable_sort(conns[c]->lines.begin(), conns[c]->lines.end(),
                     [](const Line& a, const Line& b) { return a.due < b.due; });
    load_lines[c] = std::move(conns[c]->lines);
    load_ops[c] = std::move(conns[c]->ops);
  }

  // --- setup: start, connect, declare, prefill, barrier ---------------------
  const std::string dir = opt.work_dir + "/flush";
  remove_tree(dir);
  Daemon d;
  std::string error;
  bool ok = d.start(dir, /*telemetry=*/false, error) &&
            connect_all(conns, d.port());
  if (ok) {
    plan_declares(conns, setup_declares, kShards);
    for (std::size_t c = 0; c < kConns; ++c) {
      auto& lines = conns[c]->lines;
      lines.insert(lines.end() - 1, prefill[c].begin(), prefill[c].end());
    }
    ok = run_all(conns, now_s(), 60.0) && wire_failures(conns) == 0;
  }
  if (!ok) {
    std::fprintf(stderr, "serve_flush: setup failed: %s\n", error.c_str());
    remove_tree(dir);
    return false;
  }

  // --- load -----------------------------------------------------------------
  std::vector<Conn*> peers;
  for (std::size_t c = 0; c < kConns; ++c) {
    conns[c]->clear_plan();
    conns[c]->lines = std::move(load_lines[c]);
    conns[c]->ops = std::move(load_ops[c]);
    peers.push_back(conns[c].get());
  }
  conns[0]->peers = &peers;
  if (opt.trace) {
    lion::obs::set_trace_capacity(1 << 17);
    lion::obs::trace_reset();
    lion::obs::set_tracing_enabled(true);
  }
  const double epoch_s = now_s();
  const double epoch_ns = static_cast<double>(lion::obs::trace_now_ns());
  ok = run_all(conns, epoch_s, horizon + 120.0);
  lion::obs::set_tracing_enabled(false);
  // Keep the load's answers; the barrier and restore reuse the sockets.
  std::vector<std::vector<Op>> ops(kConns);
  for (std::size_t c = 0; c < kConns; ++c) ops[c] = conns[c]->ops;
  std::size_t failed = wire_failures(conns);
  const std::vector<double> backlog_t = conns[0]->backlog_t;
  const std::vector<double> backlog_n = conns[0]->backlog_n;
  const Op totals = final_barrier(conns, kShards);
  disconnect_all(conns);
  d.stop();

  // --- restart and restore the open sessions --------------------------------
  double restore_records = 0.0;
  const std::vector<double> restore_s = restore_times(
      d, dir, conns, reopen,
      [&](std::size_t c, const Op& ack) {
        double rows = 0.0;
        double flushes = 0.0;
        double ticks = 0.0;
        if (ack.session == tracks[c].id) {
          rows = static_cast<double>(tracks[c].rows.size());
          ticks = static_cast<double>(tracks[c].tick_ops.size());
        } else {
          const std::size_t g = std::stoul(ack.session.substr(1));
          rows = static_cast<double>(total_rows[g]);
          flushes = static_cast<double>(kRepeats + 2);
        }
        return ack_matches(ack, rows, flushes, 1.0 + rows + flushes + ticks);
      },
      failed, restore_records);
  remove_tree(dir);

  // --- output checks ----------------------------------------------------------
  // The delta oracle: the full pipeline on every row the session received.
  std::vector<std::string> delta_report(cycles);
  std::vector<lion::core::CalibrationReport> delta_full(cycles);
  parallel_for(cycles, kPoolThreads, [&](std::size_t g) {
    delta_full[g] = lion::core::calibrate_antenna_robust(
        parse_rows(fleet.antennas[g].rows, total_rows[g]),
        fleet.antennas[g].physical, fleet.config);
  });
  std::vector<double> report_json_us;
  for (std::size_t g = 0; g < cycles; ++g) {
    const double t0 = now_s();
    delta_report[g] = lion::io::report_json(delta_full[g]);
    report_json_us.push_back((now_s() - t0) * 1e6);
  }

  std::vector<std::vector<char>> good(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    good[c].assign(ops[c].size(), 1);
    for (std::size_t k = 0; k < ops[c].size(); ++k) {
      const Op& op = ops[c][k];
      if (op.recv < 0.0 || op.error) {
        good[c][k] = 0;
        continue;
      }
      if (op.kind == 'T') continue;  // checked by the track mirror below
      const std::string& expected = op.rows == scan
                                        ? fleet.scan_report[op.subject]
                                        : delta_report[op.subject];
      if (report_part(op.response) != expected) {
        good[c][k] = 0;
        std::fprintf(stderr, "serve_flush: report check failed for %s (%c)\n",
                     op.session.c_str(), op.kind);
      }
    }
  }

  // Ticks: a mirrored IncrementalTrackSolver fed the same rows.
  std::vector<double> tick_us;
  for (std::size_t c = 0; c < kConns; ++c) {
    const TrackSession& tr = tracks[c];
    serve::SessionConfig cfg;
    std::string err;
    serve::make_session_config(serve::parse_line(tr.declare), cfg, err);
    lion::core::IncrementalTrackSolver solver(serve::incremental_config(cfg));
    const auto samples = parse_rows(tr.rows, tr.rows.size());
    std::vector<lion::sim::PhaseSample> window;
    std::size_t fed = 0;
    for (std::size_t i = 0; i < tr.tick_ops.size(); ++i) {
      for (; fed < tr.tick_after[i]; ++fed) {
        solver.push(samples[fed]);
        window.push_back(samples[fed]);
      }
      const double t0 = now_s();
      const lion::core::TickResult r = solver.tick();
      tick_us.push_back((now_s() - t0) * 1e6);
      const auto k = static_cast<std::size_t>(tr.tick_ops[i]);
      const Op& op = ops[c][k];
      if (!good[c][k]) continue;  // already counted
      const auto seq =
          static_cast<std::uint64_t>(field_num(op.response, "seq"));
      std::string expected;
      if (r.valid && !r.fallback) {
        lion::core::TrackFix fix;
        fix.t = r.t;
        fix.start = r.start;
        fix.position = r.position;
        fix.sigma = r.sigma;
        fix.mean_residual = r.rms;
        fix.valid = true;
        expected =
            serve::tick_response(tr.id, seq, i, fix, r.rows, "incremental");
      } else {
        expected = serve::tick_response(
            tr.id, seq, i, serve::solve_track_window(window, cfg), 0,
            "fallback");
      }
      if (op.response != expected) {
        good[c][k] = 0;
        std::fprintf(stderr, "serve_flush: tick check failed: %s\n",
                     op.response.c_str());
      }
    }
  }

  const double server_errors = stats_sum(totals, "errors");
  failed += static_cast<std::size_t>(std::max(0.0, server_errors)) +
            (ok ? 0 : 1) + (totals.recv >= 0.0 ? 0 : 1);

  out.open("flush");
  out.num("cycles", static_cast<double>(cycles));
  out.num("horizon_s", horizon);
  out.num("pool_threads", static_cast<double>(kPoolThreads));
  out.open_array("ops");
  for (std::size_t c = 0; c < kConns; ++c) {
    for (std::size_t k = 0; k < ops[c].size(); ++k) {
      const Op& op = ops[c][k];
      out.open();
      out.str("k", std::string(1, op.kind));
      out.num("s", op.sched);
      out.num("t", op.sent);
      out.num("r", op.recv);
      out.num("ok", good[c][k]);
      if (op.kind != 'T') out.str("src", std::string(1, source_code(op.response)));
      out.num("seq", field_num(op.response, "seq"));
      out.num("shard", static_cast<double>(serve::shard_hash(op.session) %
                                           kShards));
      out.close();
    }
  }
  out.close_array();
  out.nums("backlog_t", backlog_t);
  out.nums("backlog_n", backlog_n);
  out.nums("restore_s", restore_s);
  out.num("restore_records", restore_records);
  out.num("pose_ticks", stats_sum(totals, "pose_ticks"));
  out.num("tick_fallbacks", stats_sum(totals, "tick_fallbacks"));
  out.num("backpressure_waits", stats_sum(totals, "backpressure_waits"));
  out.nums("tick_us", tick_us);
  out.nums("report_json_us", report_json_us);
  if (opt.trace) {
    // Client op times are seconds from epoch_s; spans are trace-clock ns.
    out.num("epoch_ns", epoch_ns);
    const double dropped = dump_spans(out, "spans");
    out.num("trace_dropped", dropped);
  }
  // Ops carry their own verdicts ("ok"); these count the rest: the load's
  // completion, the final barrier and each restore ack.
  std::size_t acks = 0;
  for (const auto& r : reopen) acks += r.size();
  out.num("attempted", static_cast<double>(2 + kRestores * acks));
  out.num("failed", static_cast<double>(failed));
  out.close();
  std::size_t bad = failed;
  for (const auto& g : good) bad += std::count(g.begin(), g.end(), 0);
  return bad == 0;
}

}  // namespace perfbench
