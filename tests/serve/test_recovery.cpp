// Crash-recovery differential suite: a journaled session that is killed
// mid-stream, restored by a fresh service, and continued from the restore
// ack's cursor must emit exactly the sequenced bytes an uninterrupted
// stream would have. The crash model is service-destroy-without-close:
// every journal record is write()n before the mutation's response can
// matter, so in-process teardown loses exactly what SIGKILL would (the
// fsync batching window is an OS-crash concern, not a process-crash one).

#include <gtest/gtest.h>

#include <unistd.h>
#include <dirent.h>
#include <sys/stat.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "io/csv.hpp"
#include "io/report_json.hpp"
#include "obs/events.hpp"
#include "rf/phase_model.hpp"
#include "serve/journal.hpp"
#include "serve/service.hpp"
#include "sim/trajectory.hpp"

#include "journal_edit.hpp"

namespace lion {
namespace {

constexpr double kTolerance = 1e-9;

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

std::vector<std::string> split_rows(const std::string& bytes) {
  std::vector<std::string> rows;
  std::istringstream in(bytes);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) rows.push_back(std::move(line));
  }
  return rows;
}

// Same comparator as the golden suite: exact structure, 1e-9 numbers.
struct ParsedJson {
  std::string skeleton;
  std::vector<double> numbers;
};

ParsedJson parse_numbers(const std::string& s) {
  ParsedJson out;
  std::size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    const bool starts_number =
        std::isdigit(static_cast<unsigned char>(c)) ||
        ((c == '-' || c == '+') && i + 1 < s.size() &&
         std::isdigit(static_cast<unsigned char>(s[i + 1])));
    if (starts_number) {
      char* end = nullptr;
      out.numbers.push_back(std::strtod(s.c_str() + i, &end));
      out.skeleton += '#';
      i = static_cast<std::size_t>(end - s.c_str());
    } else {
      out.skeleton += c;
      ++i;
    }
  }
  return out;
}

void expect_json_near(const std::string& expected, const std::string& actual,
                      const std::string& label) {
  const auto e = parse_numbers(expected);
  const auto a = parse_numbers(actual);
  ASSERT_EQ(e.skeleton, a.skeleton) << label << ": structure drifted";
  ASSERT_EQ(e.numbers.size(), a.numbers.size()) << label;
  for (std::size_t i = 0; i < e.numbers.size(); ++i) {
    const double tol =
        kTolerance +
        kTolerance * std::max(std::abs(e.numbers[i]), std::abs(a.numbers[i]));
    EXPECT_NEAR(e.numbers[i], a.numbers[i], tol)
        << label << ": number " << i << " drifted beyond 1e-9";
  }
}

std::string make_temp_dir() {
  char tmpl[] = "/tmp/lion_recovery_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir ? dir : "";
}

void remove_dir_recursive(const std::string& dir) {
  if (::DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

struct TempDir {
  std::string path = make_temp_dir();
  ~TempDir() { remove_dir_recursive(path); }
};

// Out-of-band ops-plane lines carry no seq and are excluded from the
// byte-determinism contract; strip them before comparing streams.
bool is_oob(const std::string& line) {
  return line.rfind("{\"schema\":\"lion.restore.v1\"", 0) == 0 ||
         line.rfind("{\"schema\":\"lion.health.v1\"", 0) == 0;
}

std::vector<std::string> sequenced(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const auto& l : lines) {
    if (!is_oob(l)) out.push_back(l);
  }
  return out;
}

std::uint64_t uint_field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto pos = line.find(pat);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  if (pos == std::string::npos) return 0;
  return static_cast<std::uint64_t>(
      std::atoll(line.c_str() + pos + pat.size()));
}

/// One "process": a journal store on `dir` plus a journaled service.
/// Destroying it (crash()) is the in-process SIGKILL analogue — appended
/// records are durable, everything else is gone.
struct Process {
  std::vector<std::string> lines;
  std::unique_ptr<serve::JournalStore> store;
  std::unique_ptr<serve::StreamService> service;

  explicit Process(const std::string& dir,
                   obs::EventLog* events = nullptr) {
    serve::JournalStoreConfig jcfg;
    jcfg.dir = dir;
    jcfg.fsync_every = 8;
    store = std::make_unique<serve::JournalStore>(jcfg);
    EXPECT_TRUE(store->ok()) << store->error();
    serve::ServiceConfig cfg;
    cfg.threads = 2;
    cfg.journal = store.get();
    cfg.events = events;
    service = std::make_unique<serve::StreamService>(
        cfg, [this](std::string_view line) { lines.emplace_back(line); });
  }

  void feed(const std::vector<std::string>& input, std::size_t begin,
            std::size_t end) {
    for (std::size_t i = begin; i < end && i < input.size(); ++i) {
      service->ingest_line(input[i]);
    }
    service->drain();
  }

  void crash() { service.reset(); }

  /// The lion.restore.v1 ack for `id`, or "" when none arrived.
  std::string restore_ack(const std::string& id) const {
    const std::string want = "\"session\":\"" + id + "\"";
    for (const auto& l : lines) {
      if (l.rfind("{\"schema\":\"lion.restore.v1\"", 0) == 0 &&
          l.find(want) != std::string::npos) {
        return l;
      }
    }
    return "";
  }
};

/// Uninterrupted reference run (no journal — the PR-5 contract).
std::vector<std::string> run_plain(const std::vector<std::string>& input) {
  std::vector<std::string> lines;
  serve::ServiceConfig cfg;
  cfg.threads = 2;
  serve::StreamService service(
      cfg, [&lines](std::string_view line) { lines.emplace_back(line); });
  for (const auto& l : input) service.ingest_line(l);
  service.finish();
  return lines;
}

/// Synthetic linear scan: n CSV rows of x,y,z,phase along a rail under an
/// antenna at (0, 0.8, 0), phases wrapped to [0, 2pi) — small enough that
/// a crash-offset sweep stays fast, real enough that solves converge.
std::vector<std::string> synthetic_rows(std::size_t n) {
  std::vector<std::string> rows;
  const double wavelength = 0.328;
  const double two_pi = 6.283185307179586;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = -0.6 + 1.2 * static_cast<double>(i) /
                                static_cast<double>(n - 1);
    const double d = std::sqrt(x * x + 0.8 * 0.8);
    const double phase = std::fmod(4.0 * 3.141592653589793 * d / wavelength,
                                   two_pi);
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.9g,0,0,%.9g", x, phase);
    rows.emplace_back(buf);
  }
  return rows;
}

/// declare + rows with a !flush every `flush_every` rows + terminal flush.
/// Every line after index 0 journals exactly one record, so a client that
/// fed the first k lines resumes at input index == ack records.
std::vector<std::string> build_input(const std::string& id,
                                     const std::vector<std::string>& rows,
                                     std::size_t flush_every) {
  std::vector<std::string> input;
  input.push_back("!session " + id + " center=0,0.8,0");
  std::size_t since = 0;
  for (const auto& row : rows) {
    input.push_back(row);
    if (++since == flush_every) {
      input.push_back("!flush " + id);
      since = 0;
    }
  }
  input.push_back("!flush " + id);
  return input;
}

/// Crash after `cut` input lines, restore in a fresh process, continue
/// from the ack cursor, and return prefix + suffix sequenced output.
std::vector<std::string> crash_and_resume(
    const std::vector<std::string>& input, const std::string& id,
    std::size_t cut, std::uint64_t* ack_records = nullptr,
    bool* ack_torn = nullptr) {
  TempDir dir;
  Process p1(dir.path);
  p1.feed(input, 0, cut);
  p1.crash();

  Process p2(dir.path);
  p2.service->ingest_line(input[0]);  // re-declare triggers the restore
  const std::string ack = p2.restore_ack(id);
  EXPECT_FALSE(ack.empty()) << "no restore ack at cut=" << cut;
  if (ack.empty()) return {};
  const std::uint64_t records = uint_field(ack, "records");
  if (ack_records != nullptr) *ack_records = records;
  if (ack_torn != nullptr) {
    *ack_torn = ack.find("\"torn\":true") != std::string::npos;
  }
  EXPECT_GE(records, 1u);
  EXPECT_LE(records, cut);
  p2.feed(input, static_cast<std::size_t>(records), input.size());
  p2.crash();

  std::vector<std::string> combined = sequenced(p1.lines);
  const auto suffix = sequenced(p2.lines);
  combined.insert(combined.end(), suffix.begin(), suffix.end());
  return combined;
}

struct Lcg {
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

// The headline gate: >= 50 fuzzed crash offsets, each resumed stream
// byte-identical to the uninterrupted baseline.
TEST(Recovery, CrashAtFuzzedOffsetsResumesByteIdentical) {
  const auto input = build_input("g", synthetic_rows(120), 25);
  const auto baseline = sequenced(run_plain(input));
  ASSERT_GE(baseline.size(), 5u);  // one report per flush

  // Pinned edges: right after the declare, around every flush line, and
  // the last possible cut; LCG fuzz fills the set to >= 50 offsets.
  std::set<std::size_t> cuts = {1, 2, input.size() - 1};
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (input[i].rfind("!flush", 0) == 0) {
      cuts.insert(i);          // crash with the flush un-journaled
      cuts.insert(i + 1);      // crash right after the flush record
    }
  }
  Lcg rng;
  while (cuts.size() < 50) {
    cuts.insert(1 + rng.next() % (input.size() - 1));
  }

  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    std::uint64_t records = 0;
    const auto combined = crash_and_resume(input, "g", cut, &records);
    EXPECT_EQ(records, cut);  // 1 line == 1 record, in order
    EXPECT_EQ(combined, baseline);
  }
}

// Journaling must be observationally free: the journaled uninterrupted
// stream emits the same bytes as the journal-less one.
TEST(Recovery, JournalingDoesNotPerturbOutput) {
  const auto input = build_input("g", synthetic_rows(80), 40);
  const auto baseline = sequenced(run_plain(input));
  TempDir dir;
  Process p(dir.path);
  p.feed(input, 0, input.size());
  p.crash();
  EXPECT_EQ(sequenced(p.lines), baseline);
}

// Golden gate: the rig fixture crashed mid-scan and resumed still matches
// the batch pipeline byte-for-byte and sits inside the 1e-9 drift band.
TEST(Recovery, GoldenRigSurvivesCrashInsideDriftGate) {
  const auto rows = split_rows(read_file(data_path("golden_rig.csv")));
  ASSERT_FALSE(rows.empty());
  std::vector<std::string> input;
  input.push_back("!session g center=0,0.8,0");
  input.insert(input.end(), rows.begin(), rows.end());
  input.push_back("!flush g");

  const auto samples = io::read_samples_csv_file(data_path("golden_rig.csv"));
  const std::string batch_line =
      "{\"schema\":\"lion.report.v1\",\"session\":\"g\",\"seq\":0,"
      "\"source\":\"fallback\",\"report\":" +
      io::report_json(
          core::calibrate_antenna_robust(samples, {0.0, 0.8, 0.0})) +
      "}";

  const std::size_t cut = 1 + rows.size() / 2;  // mid-scan
  const auto combined = crash_and_resume(input, "g", cut);
  ASSERT_EQ(combined.size(), 1u);
  EXPECT_EQ(combined[0], batch_line);

  std::string expected = read_file(data_path("golden_rig.json"));
  while (!expected.empty() &&
         (expected.back() == '\n' || expected.back() == '\r')) {
    expected.pop_back();
  }
  const std::string prefix =
      "{\"schema\":\"lion.report.v1\",\"session\":\"g\",\"seq\":0,"
      "\"source\":\"fallback\",\"report\":";
  ASSERT_EQ(combined[0].rfind(prefix, 0), 0u);
  expect_json_near(
      expected,
      combined[0].substr(prefix.size(), combined[0].size() - prefix.size() - 1),
      "golden_rig (restored)");
}

// Track mode: windows solve as rows arrive, so seqs are consumed by data
// lines themselves — the snapshot fast-forward must cover them too.
TEST(Recovery, TrackModeRestoreMatchesUninterrupted) {
  const auto rows = synthetic_rows(40);
  std::vector<std::string> input;
  input.push_back(
      "!session belt mode=track center=0,0.8,0 window=8 hop=8 speed=0.1");
  input.insert(input.end(), rows.begin(), rows.end());
  const auto baseline = sequenced(run_plain(input));
  ASSERT_FALSE(baseline.empty());  // completed windows emitted fixes

  for (const std::size_t cut : {std::size_t{3}, std::size_t{8},
                                std::size_t{9}, std::size_t{20},
                                std::size_t{33}, input.size() - 1}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const auto combined = crash_and_resume(input, "belt", cut);
    EXPECT_EQ(combined, baseline);
  }
}

// A re-declare whose config differs from the journaled one must be
// rejected (journal_conflict), and the correct declare must still work.
TEST(Recovery, MismatchedRedeclareIsAConflict) {
  const auto input = build_input("g", synthetic_rows(10), 100);
  TempDir dir;
  Process p1(dir.path);
  p1.feed(input, 0, 5);
  p1.crash();

  Process p2(dir.path);
  p2.service->ingest_line("!session g center=1,0,0");  // wrong center
  p2.service->drain();
  ASSERT_FALSE(p2.lines.empty());
  EXPECT_NE(p2.lines.back().find("journal_conflict"), std::string::npos)
      << p2.lines.back();
  EXPECT_TRUE(p2.restore_ack("g").empty());

  p2.service->ingest_line(input[0]);  // the real declare still restores
  EXPECT_FALSE(p2.restore_ack("g").empty());
}

// A torn tail (crash mid-write) loses only the newest record: the ack
// reports torn=true and one fewer record, and resuming from that cursor
// still converges to the uninterrupted stream.
TEST(Recovery, TornTailResumesFromTheIntactPrefix) {
  const auto input = build_input("g", synthetic_rows(60), 30);
  const auto baseline = sequenced(run_plain(input));

  const std::size_t cut = 20;  // last fed line is a data row (no seq)
  TempDir dir;
  {
    Process p1(dir.path);
    p1.feed(input, 0, cut);
    p1.crash();
  }
  const std::string path = dir.path + "/g.lionj";
  struct stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(path.c_str(), st.st_size - 3), 0);

  // Re-run the prefix bytes the torn journal no longer covers through a
  // plain service to rebuild the expected prefix emissions (rows carry no
  // responses in calibrate mode, so the prefix emits nothing here), then
  // restore and continue.
  Process p2(dir.path);
  p2.service->ingest_line(input[0]);
  const std::string ack = p2.restore_ack("g");
  ASSERT_FALSE(ack.empty());
  EXPECT_NE(ack.find("\"torn\":true"), std::string::npos) << ack;
  const std::uint64_t records = uint_field(ack, "records");
  EXPECT_EQ(records, cut - 1);  // the newest record was torn away
  p2.feed(input, static_cast<std::size_t>(records), input.size());
  p2.crash();
  EXPECT_EQ(sequenced(p2.lines), baseline);
}

// !healthz answers out-of-band with journal gauges and process gauges.
TEST(Recovery, HealthzReportsJournalAndProcessGauges) {
  const auto input = build_input("g", synthetic_rows(10), 100);
  TempDir dir;
  Process p(dir.path);
  p.feed(input, 0, input.size());
  p.service->ingest_line("!healthz");
  p.service->drain();
  std::string health;
  for (const auto& l : p.lines) {
    if (l.rfind("{\"schema\":\"lion.health.v1\"", 0) == 0) health = l;
  }
  ASSERT_FALSE(health.empty());
  EXPECT_NE(health.find("\"journal_enabled\":true"), std::string::npos);
  EXPECT_NE(health.find("\"journal_lag\":"), std::string::npos);
  EXPECT_NE(health.find("\"journal_appends\":"), std::string::npos);
  EXPECT_GT(uint_field(health, "rss_bytes"), 0u);
  EXPECT_GT(uint_field(health, "open_fds"), 0u);
  EXPECT_EQ(uint_field(health, "restores"), 0u);
  p.crash();

  // And a journal-less service reports journal_enabled=false.
  std::vector<std::string> lines;
  serve::StreamService plain(
      serve::ServiceConfig{},
      [&lines](std::string_view line) { lines.emplace_back(line); });
  plain.ingest_line("!healthz");
  plain.finish();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"journal_enabled\":false"), std::string::npos);
}

/// Track-mode JSON row for the tick-recovery stream: tag from (-1,0.6,0)
/// down the x belt at 1 m/s past an antenna at the origin, 100 Hz reads,
/// exact model phases.
std::string tick_row(int i) {
  const double t = 0.01 * i;
  const double x = -1.0 + t;
  const double d = std::sqrt(x * x + 0.6 * 0.6);
  const double phase = rf::wrap_phase(rf::distance_phase(d));
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"session\":\"belt\",\"x\":0,\"y\":0,\"z\":0,"
                "\"phase\":%.17g,\"t\":%.17g}",
                phase, t);
  return buf;
}

/// Track declare + rows with a `!tick` every `tick_every` rows. Every
/// line after index 0 journals exactly one record (rows -> kAppend,
/// ticks -> kPoseTick), so the restore-ack cursor math of
/// crash_and_resume carries over unchanged.
std::vector<std::string> build_tick_input(std::size_t rows,
                                          std::size_t tick_every) {
  std::vector<std::string> input;
  input.push_back(
      "!session belt mode=track center=0,0,0 dir=1,0,0 speed=1 "
      "window=64 hop=32 hint=-1,0.6,0");
  for (std::size_t i = 0; i < rows; ++i) {
    input.push_back(tick_row(static_cast<int>(i)));
    if ((i + 1) % tick_every == 0) input.push_back("!tick belt");
  }
  return input;
}

// The incremental `!tick` stream under kill-restart: the journal replay
// rebuilds the solver purely from the sample stream (push / carve-retire
// are replayed at the same indices; kPoseTick records fast-forward the
// tick counter without re-emitting), so crashing at any offset — before
// a tick, right after one, mid-window, across carve boundaries — must
// resume byte-identical to the uninterrupted run, incremental fast-path
// poses included.
TEST(Recovery, TickStreamSurvivesCrashByteIdentical) {
  const auto input = build_tick_input(160, 10);
  const auto baseline = sequenced(run_plain(input));
  ASSERT_FALSE(baseline.empty());
  bool incremental_seen = false;
  for (const auto& l : baseline) {
    if (l.find("\"source\":\"incremental\"") != std::string::npos) {
      incremental_seen = true;
    }
  }
  ASSERT_TRUE(incremental_seen)
      << "scenario never reached the incremental fast path";

  // Pinned cuts: around every !tick line and both sides of the first
  // carve (window=64 with 10:1 row:tick lines -> input index ~70); LCG
  // fuzz fills to >= 24 offsets.
  std::set<std::size_t> cuts = {1, 2, 70, 71, input.size() - 1};
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (input[i] == "!tick belt") {
      cuts.insert(i);
      cuts.insert(i + 1);
    }
  }
  Lcg rng;
  while (cuts.size() < 24) {
    cuts.insert(1 + rng.next() % (input.size() - 1));
  }
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const auto combined = crash_and_resume(input, "belt", cut);
    EXPECT_EQ(combined, baseline);
  }
}

// Focused restore-state gate: crash after enough rows that the restored
// solver must already hold a consensus baseline, then issue the first
// `!tick` only after the restore. A post-restore incremental pose (not a
// fallback) proves the replay rebuilt the incremental state and not just
// the window buffer.
TEST(Recovery, RestoreRebuildsIncrementalStateForPostCrashTicks) {
  const auto rows = 120;
  std::vector<std::string> input;
  input.push_back(
      "!session belt mode=track center=0,0,0 dir=1,0,0 speed=1 "
      "window=1000 hop=500 hint=-1,0.6,0");
  for (int i = 0; i < rows; ++i) input.push_back(tick_row(i));
  input.push_back("!tick belt");
  const auto baseline = sequenced(run_plain(input));
  ASSERT_FALSE(baseline.empty());
  ASSERT_NE(baseline.back().find("\"source\":\"incremental\""),
            std::string::npos)
      << baseline.back();

  const std::size_t cut = 1 + rows;  // every row fed, the tick never sent
  const auto combined = crash_and_resume(input, "belt", cut);
  ASSERT_EQ(combined, baseline);
}

/// The responding session's journal as the sink saw it when one
/// sequenced response arrived: record counts by type, and the store's
/// fsync count.
struct EmitSnapshot {
  std::string line;
  bool journal_gone = false;  ///< removed by a completed `!close`
  std::map<serve::JournalRecordType, std::size_t> on_disk;
  std::uint64_t syncs = 0;

  std::size_t count(serve::JournalRecordType type) const {
    const auto it = on_disk.find(type);
    return it == on_disk.end() ? 0 : it->second;
  }
};

/// Sink that snapshots the journal of every report, fix and tick line's
/// session at the moment the line is emitted (DESIGN §12.3: the record,
/// and for a flush its fsync, must precede the answer).
struct JournalProbe {
  explicit JournalProbe(const serve::JournalStore& store) : store(store) {}

  void operator()(std::string_view view) {
    const std::string line(view);
    if (line.find("\"schema\":\"lion.report.v1\"") == std::string::npos &&
        line.find("\"schema\":\"lion.fix.v1\"") == std::string::npos &&
        line.find("\"schema\":\"lion.tick.v1\"") == std::string::npos) {
      return;
    }
    EmitSnapshot snap;
    snap.line = line;
    // Read the fsync count first: a sync it counts wrote no later than
    // the bytes read below.
    snap.syncs = store.stats().syncs;
    const std::string key = "\"session\":\"";
    const auto at = line.find(key) + key.size();
    const std::string path =
        store.path_for(line.substr(at, line.find('"', at) - at));
    std::ifstream f(path, std::ios::binary);
    snap.journal_gone = !f.good();
    std::ostringstream ss;
    ss << f.rdbuf();
    const std::string bytes = ss.str();
    if (bytes.size() >= sizeof serve::kJournalMagic) {
      const auto decoded = serve::decode_journal_records(
          std::string_view(bytes).substr(sizeof serve::kJournalMagic));
      for (const auto& r : decoded.records) ++snap.on_disk[r.type];
    }
    std::lock_guard<std::mutex> lock(mu);
    snaps.push_back(std::move(snap));
  }

  std::vector<EmitSnapshot> taken() {
    std::lock_guard<std::mutex> lock(mu);
    return snaps;
  }

  const serve::JournalStore& store;
  std::mutex mu;
  std::vector<EmitSnapshot> snaps;
};

// An incremental pose tick is journaled before it is emitted, like every
// other mutation (DESIGN §12.3): as each incremental tick line arrives,
// that tick's kPoseTick record (with every earlier tick's) must already
// be on disk.
TEST(Recovery, IncrementalTickIsJournaledBeforeItIsEmitted) {
  TempDir tmp;
  serve::JournalStoreConfig jcfg;
  jcfg.dir = tmp.path;
  jcfg.fsync_every = 8;
  serve::JournalStore store(jcfg);
  ASSERT_TRUE(store.ok()) << store.error();

  JournalProbe probe(store);
  serve::ServiceConfig cfg;
  cfg.threads = 2;
  cfg.journal = &store;
  serve::StreamService service(
      cfg, [&probe](std::string_view line) { probe(line); });
  for (const auto& l : build_tick_input(160, 10)) service.ingest_line(l);
  service.drain();

  std::size_t checked = 0;
  std::vector<std::string> early;
  for (const auto& s : probe.taken()) {
    if (s.line.find("\"source\":\"incremental\"") == std::string::npos) {
      continue;
    }
    ++checked;
    if (s.count(serve::JournalRecordType::kPoseTick) <
        uint_field(s.line, "tick") + 1) {
      early.push_back(s.line);
    }
  }
  EXPECT_GT(checked, 5u) << "scenario never reached the incremental path";
  EXPECT_TRUE(early.empty()) << early.size() << " of " << checked
                             << " incremental ticks were emitted before "
                                "their kPoseTick record, first: "
                             << (early.empty() ? "" : early.front());
}

// Every answer a pool worker emits is journaled before the ingest thread
// submits it: fallback ticks, track window fixes, scheduled calibrate and
// track flushes, and `!close`. A flush's record is also fsynced first. A
// nanosecond deadline makes each worker answer without solving, as fast
// as it can, so an append or fsync left until after the submit shows up
// here as an answer the sink saw first.
TEST(Recovery, EveryScheduledAnswerIsJournaledBeforeItIsEmitted) {
  TempDir tmp;
  serve::JournalStoreConfig jcfg;
  jcfg.dir = tmp.path;
  jcfg.fsync_every = std::size_t{1} << 30;  // only flush boundaries fsync
  serve::JournalStore store(jcfg);
  ASSERT_TRUE(store.ok()) << store.error();

  JournalProbe probe(store);
  serve::ServiceConfig cfg;
  cfg.threads = 2;
  cfg.journal = &store;
  cfg.request_timeout_s = 1e-9;
  cfg.max_inflight_per_session = 64;
  serve::StreamService service(
      cfg, [&probe](std::string_view line) { probe(line); });

  // Track session: window=64 hop=32 over 160 rows completes windows 0-3;
  // the flush answers window 4 and the close window 5.
  for (const auto& l : build_tick_input(160, 10)) service.ingest_line(l);
  service.ingest_line("!flush belt");
  service.ingest_line("!close belt");
  // Calibrate session: every flush finds new rows, so each one schedules
  // the full solve; the close schedules one more.
  constexpr std::size_t kCalFlushes = 24;
  service.ingest_line("!session cal center=0,0.8,0");
  const auto rows = synthetic_rows(4 * kCalFlushes);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    service.ingest_line(rows[i]);
    if (i % 4 == 3) service.ingest_line("!flush cal");
  }
  service.ingest_line("!close cal");
  service.drain();

  using T = serve::JournalRecordType;
  std::size_t flushes = 0, reports = 0, fixes = 0, ticks = 0,
              fallback_ticks = 0;
  std::vector<std::string> early;
  for (const auto& s : probe.taken()) {
    bool ok = true;
    if (s.line.find("\"schema\":\"lion.tick.v1\"") != std::string::npos) {
      ++ticks;
      fallback_ticks +=
          s.line.find("\"source\":\"fallback\"") != std::string::npos;
      ok = s.journal_gone ||
           s.count(T::kPoseTick) >= uint_field(s.line, "tick") + 1;
    } else if (s.line.find("\"schema\":\"lion.fix.v1\"") !=
               std::string::npos) {
      ++fixes;
      const std::uint64_t window = uint_field(s.line, "window");
      if (window < 4) {
        ok = s.journal_gone || s.count(T::kJsonSample) >= 64 + 32 * window;
      } else {
        ++flushes;
        ok = s.journal_gone ||
             (s.count(T::kFlush) >= window - 3 && s.syncs >= flushes);
      }
    } else {
      ++reports;
      ++flushes;
      ok = s.journal_gone ||
           (s.count(T::kCalFlush) >= reports && s.syncs >= flushes);
    }
    if (!ok) early.push_back(s.line);
  }
  EXPECT_EQ(reports, kCalFlushes + 1);
  EXPECT_EQ(fixes, 6u);
  EXPECT_EQ(ticks, 16u);
  EXPECT_GT(fallback_ticks, 0u) << "scenario never reached a fallback tick";
  EXPECT_TRUE(early.empty()) << early.size() << " of "
                             << reports + fixes + ticks
                             << " answers were emitted before their journal "
                                "record or flush fsync, first: "
                             << (early.empty() ? "" : early.front());
}

// ---------------------------------------------------------------------------
// Calibrate flushes across crashes
// ---------------------------------------------------------------------------

/// Clean three-line-rig scan on the dt = 0.1 grid with full columns (the
/// scan tests/serve/test_cal_memo.cpp uses).
std::vector<std::string> cal_rig_rows() {
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

/// Declare + rows + flushes arranged so the uninterrupted run exercises
/// both calibrate answers twice: fallback, memo, fallback, memo.
std::vector<std::string> cal_tiered_input() {
  const auto rows = cal_rig_rows();
  const std::size_t base = rows.size() - rows.size() / 10;
  std::vector<std::string> input;
  input.push_back("!session cal center=0.009,0.789,0.006 smoothing=1");
  for (std::size_t i = 0; i < base; ++i) input.push_back(rows[i]);
  input.push_back("!flush cal");  // cold -> fallback, installs the anchor
  input.push_back("!flush cal");  // unchanged buffer -> memo
  for (std::size_t i = base; i < rows.size(); ++i) input.push_back(rows[i]);
  input.push_back("!flush cal");  // appended rows -> fallback, new memo
  input.push_back("!flush cal");  // unchanged buffer -> memo
  return input;
}

// Calibrate-flush crash matrix: killed at >= 24 fuzzed offsets — pinned
// around every flush decision plus LCG fill — the resumed stream must be
// byte-identical to the uninterrupted baseline, source tags included. A
// restored flush may only answer memo if restore installed the exact memo
// (the last kCalAnchor's journaled bytes, once its digest matched the
// replayed buffer), so tag equality is state equality.
TEST(Recovery, CalibrateFlushCrashMatrixResumesByteIdentical) {
  const auto input = cal_tiered_input();
  const auto baseline = sequenced(run_plain(input));
  ASSERT_GE(baseline.size(), 4u);
  // The baseline itself must exercise both answers after each full solve,
  // or the matrix proves less than it claims.
  std::vector<std::string> sources;
  for (const auto& l : baseline) {
    if (l.find("\"schema\":\"lion.report.v1\"") == std::string::npos) continue;
    const auto key = l.find("\"source\":\"");
    ASSERT_NE(key, std::string::npos) << l;
    sources.push_back(l.substr(key + 10, l.find('"', key + 10) - key - 10));
  }
  ASSERT_EQ(sources, (std::vector<std::string>{"fallback", "memo", "fallback",
                                               "memo"}));

  std::set<std::size_t> cuts = {1, 2, input.size() - 1};
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (input[i].rfind("!flush", 0) == 0) {
      cuts.insert(i);      // crash with the flush un-journaled
      cuts.insert(i + 1);  // crash right after the kCalFlush record
    }
  }
  Lcg rng;
  while (cuts.size() < 24) {
    cuts.insert(1 + rng.next() % (input.size() - 1));
  }

  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    std::uint64_t records = 0;
    const auto combined = crash_and_resume(input, "cal", cut, &records);
    EXPECT_EQ(records, cut);  // kCalAnchor is internal, not a cursor record
    EXPECT_EQ(combined, baseline);
  }
}

// Focused restore-state gate, calibrate flavor: feed the whole stream,
// crash, and only then flush with no new rows. The restored session must
// answer from the memo with exactly the bytes the pre-crash flushes
// produced — possible only if replay rebuilt the memo (buffer prefix +
// report) bit for bit.
TEST(Recovery, PostRestoreCalibrateFlushAnswersMemo) {
  const auto input = cal_tiered_input();
  const auto baseline = sequenced(run_plain(input));
  ASSERT_FALSE(baseline.empty());
  const std::string& last_report = baseline.back();
  ASSERT_NE(last_report.find("\"source\":\"memo\""), std::string::npos)
      << last_report;

  TempDir dir;
  Process p1(dir.path);
  p1.feed(input, 0, input.size());
  p1.crash();

  Process p2(dir.path);
  p2.service->ingest_line(input[0]);  // restore
  ASSERT_FALSE(p2.restore_ack("cal").empty());
  p2.service->ingest_line("!flush cal");
  p2.service->drain();
  p2.crash();

  const auto post = sequenced(p2.lines);
  ASSERT_FALSE(post.empty());
  const std::string& restored_report = post.back();
  EXPECT_NE(restored_report.find("\"source\":\"memo\""), std::string::npos)
      << restored_report;
  // Same report payload as the pre-crash flushes, byte for byte.
  const auto payload = [](const std::string& line) {
    const auto key = line.find("\"report\":");
    return key == std::string::npos ? std::string() : line.substr(key);
  };
  EXPECT_EQ(payload(restored_report), payload(last_report));
}

/// The `"report":...` tail of a report line: its payload without the
/// envelope's seq.
std::string report_payload(const std::string& line) {
  const auto key = line.find("\"report\":");
  return key == std::string::npos ? std::string() : line.substr(key);
}

struct RestoredFlush {
  std::string report;  ///< the flush's report line ("" when none arrived)
  std::uint64_t replay_solves = 0;  ///< the restoring service's counters
  std::uint64_t memo_restores = 0;
};

/// Restore the calibrate session `cal` journaled in `dir` by re-sending
/// `declare`, then flush it once with no new rows.
RestoredFlush restore_and_flush(const std::string& dir,
                                const std::string& declare,
                                obs::EventLog* events = nullptr) {
  RestoredFlush out;
  Process p(dir, events);
  p.service->ingest_line(declare);
  EXPECT_FALSE(p.restore_ack("cal").empty());
  const serve::ServeStats stats = p.service->stats();
  out.replay_solves = stats[serve::ServeCounter::kReplaySolves];
  out.memo_restores = stats[serve::ServeCounter::kReplayMemoRestores];
  p.service->ingest_line("!flush cal");
  p.service->drain();
  const auto post = sequenced(p.lines);
  if (!post.empty()) out.report = post.back();
  return out;
}

// Journals written before anchors carried the memo's bytes hold a bare
// sample count. They still restore: one replay solve rebuilds the memo,
// and the next flush answers memo with the pre-crash bytes. The restore
// journals the rebuilt memo in the new anchor form, so a second restart
// installs it without solving and answers the same bytes.
TEST(Recovery, LegacyBareCountAnchorRestoresWithOneReplaySolve) {
  const auto input = cal_tiered_input();
  const auto baseline = sequenced(run_plain(input));
  ASSERT_FALSE(baseline.empty());
  TempDir dir;
  Process(dir.path).feed(input, 0, input.size());
  ASSERT_EQ(serve::strip_anchor_reports(dir.path + "/cal.lionj"), 2u);

  const RestoredFlush got = restore_and_flush(dir.path, input[0]);
  EXPECT_EQ(got.replay_solves, 1u);
  EXPECT_EQ(got.memo_restores, 0u);
  EXPECT_NE(got.report.find("\"source\":\"memo\""), std::string::npos)
      << got.report;
  EXPECT_EQ(report_payload(got.report), report_payload(baseline.back()));

  const RestoredFlush again = restore_and_flush(dir.path, input[0]);
  EXPECT_EQ(again.replay_solves, 0u);
  EXPECT_EQ(again.memo_restores, 1u);
  EXPECT_NE(again.report.find("\"source\":\"memo\""), std::string::npos)
      << again.report;
  EXPECT_EQ(report_payload(again.report), report_payload(got.report));
}

// An anchor whose digest disagrees with the replayed prefix is never
// trusted: its bytes (forged here) are not installed, restore re-solves
// the prefix and says so with a restore_memo_mismatch warning.
TEST(Recovery, AnchorDigestMismatchReSolvesInsteadOfInstalling) {
  const auto input = cal_tiered_input();
  const auto baseline = sequenced(run_plain(input));
  ASSERT_FALSE(baseline.empty());
  TempDir dir;
  Process(dir.path).feed(input, 0, input.size());
  std::size_t anchors = 0;
  serve::edit_journal(dir.path + "/cal.lionj", [&](serve::JournalRecord& r) {
    if (r.type != serve::JournalRecordType::kCalAnchor) return;
    const auto anchor = serve::parse_cal_anchor(r.line);
    ASSERT_TRUE(anchor && anchor->has_report) << r.line;
    serve::CalMemo forged;
    forged.install(anchor->samples, anchor->digest ^ 1,
                   "{\"forged\":true}");
    r.line = serve::cal_anchor_line(forged);
    ++anchors;
  });
  ASSERT_EQ(anchors, 2u);

  obs::EventLog events;
  const RestoredFlush got = restore_and_flush(dir.path, input[0], &events);
  EXPECT_EQ(got.replay_solves, 1u);
  EXPECT_EQ(got.memo_restores, 0u);
  std::size_t mismatches = 0;
  for (const auto& e : events.snapshot()) {
    if (e.type != "restore_memo_mismatch") continue;
    ++mismatches;
    EXPECT_EQ(e.severity, obs::Severity::kWarn);
    EXPECT_EQ(e.session, "cal");
  }
  EXPECT_EQ(mismatches, 1u);  // only the last anchor is consulted
  EXPECT_EQ(got.report.find("forged"), std::string::npos) << got.report;
  EXPECT_NE(got.report.find("\"source\":\"memo\""), std::string::npos)
      << got.report;
  EXPECT_EQ(report_payload(got.report), report_payload(baseline.back()));
}

// A closed session's journal is gone: re-declaring after a clean close is
// a fresh session, not a restore.
TEST(Recovery, CloseDeletesTheJournal) {
  const auto input = build_input("g", synthetic_rows(10), 100);
  TempDir dir;
  Process p1(dir.path);
  p1.feed(input, 0, input.size());
  p1.service->ingest_line("!close g");
  p1.service->drain();
  p1.crash();

  Process p2(dir.path);
  p2.service->ingest_line(input[0]);
  p2.service->drain();
  EXPECT_TRUE(p2.restore_ack("g").empty());  // fresh, no ack
}

}  // namespace
}  // namespace lion
