// Journal codec and store fuzzing: framing round-trips, torn tails,
// bit-flipped CRCs, interleaved partial records, and the claim/resume
// lifecycle of JournalStore. Recovery must skip torn tails and never
// throw, no matter what bytes the disk hands back.

#include <gtest/gtest.h>

#include <unistd.h>
#include <dirent.h>
#include <sys/stat.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/journal.hpp"
#include "serve/wire.hpp"

namespace lion::serve {
namespace {

struct Lcg {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

std::string make_temp_dir() {
  char tmpl[] = "/tmp/lion_journal_test_XXXXXX";
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

std::vector<JournalRecord> sample_records(std::size_t n) {
  std::vector<JournalRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    JournalRecord r;
    r.type = i == 0 ? JournalRecordType::kDeclare
                    : (i % 7 == 0 ? JournalRecordType::kFlush
                                  : JournalRecordType::kCsvRow);
    r.lsn = i;
    r.tick = 10 + i;
    r.seq = 2 * i;
    r.line = r.type == JournalRecordType::kFlush
                 ? ""
                 : "0.1,0.2,0.3," + std::to_string(i);
    records.push_back(std::move(r));
  }
  return records;
}

std::string encode_all(const std::vector<JournalRecord>& records) {
  std::string bytes;
  for (const auto& r : records) bytes += encode_journal_record(r);
  return bytes;
}

void expect_prefix_matches(const JournalDecode& decoded,
                           const std::vector<JournalRecord>& originals) {
  ASSERT_LE(decoded.records.size(), originals.size());
  for (std::size_t i = 0; i < decoded.records.size(); ++i) {
    EXPECT_EQ(decoded.records[i].type, originals[i].type) << i;
    EXPECT_EQ(decoded.records[i].lsn, originals[i].lsn) << i;
    EXPECT_EQ(decoded.records[i].tick, originals[i].tick) << i;
    EXPECT_EQ(decoded.records[i].seq, originals[i].seq) << i;
    EXPECT_EQ(decoded.records[i].line, originals[i].line) << i;
  }
}

TEST(JournalCodec, RoundTripsMixedRecords) {
  const auto records = sample_records(25);
  const auto decoded = decode_journal_records(encode_all(records));
  EXPECT_FALSE(decoded.torn);
  ASSERT_EQ(decoded.records.size(), records.size());
  expect_prefix_matches(decoded, records);
}

TEST(JournalCodec, EveryTruncationYieldsValidPrefixAndNeverThrows) {
  const auto records = sample_records(8);
  const std::string bytes = encode_all(records);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto decoded = decode_journal_records(bytes.substr(0, cut));
    expect_prefix_matches(decoded, records);
    // Cutting on a record boundary is a clean (shorter) journal; any
    // other cut is a torn tail.
    EXPECT_EQ(decoded.torn, cut != decoded.consumed) << "cut=" << cut;
    EXPECT_LE(decoded.consumed, cut);
  }
}

TEST(JournalCodec, BitFlipsStopDecodeAtTheDamagedRecord) {
  const auto records = sample_records(10);
  const std::string bytes = encode_all(records);
  Lcg rng;
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bytes;
    const std::size_t pos = rng.next() % mutated.size();
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     (1u << (rng.next() % 8)));
    const auto decoded = decode_journal_records(mutated);
    // The flip corrupts exactly one record's frame: everything before it
    // decodes verbatim, nothing after is trusted (no resync by design —
    // only a torn *tail* is recoverable), and nothing throws.
    EXPECT_TRUE(decoded.torn) << "pos=" << pos;
    expect_prefix_matches(decoded, records);
    EXPECT_LT(decoded.records.size(), records.size()) << "pos=" << pos;
  }
}

TEST(JournalCodec, InterleavedPartialRecordIsATornTail) {
  const auto records = sample_records(6);
  std::string bytes;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i == 3) {
      // Half of a valid frame spliced in mid-file (a lost write).
      const std::string frame = encode_journal_record(records[i]);
      bytes += frame.substr(0, frame.size() / 2);
      break;
    }
    bytes += encode_journal_record(records[i]);
  }
  const auto decoded = decode_journal_records(bytes);
  EXPECT_TRUE(decoded.torn);
  ASSERT_EQ(decoded.records.size(), 3u);
  expect_prefix_matches(decoded, records);
}

TEST(JournalCodec, OversizedLengthAndBadLsnAreCorruption) {
  const auto records = sample_records(3);
  std::string bytes = encode_all(records);
  // A frame whose length field claims more than kJournalMaxPayload.
  std::string huge = encode_journal_record(records[0]);
  huge[4] = '\xff';
  huge[5] = '\xff';
  huge[6] = '\xff';
  huge[7] = '\x7f';
  auto decoded = decode_journal_records(bytes + huge);
  EXPECT_TRUE(decoded.torn);
  EXPECT_EQ(decoded.records.size(), 3u);

  // A record with the wrong (non-contiguous) LSN, valid CRC and all.
  JournalRecord skip = records[0];
  skip.lsn = 7;  // expected 3
  decoded = decode_journal_records(bytes + encode_journal_record(skip));
  EXPECT_TRUE(decoded.torn);
  EXPECT_EQ(decoded.records.size(), 3u);
}

TEST(JournalCodec, CrcIsTheIeeeReflectedPolynomial) {
  // Pin the CRC so journals stay readable across refactors.
  EXPECT_EQ(journal_crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(journal_crc32(""), 0u);
}

/// The textbook bytewise CRC-32 the slicing-by-8 tables are built from.
std::uint32_t bytewise_crc32(std::string_view data) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(JournalCodec, SlicedCrcMatchesBytewiseAtEveryLengthAndAlignment) {
  // Every tail length around the 8-byte step, at every start offset mod 8.
  Lcg rng;
  std::string buf(64 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.next() & 0xff);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view view(buf.data() + offset, len);
      EXPECT_EQ(journal_crc32(view), bytewise_crc32(view))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(JournalCodec, SlicedCrcMatchesBytewiseOnRandomMegabytes) {
  Lcg rng;
  for (int trial = 0; trial < 3; ++trial) {
    std::string buf(1 << 20, '\0');
    for (char& c : buf) c = static_cast<char>(rng.next() & 0xff);
    EXPECT_EQ(journal_crc32(buf), bytewise_crc32(buf)) << trial;
    const std::string_view odd =
        std::string_view(buf).substr(3, buf.size() - 8);
    EXPECT_EQ(journal_crc32(odd), bytewise_crc32(odd)) << trial;
  }
}

TEST(JournalCodec, NormalizedDeclareIsOrderAndSpellingInvariant) {
  const ParsedLine a = parse_line("!session s1 center=1,2,3 wavelength=0.33");
  const ParsedLine b =
      parse_line("!session s1 wavelength=0.33 center=1.0,2.00,3");
  ASSERT_EQ(a.kind, ParsedLine::kSession);
  ASSERT_EQ(b.kind, ParsedLine::kSession);
  EXPECT_EQ(normalize_declare_line(a), normalize_declare_line(b));

  const ParsedLine c = parse_line("!session s1 center=1,2,3.5");
  EXPECT_NE(normalize_declare_line(a), normalize_declare_line(c));
}

TEST(JournalCodec, CanonicalSampleLineRoundTripsThroughParseLine) {
  sim::PhaseSample s;
  s.t = 1.25;
  s.position = {0.1, -0.25, 1e-17};
  s.phase = 3.14159265358979;
  s.rssi_dbm = -61.5;
  s.channel = 12;
  const std::string line = canonical_sample_line(s);
  const ParsedLine parsed = parse_line(line);
  ASSERT_TRUE(parsed.json_sample.has_value()) << line;
  EXPECT_EQ(parsed.json_sample->t, s.t);
  EXPECT_EQ(parsed.json_sample->position[0], s.position[0]);
  EXPECT_EQ(parsed.json_sample->position[1], s.position[1]);
  EXPECT_EQ(parsed.json_sample->position[2], s.position[2]);
  EXPECT_EQ(parsed.json_sample->phase, s.phase);
  EXPECT_EQ(parsed.json_sample->rssi_dbm, s.rssi_dbm);
  EXPECT_EQ(parsed.json_sample->channel, s.channel);
}

// ---------------------------------------------------------------------------
// JournalStore lifecycle
// ---------------------------------------------------------------------------

JournalStoreConfig store_cfg(const std::string& dir,
                             std::size_t fsync_every = 64) {
  JournalStoreConfig cfg;
  cfg.dir = dir;
  cfg.fsync_every = fsync_every;
  return cfg;
}

std::string declare_for(const std::string& id) {
  return normalize_declare_line(
      parse_line("!session " + id + " center=0,0.8,0"));
}

void write_session_journal(JournalStore& store, const std::string& id,
                           std::size_t rows) {
  auto writer = store.open_writer(id, 0);
  ASSERT_NE(writer, nullptr);
  ASSERT_TRUE(writer->append(JournalRecordType::kDeclare, declare_for(id),
                             1, 0));
  for (std::size_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(writer->append(JournalRecordType::kCsvRow,
                               "0.1,0.2,0.3," + std::to_string(i), 2 + i,
                               i));
  }
  ASSERT_TRUE(writer->sync());
  writer.reset();
  store.detach(id);
}

TEST(JournalStore, ClaimRecoversWhatTheWriterAppended) {
  TempDir tmp;
  JournalStore store(store_cfg(tmp.path));
  ASSERT_TRUE(store.ok()) << store.error();
  write_session_journal(store, "a", 5);

  JournalStore reopened(store_cfg(tmp.path));  // a new process
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.recovered_at_start(), 1u);
  std::string error;
  const auto rec = reopened.claim("a", error);
  ASSERT_TRUE(rec.has_value()) << error;
  EXPECT_EQ(rec->declare_line, declare_for("a"));
  EXPECT_EQ(rec->record_count, 6u);
  EXPECT_EQ(rec->records.size(), 5u);  // declare popped into declare_line
  EXPECT_FALSE(rec->torn);
  EXPECT_EQ(rec->last_tick, 6u);
  EXPECT_EQ(rec->last_seq, 4u);
}

TEST(JournalStore, ClaimIsExclusiveUntilDetach) {
  TempDir tmp;
  JournalStore store(store_cfg(tmp.path));
  write_session_journal(store, "a", 2);
  std::string error;
  ASSERT_TRUE(store.claim("a", error).has_value()) << error;
  EXPECT_FALSE(store.claim("a", error).has_value());
  EXPECT_FALSE(error.empty());
  store.detach("a");
  error.clear();
  EXPECT_TRUE(store.claim("a", error).has_value()) << error;
}

TEST(JournalStore, TornTailIsTruncatedAndResumable) {
  TempDir tmp;
  {
    JournalStore store(store_cfg(tmp.path));
    write_session_journal(store, "a", 4);
  }
  // Chop bytes off the newest record, as a crash mid-write would.
  const std::string path = tmp.path + "/a.lionj";
  struct stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(path.c_str(), st.st_size - 3), 0);

  JournalStore store(store_cfg(tmp.path));
  std::string error;
  const auto rec = store.claim("a", error);
  ASSERT_TRUE(rec.has_value()) << error;
  EXPECT_TRUE(rec->torn);
  EXPECT_EQ(rec->record_count, 4u);  // declare + 3 intact rows

  // Appending after the claim resumes cleanly at the truncated boundary.
  auto writer = store.open_writer("a", rec->record_count);
  ASSERT_NE(writer, nullptr);
  ASSERT_TRUE(writer->append(JournalRecordType::kCsvRow, "resumed", 99, 9));
  ASSERT_TRUE(writer->sync());
  writer.reset();
  store.detach("a");

  JournalStore again(store_cfg(tmp.path));
  const auto rec2 = again.claim("a", error);
  ASSERT_TRUE(rec2.has_value()) << error;
  EXPECT_FALSE(rec2->torn);
  EXPECT_EQ(rec2->record_count, 5u);
  EXPECT_EQ(rec2->records.back().line, "resumed");
}

TEST(JournalStore, FileWithoutDeclareIsQuarantinedNotFatal) {
  TempDir tmp;
  {
    std::ofstream f(tmp.path + "/bad.lionj", std::ios::binary);
    f.write(kJournalMagic, sizeof(kJournalMagic));
    f << "this is not a journal record";
  }
  JournalStore store(store_cfg(tmp.path));
  ASSERT_TRUE(store.ok());
  std::string error;
  EXPECT_FALSE(store.claim("bad", error).has_value());
  EXPECT_TRUE(error.empty());  // treated as absent, not as a conflict
  EXPECT_GE(store.stats().corrupt_files, 1u);
}

TEST(JournalStore, RemoveDeletesTheFile) {
  TempDir tmp;
  JournalStore store(store_cfg(tmp.path));
  write_session_journal(store, "gone", 1);
  store.remove("gone");
  std::ifstream f(tmp.path + "/gone.lionj");
  EXPECT_FALSE(f.good());
  EXPECT_GE(store.stats().removed, 1u);
}

TEST(JournalStore, FuzzedGarbageFilesNeverThrow) {
  Lcg rng;
  for (int trial = 0; trial < 50; ++trial) {
    TempDir tmp;
    {
      std::ofstream f(tmp.path + "/fuzz.lionj", std::ios::binary);
      f.write(kJournalMagic, sizeof(kJournalMagic));
      const std::size_t n = rng.next() % 512;
      std::string noise;
      for (std::size_t i = 0; i < n; ++i) {
        noise.push_back(static_cast<char>(rng.next() & 0xff));
      }
      f << noise;
    }
    JournalStore store(store_cfg(tmp.path));
    std::string error;
    EXPECT_NO_THROW({
      const auto rec = store.claim("fuzz", error);
      if (rec) {
        auto writer = store.open_writer("fuzz", rec->record_count);
        if (writer) writer->append(JournalRecordType::kFlush, "", 1, 1);
      }
    });
  }
}

std::string attached_error(const std::string& id) {
  return "journal: session '" + id + "' is attached to a live connection";
}

TEST(JournalStore, ConcurrentClaimsOfOneIdAdmitExactlyOne) {
  TempDir tmp;
  JournalStore store(store_cfg(tmp.path));
  write_session_journal(store, "one", 200);
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<std::optional<RecoveredSession>> results(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      results[i] = store.claim("one", errors[i]);
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  int winners = 0;
  for (int i = 0; i < kThreads; ++i) {
    if (results[i]) {
      ++winners;
      EXPECT_TRUE(errors[i].empty());
      EXPECT_EQ(results[i]->record_count, 201u);
    } else {
      EXPECT_EQ(errors[i], attached_error("one"));
    }
  }
  EXPECT_EQ(winners, 1);
  EXPECT_EQ(store.stats().claims, 1u);
}

TEST(JournalStore, ConcurrentClaimsOfDistinctIdsEachGetTheirOwnRecords) {
  TempDir tmp;
  JournalStore store(store_cfg(tmp.path));
  constexpr int kThreads = 8;
  for (int i = 0; i < kThreads; ++i) {
    write_session_journal(store, "s" + std::to_string(i), 10 + 7 * i);
  }
  std::atomic<bool> go{false};
  std::vector<std::optional<RecoveredSession>> results(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      results[i] = store.claim("s" + std::to_string(i), errors[i]);
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    const std::string id = "s" + std::to_string(i);
    ASSERT_TRUE(results[i].has_value()) << id << ": " << errors[i];
    EXPECT_EQ(results[i]->id, id);
    EXPECT_EQ(results[i]->declare_line, declare_for(id));
    const std::size_t rows = 10 + 7 * static_cast<std::size_t>(i);
    ASSERT_EQ(results[i]->records.size(), rows) << id;
    EXPECT_EQ(results[i]->records.back().line,
              "0.1,0.2,0.3," + std::to_string(rows - 1));
  }
  EXPECT_EQ(store.stats().claims, static_cast<std::uint64_t>(kThreads));
  // Each id stays claimed by its winner.
  std::string error;
  EXPECT_FALSE(store.claim("s3", error).has_value());
  EXPECT_EQ(error, attached_error("s3"));
}

TEST(JournalStore, FailedClaimLeavesTheIdFree) {
  TempDir tmp;
  {
    std::ofstream f(tmp.path + "/bad.lionj", std::ios::binary);
    f.write(kJournalMagic, sizeof(kJournalMagic));
    f << "this is not a journal record";
  }
  JournalStore store(store_cfg(tmp.path));
  for (const std::string id : {"absent", "bad"}) {
    SCOPED_TRACE(id);
    std::string error;
    EXPECT_FALSE(store.claim(id, error).has_value());
    EXPECT_TRUE(error.empty()) << error;
    // A later claim is not refused as attached ...
    EXPECT_FALSE(store.claim(id, error).has_value());
    EXPECT_TRUE(error.empty()) << error;
    // ... and the fresh session's writer journals and hands it back.
    write_session_journal(store, id, 3);
    const auto rec = store.claim(id, error);
    ASSERT_TRUE(rec.has_value()) << error;
    EXPECT_EQ(rec->record_count, 4u);
    store.detach(id);
  }
  EXPECT_EQ(store.stats().corrupt_files, 1u);
}

}  // namespace
}  // namespace lion::serve
