// Durable session journals: the crash-recovery layer of the serve path.
//
// A journal is an append-only per-session file of CRC-framed records, one
// file per live session under a journal directory:
//
//   <dir>/<session-id>.lionj
//
// Every record that reaches the file describes one *applied* state
// mutation of that session — the declare that created it, each CSV row
// fed to its stream parser (headers and error rows included, so the
// parser's layout and line-number state replays exactly), each JSON
// sample accepted, and each flush boundary. Records carry a snapshot of
// the service's global counters (virtual-clock tick, next response
// sequence number) taken after the mutation, so recovery can restore the
// sequencing domain as of the last durable record without a cross-session
// merge.
//
// Durability model
// ----------------
//   - journal-after-apply: a record is appended after its mutation (and
//     any response-sequence reservation) happened. A crash between apply
//     and append loses at most the un-journaled suffix; the client
//     resumes from the restore ack's record count and re-sends it.
//   - write() per record, fsync() batched every `fsync_every` appends and
//     forced at flush boundaries and on seal. Process death (SIGKILL)
//     never loses write()n bytes — fsync batching is an OS-crash window
//     only.
//   - torn tails are expected: recovery stops at the first record whose
//     frame, CRC, or LSN fails, never throws, and reports the tail as
//     torn. Only the newest record can be torn (single appender).
//   - a cleanly closed (or evicted) session's file is removed; journals
//     on disk are exactly the sessions that were live at the crash.
//
// The store is shared across connections (the SocketServer owns one), so
// a session journaled by a dead connection can be adopted by the next
// connection that re-declares it. `claim` hands a session's recovered
// state to exactly one service at a time.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "serve/wire.hpp"

namespace lion::serve {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `data`, computed
/// slicing-by-8 (the bytewise table's values, eight bytes per step).
/// Public because the codec fuzz suite builds deliberately corrupt frames
/// with it.
std::uint32_t journal_crc32(std::string_view data);

/// 8-byte file magic every journal starts with.
inline constexpr char kJournalMagic[8] = {'L', 'I', 'O', 'N',
                                          'J', 'R', 'N', '1'};

/// Hard cap on one record's payload; a frame claiming more is corruption.
inline constexpr std::size_t kJournalMaxPayload = 1 << 20;

/// What one record describes.
enum class JournalRecordType : std::uint8_t {
  kDeclare = 1,     ///< line = normalized `!session` declare
  kCsvRow = 2,      ///< line = raw CSV payload routed to this session
  kJsonSample = 3,  ///< line = canonical JSON read record
  kFlush = 4,       ///< flush boundary (line empty)
  kPoseTick = 5,    ///< pose tick emitted for this session (line empty)
  kCalFlush = 6,    ///< calibrate flush decided (line empty)
  kCalAnchor = 7,   ///< calibrate flush memo installed; line =
                    ///< `<samples> <digest> <report json>`: the sample
                    ///< count the solve consumed, cal_buffer_digest of
                    ///< that prefix (16 hex digits) and the report's
                    ///< io::report_json bytes (serve/session.hpp
                    ///< cal_anchor_line). Older daemons wrote the bare
                    ///< count; restore re-solves those.
};

/// One decoded record.
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kCsvRow;
  std::uint64_t lsn = 0;   ///< record index within this file, from 0
  std::uint64_t tick = 0;  ///< service virtual clock after the mutation
  std::uint64_t seq = 0;   ///< service next response seq after the mutation
  std::string line;
};

/// Frame one record: `u32 crc | u32 len | payload`, payload =
/// `u8 type | u64 lsn | u64 tick | u64 seq | line bytes`, little-endian.
std::string encode_journal_record(const JournalRecord& record);

/// Result of decoding a journal byte stream (after the file magic).
struct JournalDecode {
  std::vector<JournalRecord> records;  ///< valid prefix, LSNs 0..n-1
  bool torn = false;       ///< trailing bytes failed framing/CRC/LSN
  std::size_t consumed = 0;  ///< bytes of `data` covered by `records`
};

/// Decode as many valid records as the bytes hold. Never throws; stops at
/// the first bad frame (short header, oversized length, CRC mismatch, or
/// non-contiguous LSN) and flags the remainder as a torn tail.
JournalDecode decode_journal_records(std::string_view data,
                                     std::uint64_t first_lsn = 0);

/// Normalized `!session` declare line rebuilt from a parsed declare, with
/// fixed option order and %.17g numbers — the form journaled and compared
/// on re-declare, so textual equality means config equality.
std::string normalize_declare_line(const ParsedLine& line);

/// Canonical JSON read-record line for journaling an accepted sample.
/// Round-trips exactly through parse_line (%.17g doubles; non-finite
/// values print as nan/inf tokens, which the wire number parser accepts).
std::string canonical_sample_line(const sim::PhaseSample& sample);

class JournalStore;

/// Appender for one session's journal file. Created by the store; never
/// throws — I/O failure latches `ok() == false` and the caller degrades.
class JournalWriter {
 public:
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  bool ok() const { return fd_ >= 0 && !failed_; }

  /// Append one record; assigns the next LSN and stamps the snapshots.
  /// fsyncs every `fsync_every` appends. Returns false on I/O failure.
  bool append(JournalRecordType type, std::string_view line,
              std::uint64_t tick, std::uint64_t seq);

  /// Force pending bytes to disk now (flush boundaries, seal, drain).
  bool sync();

  std::uint64_t records() const { return next_lsn_; }
  std::uint64_t unsynced() const { return unsynced_; }

 private:
  friend class JournalStore;
  JournalWriter(JournalStore* store, std::string path,
                std::uint64_t next_lsn, std::size_t fsync_every,
                bool truncate);

  JournalStore* store_;
  std::string path_;
  int fd_ = -1;
  bool failed_ = false;
  std::uint64_t next_lsn_ = 0;
  std::size_t fsync_every_;
  std::uint64_t unsynced_ = 0;
  std::string scratch_;  ///< reused frame buffer (append is hot)
};

struct JournalStoreConfig {
  std::string dir;
  /// fsync once per this many appended records (1 = every record). Only
  /// bounds the OS-crash loss window — process death never loses write()n
  /// records — so the default batches aggressively; flush boundaries and
  /// seal force a sync regardless.
  std::size_t fsync_every = 1024;
};

/// A session's journal as read back at claim time.
struct RecoveredSession {
  std::string id;
  std::string declare_line;         ///< normalized declare (record 0)
  std::vector<JournalRecord> records;  ///< the rest, in LSN order
  std::uint64_t record_count = 0;   ///< including the declare record
  /// Records that correspond 1:1 to client wire lines — record_count
  /// minus internal bookkeeping records (kCalAnchor). This is the resume
  /// cursor the restore ack reports: a client that fed k lines resumes
  /// at input index == client_records no matter how many anchors the
  /// service journaled behind its back.
  std::uint64_t client_records = 0;
  std::uint64_t last_tick = 0;      ///< snapshots of the newest record
  std::uint64_t last_seq = 0;
  bool torn = false;                ///< a torn tail was skipped
};

/// Shared, thread-safe directory of per-session journals.
class JournalStore {
 public:
  /// Creates the directory if missing and scans existing journals (counts
  /// only — files are re-read at claim time, which is when they are
  /// authoritative). On failure `ok()` is false and the store is inert.
  explicit JournalStore(JournalStoreConfig config);

  JournalStore(const JournalStore&) = delete;
  JournalStore& operator=(const JournalStore&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  const std::string& dir() const { return cfg_.dir; }

  /// Hand the journaled state of `id` to the calling service and mark it
  /// attached. nullopt when no (usable) journal exists — a file with no
  /// valid declare record is renamed aside as `.corrupt` and treated as
  /// absent; either way the id is left unattached. Fails (nullopt + error)
  /// when another live service holds it, or is claiming it right now: the
  /// store lock covers only the attach mark, and the read, decode, torn-
  /// tail truncate and quarantine run outside it.
  std::optional<RecoveredSession> claim(const std::string& id,
                                        std::string& error);

  /// Open the appender for `id`. `next_lsn` 0 starts a fresh file
  /// (truncating any stale bytes); nonzero resumes appending after a
  /// claim. Marks the session attached. Returns nullptr on I/O failure.
  std::unique_ptr<JournalWriter> open_writer(const std::string& id,
                                             std::uint64_t next_lsn);

  /// Seal-and-delete: clean close or eviction. Detaches.
  void remove(const std::string& id);

  /// Service teardown without close: keep the file, allow re-claim.
  void detach(const std::string& id);

  /// Number of session journals found on disk at construction.
  std::uint64_t recovered_at_start() const { return scanned_sessions_; }

  struct Stats {
    std::uint64_t scanned_sessions = 0;  ///< files present at startup
    std::uint64_t scanned_records = 0;   ///< valid records in them
    std::uint64_t torn_tails = 0;        ///< torn/corrupt tails skipped
    std::uint64_t corrupt_files = 0;     ///< files renamed aside
    std::uint64_t appends = 0;           ///< records written (all writers)
    std::uint64_t syncs = 0;             ///< fsyncs issued
    std::uint64_t failures = 0;          ///< write/fsync errors
    std::uint64_t claims = 0;            ///< sessions handed to a service
    std::uint64_t removed = 0;           ///< sealed-and-deleted journals
  };
  Stats stats() const;

  /// Journal file path for `id` (valid session ids are filesystem-safe).
  std::string path_for(const std::string& id) const;

 private:
  friend class JournalWriter;

  JournalStoreConfig cfg_;
  bool ok_ = false;
  std::string error_;
  std::uint64_t scanned_sessions_ = 0;

  mutable std::mutex mu_;
  std::set<std::string> attached_;

  // Writer-shared counters (writers run on their services' ingest
  // threads; healthz snapshots read them from any connection).
  std::atomic<std::uint64_t> scanned_records_{0};
  std::atomic<std::uint64_t> torn_tails_{0};
  std::atomic<std::uint64_t> corrupt_files_{0};
  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> syncs_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> claims_{0};
  std::atomic<std::uint64_t> removed_{0};
};

}  // namespace lion::serve
