#include "serve/journal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace lion::serve {

namespace {

// Little-endian field helpers: the frame layout is defined byte-wise so
// the files are portable across hosts regardless of native endianness.
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

// type(1) + lsn(8) + tick(8) + seq(8)
constexpr std::size_t kPayloadHeader = 25;
constexpr std::size_t kFrameHeader = 8;  // crc(4) + len(4)

// %.17g keeps IEEE doubles round-trip exact, and — unlike the obs JSON
// emitter, which maps non-finite values to null — prints nan/inf tokens
// the wire number parser (strtod) reads back verbatim.
void append_exact_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

// Loop a full write(); short writes and EINTR are retried.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// Read a whole file without iostreams (the recovery path must not throw).
bool read_file(const std::string& path, std::string& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  out.clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

}  // namespace

std::uint32_t journal_crc32(std::string_view data) {
  // Slicing-by-8: t[0] is the classic bytewise table; t[k][b] advances the
  // CRC of byte b through k further zero bytes, so eight table lookups
  // fold eight input bytes at once. Same polynomial, same values.
  using Tables = std::array<std::array<std::uint32_t, 256>, 8>;
  static const Tables t = [] {
    Tables out{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      out[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = out[k - 1][i];
        out[k][i] = out[0][prev & 0xFF] ^ (prev >> 8);
      }
    }
    return out;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const char* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ get_u32(p);
    const std::uint32_t hi = get_u32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string encode_journal_record(const JournalRecord& record) {
  std::string payload;
  payload.reserve(kPayloadHeader + record.line.size());
  payload.push_back(static_cast<char>(record.type));
  put_u64(payload, record.lsn);
  put_u64(payload, record.tick);
  put_u64(payload, record.seq);
  payload += record.line;

  std::string out;
  out.reserve(kFrameHeader + payload.size());
  put_u32(out, journal_crc32(payload));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
  return out;
}

JournalDecode decode_journal_records(std::string_view data,
                                     std::uint64_t first_lsn) {
  JournalDecode out;
  std::size_t pos = 0;
  std::uint64_t expect_lsn = first_lsn;
  while (pos + kFrameHeader <= data.size()) {
    const std::uint32_t crc = get_u32(data.data() + pos);
    const std::uint32_t len = get_u32(data.data() + pos + 4);
    if (len < kPayloadHeader || len > kJournalMaxPayload) break;
    if (pos + kFrameHeader + len > data.size()) break;  // torn mid-record
    const std::string_view payload = data.substr(pos + kFrameHeader, len);
    if (journal_crc32(payload) != crc) break;
    const std::uint8_t type_raw =
        static_cast<std::uint8_t>(static_cast<unsigned char>(payload[0]));
    if (type_raw < static_cast<std::uint8_t>(JournalRecordType::kDeclare) ||
        type_raw > static_cast<std::uint8_t>(JournalRecordType::kCalAnchor)) {
      break;
    }
    JournalRecord rec;
    rec.type = static_cast<JournalRecordType>(type_raw);
    rec.lsn = get_u64(payload.data() + 1);
    rec.tick = get_u64(payload.data() + 9);
    rec.seq = get_u64(payload.data() + 17);
    if (rec.lsn != expect_lsn) break;  // a gap means the frame lies
    rec.line.assign(payload.data() + kPayloadHeader,
                    payload.size() - kPayloadHeader);
    out.records.push_back(std::move(rec));
    pos += kFrameHeader + len;
    ++expect_lsn;
  }
  out.consumed = pos;
  out.torn = pos != data.size();
  return out;
}

std::string normalize_declare_line(const ParsedLine& line) {
  std::string out = "!session ";
  out += line.session;
  out += line.mode == SessionMode::kTrack ? " mode=track" : " mode=calibrate";
  const auto vec = [&out](const char* key, const Vec3& v) {
    out.push_back(' ');
    out += key;
    out.push_back('=');
    append_exact_number(out, v[0]);
    out.push_back(',');
    append_exact_number(out, v[1]);
    out.push_back(',');
    append_exact_number(out, v[2]);
  };
  const auto num = [&out](const char* key, double v) {
    out.push_back(' ');
    out += key;
    out.push_back('=');
    append_exact_number(out, v);
  };
  if (line.center) vec("center", *line.center);
  if (line.direction) vec("dir", *line.direction);
  if (line.hint) vec("hint", *line.hint);
  if (line.speed) num("speed", *line.speed);
  if (line.wavelength) num("wavelength", *line.wavelength);
  if (line.window) num("window", static_cast<double>(*line.window));
  if (line.hop) num("hop", static_cast<double>(*line.hop));
  if (line.dim) num("dim", static_cast<double>(*line.dim));
  if (line.smoothing) num("smoothing", static_cast<double>(*line.smoothing));
  return out;
}

std::string canonical_sample_line(const sim::PhaseSample& sample) {
  std::string out = "{\"x\":";
  append_exact_number(out, sample.position[0]);
  out += ",\"y\":";
  append_exact_number(out, sample.position[1]);
  out += ",\"z\":";
  append_exact_number(out, sample.position[2]);
  out += ",\"phase\":";
  append_exact_number(out, sample.phase);
  out += ",\"rssi\":";
  append_exact_number(out, sample.rssi_dbm);
  out += ",\"channel\":";
  out += std::to_string(sample.channel);
  out += ",\"t\":";
  append_exact_number(out, sample.t);
  out.push_back('}');
  return out;
}

// ---------------------------------------------------------------------------
// JournalWriter
// ---------------------------------------------------------------------------

JournalWriter::JournalWriter(JournalStore* store, std::string path,
                             std::uint64_t next_lsn, std::size_t fsync_every,
                             bool truncate)
    : store_(store),
      path_(std::move(path)),
      next_lsn_(next_lsn),
      fsync_every_(fsync_every == 0 ? 1 : fsync_every) {
  int flags = O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) return;
  if (truncate) {
    if (!write_all(fd_, kJournalMagic, sizeof kJournalMagic)) {
      failed_ = true;
    }
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) {
    if (unsynced_ > 0) sync();
    ::close(fd_);
    fd_ = -1;
  }
}

bool JournalWriter::append(JournalRecordType type, std::string_view line,
                           std::uint64_t tick, std::uint64_t seq) {
  if (!ok()) return false;
  // Ingest-hot path: frame the record in a reused buffer (header patched
  // in after the payload CRC is known) so one append is one allocation-
  // free write().
  std::string& frame = scratch_;
  frame.clear();
  frame.append(kFrameHeader, '\0');
  frame.push_back(static_cast<char>(type));
  put_u64(frame, next_lsn_);
  put_u64(frame, tick);
  put_u64(frame, seq);
  frame.append(line);
  const std::string_view payload =
      std::string_view(frame).substr(kFrameHeader);
  std::string header;
  put_u32(header, journal_crc32(payload));
  put_u32(header, static_cast<std::uint32_t>(payload.size()));
  frame.replace(0, kFrameHeader, header);
  if (!write_all(fd_, frame.data(), frame.size())) {
    failed_ = true;
    store_->failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ++next_lsn_;
  ++unsynced_;
  store_->appends_.fetch_add(1, std::memory_order_relaxed);
  if (unsynced_ >= fsync_every_) return sync();
  return true;
}

bool JournalWriter::sync() {
  if (!ok()) return false;
  if (unsynced_ == 0) return true;
  if (::fsync(fd_) != 0) {
    failed_ = true;
    store_->failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  unsynced_ = 0;
  store_->syncs_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// ---------------------------------------------------------------------------
// JournalStore
// ---------------------------------------------------------------------------

JournalStore::JournalStore(JournalStoreConfig config)
    : cfg_(std::move(config)) {
  if (cfg_.dir.empty()) {
    error_ = "journal: empty directory path";
    return;
  }
  if (::mkdir(cfg_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    error_ = std::string("journal: mkdir ") + cfg_.dir + ": " +
             std::strerror(errno);
    return;
  }
  // Startup scan: count journals and their valid records so operators
  // (and the healthz surface) see what a restart inherited. The files
  // themselves stay untouched until a session is claimed.
  ::DIR* dir = ::opendir(cfg_.dir.c_str());
  if (dir == nullptr) {
    error_ = std::string("journal: opendir ") + cfg_.dir + ": " +
             std::strerror(errno);
    return;
  }
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    const std::string suffix = ".lionj";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    std::string bytes;
    if (!read_file(cfg_.dir + "/" + name, bytes)) continue;
    ++scanned_sessions_;
    if (bytes.size() < sizeof kJournalMagic ||
        std::memcmp(bytes.data(), kJournalMagic, sizeof kJournalMagic) != 0) {
      torn_tails_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const JournalDecode decode = decode_journal_records(
        std::string_view(bytes).substr(sizeof kJournalMagic));
    scanned_records_.fetch_add(decode.records.size(),
                               std::memory_order_relaxed);
    if (decode.torn) torn_tails_.fetch_add(1, std::memory_order_relaxed);
  }
  ::closedir(dir);
  ok_ = true;
}

std::string JournalStore::path_for(const std::string& id) const {
  return cfg_.dir + "/" + id + ".lionj";
}

std::optional<RecoveredSession> JournalStore::claim(const std::string& id,
                                                    std::string& error) {
  // Only the attach mark is taken under mu_. The file I/O below runs
  // outside it, so shards restoring different sessions do not queue behind
  // each other; the mark alone keeps a concurrent claim of the same id out.
  // Every way out but a successful claim drops the mark again.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!attached_.insert(id).second) {
      error = "journal: session '" + id + "' is attached to a live connection";
      return std::nullopt;
    }
  }
  struct Mark {
    JournalStore* store;
    const std::string& id;
    bool keep = false;
    ~Mark() {
      if (keep) return;
      std::lock_guard<std::mutex> lock(store->mu_);
      store->attached_.erase(id);
    }
  } mark{this, id};

  const std::string path = path_for(id);
  std::string bytes;
  if (!read_file(path, bytes)) return std::nullopt;  // no journal: fresh

  const auto discard_corrupt = [&] {
    // Unusable file (no magic / no declare): move it aside so the fresh
    // session's writer does not append to garbage, keep it for forensics.
    corrupt_files_.fetch_add(1, std::memory_order_relaxed);
    ::rename(path.c_str(), (path + ".corrupt").c_str());
  };

  if (bytes.size() < sizeof kJournalMagic ||
      std::memcmp(bytes.data(), kJournalMagic, sizeof kJournalMagic) != 0) {
    discard_corrupt();
    return std::nullopt;
  }
  JournalDecode decode = decode_journal_records(
      std::string_view(bytes).substr(sizeof kJournalMagic));
  if (decode.records.empty() ||
      decode.records.front().type != JournalRecordType::kDeclare) {
    discard_corrupt();
    return std::nullopt;
  }
  if (decode.torn) {
    // Drop the torn tail from the file as well, so the resumed writer
    // appends immediately after the last valid record.
    torn_tails_.fetch_add(1, std::memory_order_relaxed);
    ::truncate(path.c_str(), static_cast<off_t>(sizeof kJournalMagic +
                                                decode.consumed));
  }

  RecoveredSession out;
  out.id = id;
  out.declare_line = decode.records.front().line;
  out.record_count = decode.records.size();
  out.client_records = 0;
  for (const JournalRecord& r : decode.records) {
    if (r.type != JournalRecordType::kCalAnchor) ++out.client_records;
  }
  out.last_tick = decode.records.back().tick;
  out.last_seq = decode.records.back().seq;
  out.torn = decode.torn;
  decode.records.erase(decode.records.begin());
  out.records = std::move(decode.records);
  mark.keep = true;
  claims_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

std::unique_ptr<JournalWriter> JournalStore::open_writer(
    const std::string& id, std::uint64_t next_lsn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    attached_.insert(id);
  }
  std::unique_ptr<JournalWriter> writer(
      new JournalWriter(this, path_for(id), next_lsn, cfg_.fsync_every,
                        /*truncate=*/next_lsn == 0));
  if (!writer->ok()) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    attached_.erase(id);
    return nullptr;
  }
  return writer;
}

void JournalStore::remove(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  ::unlink(path_for(id).c_str());
  attached_.erase(id);
  removed_.fetch_add(1, std::memory_order_relaxed);
}

void JournalStore::detach(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  attached_.erase(id);
}

JournalStore::Stats JournalStore::stats() const {
  Stats out;
  out.scanned_sessions = scanned_sessions_;
  out.scanned_records = scanned_records_.load(std::memory_order_relaxed);
  out.torn_tails = torn_tails_.load(std::memory_order_relaxed);
  out.corrupt_files = corrupt_files_.load(std::memory_order_relaxed);
  out.appends = appends_.load(std::memory_order_relaxed);
  out.syncs = syncs_.load(std::memory_order_relaxed);
  out.failures = failures_.load(std::memory_order_relaxed);
  out.claims = claims_.load(std::memory_order_relaxed);
  out.removed = removed_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace lion::serve
