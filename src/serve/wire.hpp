// Wire format of the streaming calibration service.
//
// The service speaks a newline-delimited text protocol so any reader
// middleware (or `nc` + a CSV file) can drive it. One line is one record:
//
//   # comment / blank            ignored
//   !session <id> key=value...   open a session and make it *current*
//   !flush <id>                  solve the session's buffer now -> report
//   !close <id>                  flush (calibrate mode) and evict
//   !tick <n>                    advance the virtual clock by n ticks
//   !tick <id>                   emit an incremental pose for track
//                                session <id> now (no window wait); the
//                                argument is a clock count when its first
//                                char is a digit / sign / '.', a session
//                                id otherwise — so ids starting with one
//                                of those characters cannot be pose-ticked
//   !stats                       emit a lion.stats.v1 snapshot line
//   !healthz                     emit a lion.health.v1 snapshot line
//                                (out-of-band: carries no seq — see
//                                service.hpp "Out-of-band responses")
//   !trace <id>                  emit a lion.trace.v1 dump of session
//                                <id>'s recent request spans (out-of-band,
//                                like !healthz)
//   @<id> x,y,z,phase[,...]      CSV read record routed to session <id>
//   {"session":"id","x":..,...}  JSON read record (flat object)
//   x,y,z,phase[,rssi[,ch[,t]]]  CSV read record for the *current* session
//
// Bare CSV lines (including a column-naming header row) go to the most
// recently declared session, so streaming a canonical scan CSV after one
// `!session` line reproduces the batch pipeline byte for byte — the
// stream-vs-batch conformance suite feeds the golden fixtures exactly
// this way.
//
// Everything here is non-throwing: network bytes must never unwind a
// server thread. Malformed input maps to ParsedLine::kError with a
// detail message the service turns into a lion.error.v1 response.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/vec.hpp"
#include "sim/reader.hpp"

namespace lion::serve {

using linalg::Vec3;

/// Hard cap on one wire line; longer lines are dropped (with an error
/// status) and the stream resynchronizes at the next newline.
inline constexpr std::size_t kDefaultMaxLineBytes = 1 << 16;

// ---------------------------------------------------------------------------
// Chunk reassembly
// ---------------------------------------------------------------------------

/// Reassembles arbitrary byte chunks into complete lines. The transport
/// (socket reads, stdin buffers) chooses chunk boundaries; the decoder
/// guarantees the line stream is independent of them.
class ChunkDecoder {
 public:
  explicit ChunkDecoder(std::size_t max_line_bytes = kDefaultMaxLineBytes)
      : max_line_(max_line_bytes) {}

  struct Lines {
    std::vector<std::string> lines;     ///< complete lines, newline stripped
    std::size_t oversized_dropped = 0;  ///< lines dropped for length
  };

  /// Feed a chunk; returns every line completed by it. A line longer than
  /// the cap is discarded up to its terminating newline and counted.
  Lines feed(std::string_view bytes);

  /// Flush the trailing unterminated line, if any (end of stream).
  Lines finish();

  /// Bytes buffered waiting for a newline.
  std::size_t pending() const { return partial_.size(); }

 private:
  std::size_t max_line_;
  std::string partial_;
  bool discarding_ = false;  ///< inside an oversized line, seeking '\n'
};

// ---------------------------------------------------------------------------
// Line grammar
// ---------------------------------------------------------------------------

/// Session modes (see SessionConfig in session.hpp for the knobs).
enum class SessionMode { kCalibrate, kTrack };

/// One decoded wire line.
struct ParsedLine {
  enum Kind {
    kComment,   ///< blank / '#' — ignored
    kSession,   ///< !session
    kFlush,     ///< !flush
    kClose,     ///< !close
    kTick,      ///< !tick <n> (clock advance)
    kPoseTick,  ///< !tick <id> (incremental pose request)
    kStats,     ///< !stats
    kHealthz,   ///< !healthz
    kTrace,     ///< !trace <id> (span dump)
    kData,      ///< a read record (CSV payload or decoded JSON sample)
    kError,     ///< malformed; `error` has the detail
  };

  Kind kind = kComment;
  std::string session;  ///< target session id ("" = current, for kData)
  std::string error;

  // kSession payload:
  SessionMode mode = SessionMode::kCalibrate;
  std::optional<Vec3> center;
  std::optional<Vec3> direction;
  std::optional<Vec3> hint;
  std::optional<double> speed;
  std::optional<double> wavelength;
  std::optional<std::size_t> window;
  std::optional<std::size_t> hop;
  std::optional<std::size_t> dim;
  /// Calibrate only: preprocess moving-average width (1 disables; unset
  /// keeps the library default). Journaled declares carry it, so a
  /// restore re-solves with the width the session was declared with.
  std::optional<std::size_t> smoothing;

  // kTick payload:
  std::uint64_t ticks = 0;

  // kData payload: either a raw CSV row (parsed later by the session's
  // stateful CsvStreamParser, which owns header/layout state) or an
  // already-decoded JSON sample.
  std::string csv_row;
  std::optional<sim::PhaseSample> json_sample;
};

/// Decode one line. Never throws; malformed input yields kError.
ParsedLine parse_line(std::string_view line);

/// Valid session ids: 1..64 chars from [A-Za-z0-9_.:-]. Keeps ids safe to
/// echo into JSON responses and log lines without quoting surprises.
bool valid_session_id(std::string_view id);

}  // namespace lion::serve
