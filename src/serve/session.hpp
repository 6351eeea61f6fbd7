// Per-stream session state of the serving layer.
//
// A StreamSession is the unit of demultiplexing: one (antenna, tag) read
// stream with its own CSV layout state, sample buffer, and solver
// configuration. Calibrate-mode sessions accumulate the raw stream and
// solve on `!flush` through the exact one-shot path
// (`calibrate_antenna_robust` with the library-default config), which is
// what makes the stream-vs-batch conformance contract provable. Track-mode
// sessions window the stream like core::ConveyorTracker and schedule each
// completed window as an independent solve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/calibration.hpp"
#include "core/incremental.hpp"
#include "core/tracker.hpp"
#include "io/csv.hpp"
#include "obs/obs.hpp"
#include "serve/journal.hpp"
#include "serve/wire.hpp"
#include "sim/reader.hpp"

namespace lion::serve {

/// One recorded request span, retained per session for `!trace <id>`.
/// Timestamps are trace_now_ns() values (monotonic, process-relative), so
/// spans correlate with the Chrome-trace ring but never enter a sequenced
/// response — the dump is out-of-band, outside the determinism contract.
struct SpanRecord {
  std::uint64_t trace_id = 0;  ///< ingest-assigned request trace id
  obs::Stage stage = obs::Stage::kIngest;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Spans retained per session (ring; oldest overwritten).
inline constexpr std::size_t kSessionSpanCap = 64;

/// Everything a session needs to turn buffered samples into responses.
struct SessionConfig {
  SessionMode mode = SessionMode::kCalibrate;
  /// Calibrate: the believed physical center. Track: the calibrated
  /// antenna phase center.
  Vec3 center{};
  /// Calibrate-mode solver settings. Defaults to the library-default
  /// RobustCalibrationConfig — the batch path's exact configuration, which
  /// the differential conformance suite depends on.
  core::RobustCalibrationConfig calibration{};
  /// Track-mode settings (mirrors core::TrackerConfig).
  Vec3 belt_direction{1.0, 0.0, 0.0};
  double belt_speed = 0.1;
  std::size_t window = 600;
  std::size_t hop = 300;
  core::LocalizerConfig localizer{};
};

/// Build a validated SessionConfig from a parsed `!session` line. Returns
/// false (and an error detail) instead of throwing — declaration errors
/// become lion.error.v1 responses.
bool make_session_config(const ParsedLine& line, SessionConfig& out,
                         std::string& error);

/// Incremental-solver configuration implied by a track-mode SessionConfig:
/// geometry from the session, pairing/wavelength/hint from its localizer,
/// consensus knobs from localizer.ransac. Gate and rebuild policy stay at
/// the IncrementalTrackConfig defaults.
core::IncrementalTrackConfig incremental_config(const SessionConfig& config);

/// Order-dependent FNV-1a digest of every sample field's bit pattern, so
/// -0.0 vs 0.0 and NaN payloads count as changes: the memo never equates
/// buffers the solver could tell apart. The pointer form digests the first
/// `count` samples of a buffer (a journaled anchor's prefix) in place.
std::uint64_t cal_buffer_digest(const sim::PhaseSample* samples,
                                std::size_t count);
std::uint64_t cal_buffer_digest(const std::vector<sim::PhaseSample>& buffer);

/// A calibrate session's flush memo. The solve pipeline is deterministic,
/// so while the buffer is bitwise the one the report was solved over,
/// that report IS the answer to a `!flush`, whatever its status. The memo
/// keeps the report's rendered io::report_json bytes, so a memo answer
/// re-renders nothing. It advances only when a full solve completes, and
/// each install is journaled as a kCalAnchor carrying those bytes
/// (cal_anchor_line), which is what journal replay restores.
struct CalMemo {
  bool valid = false;
  std::size_t samples = 0;   ///< buffer size the report was solved over
  std::uint64_t digest = 0;  ///< cal_buffer_digest of that buffer
  std::string report_json;   ///< io::report_json bytes of the report

  /// Adopt the rendered report of a full solve over a buffer of `samples`
  /// samples whose cal_buffer_digest is `digest`.
  void install(std::size_t samples, std::uint64_t digest,
               std::string report_json);
  /// True when `buffer` is bitwise the solved one: same size, same digest.
  /// The digest also catches a carved or mutated buffer of equal size.
  bool matches(const std::vector<sim::PhaseSample>& buffer) const;
};

/// kCalAnchor payload of an installed memo: `<samples> <digest> <report
/// json>`, the sample count in decimal and the digest as 16 lowercase hex
/// digits.
std::string cal_anchor_line(const CalMemo& memo);

/// A decoded kCalAnchor payload.
struct CalAnchor {
  std::size_t samples = 0;
  /// False for a bare `<samples>` anchor (older daemons journaled only
  /// the count) or any payload whose tail is not ` <16 hex> <json>`:
  /// restore must then re-solve the prefix to rebuild the memo.
  bool has_report = false;
  std::uint64_t digest = 0;
  std::string_view report_json;  ///< views the parsed line
};

/// Parse a kCalAnchor payload; nullopt when it has no leading count.
std::optional<CalAnchor> parse_cal_anchor(std::string_view line);

/// One demultiplexed stream.
struct StreamSession {
  std::string id;
  SessionConfig config;
  io::CsvStreamParser csv;  ///< per-session CSV layout/header state

  /// Calibrate mode: the cumulative raw stream (flush solves all of it).
  std::vector<sim::PhaseSample> buffer;
  /// Track mode: the sliding window (ConveyorTracker semantics).
  std::deque<sim::PhaseSample> window_buffer;

  std::uint64_t last_active = 0;  ///< virtual-clock tick of last traffic
  std::size_t in_flight = 0;      ///< solve requests scheduled, not done
  /// Origin token of the connection whose declare created (or restored)
  /// this session; its teardown (release_origin) drops the session.
  std::uint64_t owner = 0;
  std::uint64_t samples_accepted = 0;
  std::uint64_t windows_scheduled = 0;
  std::uint64_t flushes = 0;

  /// Track mode: the per-session incremental solver behind `!tick <id>`.
  /// Mirrors window_buffer exactly (push on accept, retire on carve,
  /// clear on flush) — including during journal replay, so a restored
  /// session's tick stream matches an uninterrupted run byte for byte.
  /// Null for calibrate sessions and when construction failed (the pose
  /// tick then always takes the full-pipeline fallback).
  std::unique_ptr<core::IncrementalTrackSolver> incremental;
  std::uint64_t ticks_emitted = 0;  ///< pose ticks answered (both paths)

  /// Calibrate mode: the last completed full solve, answered again while
  /// the buffer is unchanged (see CalMemo).
  CalMemo memo;

  /// Durability (journal-enabled services only). `journal` appends one
  /// record per applied mutation; a write failure latches
  /// `journal_degraded` and the session keeps serving non-durably.
  std::unique_ptr<JournalWriter> journal;
  bool journal_degraded = false;
  std::uint64_t restored_records = 0;  ///< records replayed at restore

  /// Telemetry (observation only, never feeds a response payload).
  /// RED counters: requests scheduled for this session, error responses
  /// attributed to it, and the distribution of its solve durations.
  std::uint64_t requests = 0;
  std::uint64_t request_errors = 0;
  obs::HistogramData solve_seconds{obs::duration_bounds()};
  /// Recent request spans for `!trace <id>` (bounded ring).
  std::vector<SpanRecord> spans;
  std::size_t span_head = 0;  ///< oldest entry once the ring is full
};

/// `!trace <id>` answer (lion.trace.v1, out-of-band): the session's
/// retained spans, oldest first.
std::string trace_response(const std::string& session,
                           const std::vector<SpanRecord>& spans);

/// Solve one track window exactly as the streaming ConveyorTracker would:
/// a fresh tracker over just these samples (hop/window-invariance — pinned
/// by the metamorphic suite — makes this equal to the in-place streaming
/// solve). Never throws; an unsolvable window yields valid == false.
core::TrackFix solve_track_window(
    const std::vector<sim::PhaseSample>& window_samples,
    const SessionConfig& config);

// ---------------------------------------------------------------------------
// Response serialization (deterministic: fixed key order, %.17g numbers).
// ---------------------------------------------------------------------------

/// `!flush` answer for a calibrate session (lion.report.v1) around the
/// report's io::report_json bytes. `source` is "memo" when the buffer
/// still matched the last full solve's (CalMemo) and "fallback" when the
/// full batch pipeline ran; both serialize through this one function, so
/// the bytes differ only in the tag.
std::string report_response(const std::string& session, std::uint64_t seq,
                            std::string_view report_json,
                            const char* source);

std::string fix_response(const std::string& session, std::uint64_t seq,
                         std::uint64_t window_index,
                         const core::TrackFix& fix);

/// `!tick <id>` answer (lion.tick.v1). `source` is "incremental" when the
/// maintained normal equations produced the pose and "fallback" when the
/// residual gate routed the request through the full window solve; both
/// paths serialize through this one function so the bytes differ only in
/// the values.
std::string tick_response(const std::string& session, std::uint64_t seq,
                          std::uint64_t tick_index, const core::TrackFix& fix,
                          std::size_t rows, const char* source);

std::string error_response(const std::string& session, std::uint64_t seq,
                           const std::string& code,
                           const std::string& detail);

std::string event_response(std::uint64_t seq, const std::string& event,
                           const std::string& session, std::uint64_t value);

/// Restore acknowledgement, emitted out-of-band (no seq) when a declare
/// adopts a journaled session. `records` counts journal records including
/// the declare — the client's resume cursor.
std::string restore_response(const std::string& session,
                             std::uint64_t records, std::uint64_t samples,
                             std::uint64_t flushes, bool torn);

}  // namespace lion::serve
