// Streaming calibration service: the long-running ingestion path.
//
// A StreamService turns the wire protocol (serve/wire.hpp) into solved
// calibration reports and track fixes, scheduling every solve on the
// engine ThreadPool while the ingest thread stays responsive:
//
//   bytes -> ChunkDecoder -> parse_line -> StreamSession demux
//         -> (flush / completed window) -> SolveRequest on the pool
//         -> ordered emitter -> sink (socket, stdout, test vector)
//
// Determinism contract
// --------------------
// For a single ingest thread, the emitted byte stream is a pure function
// of the input byte stream and the ServiceConfig — independent of chunk
// boundaries, pool thread count, and scheduling interleavings:
//   1. chunk boundaries vanish in ChunkDecoder (line reassembly);
//   2. every response reserves a global sequence number on the ingest
//      thread, in ingest order;
//   3. workers emit through a reorder buffer that releases responses in
//      strict sequence order;
//   4. solves run the same code as the one-shot paths (calibrate ==
//      calibrate_antenna_robust with the session's config; track ==
//      ConveyorTracker window solve), so the payloads are byte-identical
//      to the batch pipeline.
// Wall-clock timeouts (request_timeout_s > 0) are the one opt-in
// exception: a timed-out request degrades to a kSolverFailure report.
//
// `!tick <id>` (pose ticks) stays inside the contract: the incremental
// solver is a pure function of the session's accepted-sample stream (see
// core/incremental.hpp), its answer is sequenced on the ingest thread,
// and the residual-gate fallback runs the same window solve as a track
// fix — so the tick stream is as chunk/thread-independent as the rest.
//
// Durability (opt-in: ServiceConfig::journal)
// -------------------------------------------
// With a JournalStore attached, every applied session mutation (declare,
// CSV row, JSON sample, flush boundary) is appended to the session's
// journal after it takes effect, stamped with the service's virtual-clock
// and next-seq snapshots. A `!session` declare whose id has a journal on
// disk *restores* instead of creating: the service waits for in-flight
// solves to drain, replays the journal through the normal demux/parser
// code with emission and solving suppressed, fast-forwards the clock and
// sequence counters to the journal's snapshots, and answers with an
// out-of-band lion.restore.v1 ack carrying the record count — the
// client's resume cursor. Replayed-then-continued streams therefore emit
// the same sequenced bytes an uninterrupted stream would have: every
// seq-consuming response on the clean-stream path is covered by a
// journaled record's snapshot. Unjournaled seq consumers (mid-stream
// `!stats`, malformed-line errors) in the window between the last record
// and a crash are the documented exception — after recovery those seqs
// are reused. The re-declare must match the journaled declare
// (normalized form) or it is rejected with code="journal_conflict".
//
// Out-of-band responses
// ---------------------
// lion.restore.v1 and lion.health.v1 lines carry no sequence number and
// bypass the reorder buffer (they are still serialized with it over the
// sink). They are ops-plane diagnostics, excluded from the byte-
// determinism contract; everything sequenced stays a pure function of
// the input stream.
//
// Overload behaviour
// ------------------
// Each session may have at most `max_inflight_per_session` solves queued
// or running. At the cap the service either blocks the ingest thread
// (default: lossless backpressure, the transport's TCP window pushes back
// on the producer) or, with reject_when_busy, answers lion.error.v1
// code="busy" and drops the request. A `!close` whose terminal flush is
// busy-rejected keeps the session (and its buffer) alive so the client
// can retry the close. Sessions idle for more than
// `idle_ttl_ticks` virtual-clock ticks (one tick per ingested line, plus
// explicit `!tick n`) are evicted deterministically — ordered by
// (last-active tick, id) — with a lion.event.v1 notice. The virtual clock
// keeps eviction reproducible and test-controllable; no wall clock is
// consulted.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <optional>
#include <string>
#include <string_view>

#include "engine/thread_pool.hpp"
#include "obs/events.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"

namespace lion::serve {

struct ServiceConfig {
  /// Solver pool threads; 0 = hardware_concurrency (at least 1).
  std::size_t threads = 0;
  /// Per-session cap on scheduled-but-unfinished solves.
  std::size_t max_inflight_per_session = 4;
  /// Hard cap on live sessions; declares beyond it are rejected.
  std::size_t max_sessions = 1024;
  /// Per-session cap on buffered samples (calibrate mode); rows beyond it
  /// are rejected with code="buffer_full". Track mode is bounded by the
  /// window size already.
  std::size_t max_session_samples = 1 << 20;
  /// Evict sessions idle for more than this many virtual-clock ticks;
  /// 0 disables eviction.
  std::uint64_t idle_ttl_ticks = 0;
  /// Solve requests older than this (enqueue to start, seconds) degrade to
  /// a kSolverFailure report instead of running; 0 disables deadlines.
  double request_timeout_s = 0.0;
  /// Wire line length cap (oversized lines are dropped with an error).
  std::size_t max_line_bytes = kDefaultMaxLineBytes;
  /// true: answer code="busy" at the in-flight cap instead of blocking.
  bool reject_when_busy = false;
  /// When set, data arriving before any `!session` declare auto-creates a
  /// calibrate session named "default" with this physical center — lets
  /// `lion serve` ingest a bare CSV pipe with zero protocol ceremony.
  std::optional<Vec3> implicit_center;
  /// Monotonic seconds, injectable so timeout tests can run on a virtual
  /// clock; nullptr = std::chrono::steady_clock.
  std::function<double()> clock;
  /// When set, sessions are durable: mutations are journaled here and a
  /// declare whose id has a journal on disk restores it. The store is
  /// shared across services (the socket server owns one per daemon) and
  /// must outlive this service. nullptr = no durability.
  JournalStore* journal = nullptr;
  /// Ops-plane event sink (slow requests, gate fallbacks, journal
  /// degradation, evictions, drain). Shared across services, rate-limited
  /// internally, and observation-only — may be nullptr. Must outlive this
  /// service.
  obs::EventLog* events = nullptr;
  /// Requests whose queue-wait + solve exceeds this emit a "slow_request"
  /// event; 0 disables the check.
  double slow_request_s = 0.0;
  /// Shard identity when this service is one ingest shard of a sharded
  /// socket server. With shard_count > 1, `!stats` and `!healthz`
  /// responses carry `"shard"`/`"shards"` fields (so clients can count
  /// per-shard barriers); with the default single-shard configuration the
  /// response bytes are exactly the pre-shard wire format.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Shard ingest-queue gauges, injected by the socket server so `!healthz`
  /// can report queue depth/high-water/stall counts without the service
  /// knowing about the queue (/metrics reads ShardGauges). May be null.
  std::function<std::uint64_t()> queue_depth;
  std::function<std::uint64_t()> queue_hwm;
  std::function<std::uint64_t()> queue_stalls;
};

/// Every serve counter, declared once (an enum plus a constexpr spec
/// table, like obs::Stage): ServeStats keeps one slot per entry, and
/// `!stats`, `!healthz` and `/metrics` each render kServeCounters with
/// one loop.
enum class ServeCounter : std::size_t {
  kLines,               ///< wire lines processed
  kSamples,             ///< read records accepted
  kParseErrors,         ///< subset of errors: bad input lines
  kReports,             ///< lion.report.v1 responses
  kFixes,               ///< lion.fix.v1 responses
  kErrors,              ///< lion.error.v1 responses
  kEvictions,           ///< idle sessions evicted
  kBackpressureWaits,   ///< ingest blocked at the in-flight cap
  kRejectedBusy,        ///< requests refused at the cap (reject mode)
  kTimeouts,            ///< requests past their deadline
  kOversized,           ///< wire lines dropped for length
  kPoseTicks,           ///< lion.tick.v1 responses (both paths)
  kTickFallbacks,       ///< pose ticks routed to the full window solve
  kCalFlushes,          ///< calibrate flushes = cal_memo + cal_fallbacks
  kCalMemo,             ///< flushes answered from the last full solve
  kCalFallbacks,        ///< flushes that scheduled the full solve
  kRestores,            ///< sessions adopted from journals
  kJournalErrors,       ///< sessions degraded by journal I/O failure
  kRequests,            ///< solves scheduled on the pool
  kClockAdvances,       ///< virtual-clock ticks added by `!tick N`
  kReplaySolves,        ///< restores that re-solved the calibrate memo
  kReplayMemoRestores,  ///< restores that installed the journaled memo
  kReplayMemoFailures,  ///< restores whose memo rebuild threw
  kCount
};

inline constexpr std::size_t kServeCounterCount =
    static_cast<std::size_t>(ServeCounter::kCount);

/// `name` is the wire field on `!stats`/`!healthz` and the /metrics
/// family lion_serve_<name>_total. `stats_v1` marks the frozen
/// lion.stats.v1 fields, which `!stats` prints in table order.
struct ServeCounterSpec {
  ServeCounter id;
  const char* name;
  bool stats_v1;
};

inline constexpr std::array<ServeCounterSpec, kServeCounterCount>
    kServeCounters = {{
        {ServeCounter::kLines, "lines", true},
        {ServeCounter::kSamples, "samples", true},
        {ServeCounter::kParseErrors, "parse_errors", true},
        {ServeCounter::kReports, "reports", true},
        {ServeCounter::kFixes, "fixes", true},
        {ServeCounter::kErrors, "errors", true},
        {ServeCounter::kEvictions, "evictions", true},
        {ServeCounter::kBackpressureWaits, "backpressure_waits", true},
        {ServeCounter::kRejectedBusy, "rejected_busy", true},
        {ServeCounter::kTimeouts, "timeouts", true},
        {ServeCounter::kOversized, "oversized", true},
        {ServeCounter::kPoseTicks, "pose_ticks", true},
        {ServeCounter::kTickFallbacks, "tick_fallbacks", true},
        {ServeCounter::kCalFlushes, "cal_flushes", true},
        {ServeCounter::kCalMemo, "cal_memo", true},
        {ServeCounter::kCalFallbacks, "cal_fallbacks", true},
        {ServeCounter::kRestores, "restores", false},
        {ServeCounter::kJournalErrors, "journal_errors", false},
        {ServeCounter::kRequests, "requests", false},
        {ServeCounter::kClockAdvances, "clock_advances", false},
        {ServeCounter::kReplaySolves, "replay_solves", false},
        {ServeCounter::kReplayMemoRestores, "replay_memo_restores", false},
        {ServeCounter::kReplayMemoFailures, "replay_memo_failures", false},
    }};

static_assert(
    [] {
      for (std::size_t i = 0; i < kServeCounterCount; ++i) {
        if (static_cast<std::size_t>(kServeCounters[i].id) != i) return false;
      }
      return true;
    }(),
    "kServeCounters must list ServeCounter in enum order");

/// Serve counter snapshot: one slot per kServeCounters entry, plus the
/// two gauges.
struct ServeStats {
  std::array<std::uint64_t, kServeCounterCount> counters{};
  std::uint64_t ticks = 0;   ///< virtual clock now
  std::size_t sessions = 0;  ///< live sessions

  std::uint64_t& operator[](ServeCounter c) {
    return counters[static_cast<std::size_t>(c)];
  }
  std::uint64_t operator[](ServeCounter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
};

/// The share of pose ticks the residual gate routed to the full window
/// solve, and of calibrate flushes that found the buffer changed (0
/// before any). `!healthz` and `/metrics` both print these.
struct FallbackRatios {
  double tick = 0.0;
  double cal = 0.0;
};
FallbackRatios fallback_ratios(const ServeStats& stats);

/// Per-session RED snapshot for the telemetry plane (/metrics, lion_top).
struct SessionTelemetry {
  std::string id;
  bool track = false;
  std::uint64_t in_flight = 0;
  std::uint64_t samples = 0;
  std::uint64_t flushes = 0;
  std::uint64_t requests = 0;        ///< solves scheduled (rate)
  std::uint64_t errors = 0;          ///< error responses attributed here
  std::uint64_t pose_ticks = 0;
  obs::HistogramData solve_seconds;  ///< duration distribution
};

/// Everything the scrape endpoint needs from one service, in one lock
/// acquisition: aggregate stats plus the per-session RED series.
struct ServiceTelemetry {
  ServeStats stats;
  double uptime_s = 0.0;
  std::uint64_t reorder_hwm = 0;     ///< reorder-buffer depth high water
  std::uint64_t journal_lag = 0;     ///< appended-not-fsynced records
  std::uint64_t journal_degraded = 0;
  std::vector<SessionTelemetry> sessions;  ///< id-sorted (map order)
};

/// Per-shard ingest-queue gauges, readable without touching any service
/// lock. A shard thread wedged in a blocking send to a slow consumer
/// holds its service's mutex — which is exactly when the queue gauges
/// matter, so the scrape/telemetry path reads these atomic mirrors
/// instead of the full ServiceTelemetry snapshot.
struct ShardGauges {
  std::size_t shard = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_hwm = 0;
  std::uint64_t queue_stalls = 0;
};

class StreamService {
 public:
  /// Receives each response line (no trailing newline), in sequence
  /// order, serialized — never concurrently. Must not call back into the
  /// service.
  using Sink = std::function<void(std::string_view line)>;
  /// Origin-routing sink: `origin` is the ingest_line() origin token of
  /// the wire line that triggered the response (eviction notices use the
  /// evicted session's declaring origin). The sharded socket server maps
  /// origins back to connections; the plain Sink form discards them.
  using RoutedSink =
      std::function<void(std::string_view line, std::uint64_t origin)>;

  StreamService(ServiceConfig config, Sink sink);
  /// Same, scheduling on a caller-owned pool (shared across services —
  /// the socket server gives every ingest shard its own session namespace
  /// on one pool). The pool must outlive this service.
  StreamService(ServiceConfig config, Sink sink, engine::ThreadPool* pool);
  /// Origin-routing form: one service multiplexing many connections (an
  /// ingest shard). Response routing and per-connection "current session"
  /// state key off the origin tokens passed to ingest_line().
  StreamService(ServiceConfig config, RoutedSink sink,
                engine::ThreadPool* pool);
  ~StreamService();  ///< drains in-flight solves

  StreamService(const StreamService&) = delete;
  StreamService& operator=(const StreamService&) = delete;

  /// Feed raw transport bytes (chunked arbitrarily). Not thread-safe
  /// against itself — one transport thread per service.
  void ingest_bytes(std::string_view bytes);

  /// Feed one complete line (newline already stripped). Thread-safe: the
  /// concurrency suite drives N producer threads through this.
  void ingest_line(std::string_view line);

  /// Same, tagged with the connection origin the line came from. Sessions
  /// declared by this line are owned by `origin`; responses it triggers
  /// route back to it (RoutedSink). Origin 0 is the anonymous/stdio
  /// origin the untagged overload uses.
  void ingest_line(std::string_view line, std::uint64_t origin);

  /// Connection teardown without `!close`: wait for full quiescence, then
  /// drop every session owned by `origin` — journals are synced and
  /// detached (files kept, so a later declare restores), buffers are
  /// discarded, nothing is emitted. Mirrors what destroying the old
  /// per-connection service did, scoped to one origin. After this returns
  /// no response can route to `origin` again (quiescence ⇒ the reorder
  /// buffer has released every sequenced line).
  void release_origin(std::uint64_t origin);

  /// Emit the oversized-line error responses the transport's own line
  /// splitter detected (the sharded front-end splits lines before the
  /// service sees bytes). Routed to `origin`.
  void report_oversized(std::size_t count, std::uint64_t origin);

  /// End of stream: flush the chunk decoder's trailing partial line and
  /// block until every scheduled solve has emitted its response.
  void finish();

  /// Block until all scheduled solves have emitted (without ending the
  /// stream).
  void drain();

  ServeStats stats() const;

  /// Snapshot for the scrape endpoint: aggregate stats + per-session RED
  /// series, one mu_ acquisition. Safe to call concurrently with ingest.
  ServiceTelemetry telemetry() const;

 private:
  struct SolveRequest {
    std::uint64_t seq = 0;
    std::string session;
    SessionMode mode = SessionMode::kCalibrate;
    SessionConfig config;
    std::vector<sim::PhaseSample> samples;
    /// Track solves: the window index. Pose-tick fallbacks: the tick index
    /// (the response is a lion.tick.v1 line, not a lion.fix.v1 line).
    std::uint64_t window_index = 0;
    bool pose_tick = false;
    /// Calibrate flush the memo could not answer: the completed full
    /// solve installs the session's new memo (and journals kCalAnchor) in
    /// run_request's accounting block.
    bool cal_flush = false;
    double enqueue_time = 0.0;
    std::uint64_t trace_id = 0;    ///< the ingest line that scheduled this
    std::uint64_t enqueue_ns = 0;  ///< trace clock at submit time
    std::uint64_t origin = 0;      ///< connection the response routes to
  };

  // The handle_* / accept_sample / reserve_request family runs on the
  // ingest thread with `lock` holding mu_; paths that can block
  // (backpressure) release and reacquire it, so session references never
  // survive a call.
  void handle_line(const ParsedLine& line, std::uint64_t origin);
  void handle_session_declare(std::unique_lock<std::mutex>& lock,
                              const ParsedLine& line);
  void handle_data(std::unique_lock<std::mutex>& lock, const ParsedLine& line);
  /// Returns true iff a solve was scheduled (false: unknown session,
  /// busy-rejected, or the session vanished while blocked).
  bool handle_flush(std::unique_lock<std::mutex>& lock, const std::string& id);
  /// `!tick <id>`: answer from the session's incremental solver when its
  /// residual gate passes, else schedule a full-pipeline window solve on
  /// the pool (same bytes either way: one lion.tick.v1 line per tick).
  void handle_pose_tick(std::unique_lock<std::mutex>& lock,
                        const std::string& id);
  void handle_close(std::unique_lock<std::mutex>& lock, const std::string& id);
  void emit_stats_response();
  void emit_trace_response(const std::string& id);
  /// Returns the window solve the sample completed, reserved but not yet
  /// submitted (the caller journals the sample first), or null.
  std::shared_ptr<SolveRequest> accept_sample(
      std::unique_lock<std::mutex>& lock, const std::string& id,
      const sim::PhaseSample& sample);
  void report_oversized(std::size_t count);  ///< origin-0 decoder path
  /// Reserve-or-reject at the in-flight cap; returns false when the
  /// request was rejected (busy) or the session vanished while blocked.
  bool wait_for_slot(std::unique_lock<std::mutex>& lock,
                     const std::string& id);
  /// Scheduling, step one: reserve the response's seq and do the
  /// accounting. The caller then journals the record that asked for the
  /// solve, so the record carries the clock/seq stamp it always carried,
  /// and only then hands the request to submit_request(): no worker can
  /// answer before the record exists. Callers hold mu_.
  std::shared_ptr<SolveRequest> reserve_request(SolveRequest request);
  /// Step two: stamp the enqueue time and hand the request to the pool.
  void submit_request(std::shared_ptr<SolveRequest> request);
  void run_request(SolveRequest& request);
  void evict_idle(std::unique_lock<std::mutex>& lock);
  std::uint64_t reserve_seq();  ///< callers hold mu_
  void emit(std::uint64_t seq, std::string line, std::uint64_t origin);
  void emit_error(const std::string& session, const std::string& code,
                  const std::string& detail, bool parse_error);
  /// The "current session" of one origin ("" when none); callers hold mu_.
  const std::string& current_of(std::uint64_t origin) const;
  /// Drop every origin's current-session pointer equal to `id` (the
  /// session was closed or evicted); callers hold mu_.
  void clear_current(const std::string& id);
  /// Sequence-free ops-plane line: serialized over the sink but outside
  /// the reorder buffer (restore acks, healthz snapshots).
  void emit_oob(const std::string& line);
  void emit_health_response();
  double now() const;
  double uptime_s() const;

  // --- telemetry (observation only) --------------------------------------
  /// Record one request span three ways: the stage's registry histogram
  /// (metrics enabled), the calling thread's Chrome-trace ring (tracing
  /// enabled), and the session's bounded `!trace` ring (always — the dump
  /// must work on an otherwise-uninstrumented daemon). Callers hold mu_.
  void record_span(StreamSession& session, std::uint64_t trace_id,
                   obs::Stage stage, std::uint64_t start_ns,
                   std::uint64_t end_ns);
  /// Trace id of the wire line currently being handled. Exact for a
  /// single ingest thread (the determinism-contract mode); with multiple
  /// producers a line handled while another blocks on backpressure may
  /// be attributed to the newer line — acceptable for diagnostics.
  std::uint64_t current_trace_id() const {
    return next_trace_id_ == 0 ? 0 : next_trace_id_ - 1;
  }
  /// Forward to cfg_.events when attached; no-op (and never throws)
  /// otherwise.
  void event(obs::Severity severity, const char* type,
             const std::string& session, std::string detail,
             std::uint64_t value = 0);

  // --- durability (cfg_.journal != nullptr) ------------------------------
  /// Attach a journal to a declare: restore-and-replay when the id has a
  /// journal on disk, open a fresh one otherwise. Returns false when the
  /// declare must be rejected (conflict / attached elsewhere); `error` and
  /// `code` carry the response. On restore, fills `restored`.
  bool attach_journal(std::unique_lock<std::mutex>& lock,
                      StreamSession& session, const ParsedLine& line,
                      std::string& code, std::string& error,
                      std::optional<RecoveredSession>& restored);
  /// Replay recovered records into `session` with solving and emission
  /// suppressed (buffers, parser layout, and window carving only).
  /// Returns true when the calibrate memo had to be re-solved (a
  /// bare-count or mismatched anchor): the caller journals it anew.
  bool replay_records(StreamSession& session, const RecoveredSession& rec);
  /// Buffer/window bookkeeping shared by live accepts and replay. In
  /// track mode carves completed windows; `carve_only` suppresses the
  /// solve (replay path). Returns false when the sample was dropped.
  void replay_accept(StreamSession& session, const sim::PhaseSample& sample);
  /// Mirror a window mutation into the session's incremental solver,
  /// never letting an exception reach the ingest thread (a throwing
  /// solver is dropped; the session degrades to fallback-only ticks).
  void push_incremental(StreamSession& session,
                        const sim::PhaseSample& sample);
  void retire_incremental(StreamSession& session, std::size_t count);
  /// Append one record to the session's journal, degrading the session
  /// (once, with an error response) on I/O failure. Callers hold mu_.
  void journal_append(StreamSession& session, JournalRecordType type,
                      std::string_view line);
  /// Journal a flush boundary and fsync it: a flush is the client's
  /// durability boundary, so its record must survive an OS crash, not
  /// just a process kill, before the answer can leave.
  void journal_flush(StreamSession& session, JournalRecordType type);
  /// Seal (sync) and detach every live session's journal — service
  /// teardown without close. Called by the destructor.
  void detach_journals();

  ServiceConfig cfg_;
  RoutedSink sink_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< backpressure slots + drain
  std::map<std::string, StreamSession> sessions_;
  /// Per-origin "current session" (bare data lines route here). The old
  /// single current_session_ is currents_[0] — the stdio/test origin.
  std::map<std::uint64_t, std::string> currents_;
  /// Origin of the wire line being handled; guarded by mu_ (set right
  /// after handle_line locks it).
  std::uint64_t current_origin_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t clock_ticks_ = 0;
  std::size_t outstanding_ = 0;  ///< scheduled solves not yet emitted
  std::uint64_t next_trace_id_ = 0;  ///< one per ingested wire line
  // Uptime anchors on the real monotonic clock, never cfg_.clock: uptime
  // is an out-of-band wall quantity, and an injected (virtual/throwing)
  // clock must see exactly the same call sequence as before uptime existed.
  std::chrono::steady_clock::time_point start_tp_ =
      std::chrono::steady_clock::now();
  ServeStats stats_;

  std::mutex decoder_mu_;
  ChunkDecoder decoder_;

  mutable std::mutex emit_mu_;  ///< also taken by const telemetry reads
  std::uint64_t emit_next_ = 0;
  /// Buffered out-of-order responses, stamped with their arrival on the
  /// trace clock so the release can account the reorder-hold span.
  struct PendingEmit {
    std::string line;
    std::uint64_t arrival_ns = 0;
    std::uint64_t origin = 0;
  };
  std::map<std::uint64_t, PendingEmit> emit_buffer_;
  std::uint64_t reorder_hwm_ = 0;  ///< guarded by emit_mu_

  engine::ThreadPool* pool_ = nullptr;     ///< scheduling target
  std::unique_ptr<engine::ThreadPool> owned_pool_;  ///< when not shared
};

}  // namespace lion::serve
