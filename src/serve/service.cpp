#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "engine/pool_executor.hpp"
#include "io/report_json.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/process.hpp"

namespace lion::serve {

namespace {

/// Adapt a plain Sink to the origin-routing form (origins discarded).
StreamService::RoutedSink route_plain(StreamService::Sink sink) {
  if (!sink) return StreamService::RoutedSink{};
  return [sink = std::move(sink)](std::string_view line, std::uint64_t) {
    sink(line);
  };
}

/// Append `,"name":value` to a JSON object under construction.
void append_field(std::string& out, const char* name, std::uint64_t value) {
  out += ",\"";
  out += name;
  out += "\":";
  out += std::to_string(value);
}

}  // namespace

FallbackRatios fallback_ratios(const ServeStats& stats) {
  const auto ratio = [&stats](ServeCounter part, ServeCounter whole) {
    return stats[whole] == 0 ? 0.0
                             : static_cast<double>(stats[part]) /
                                   static_cast<double>(stats[whole]);
  };
  return {ratio(ServeCounter::kTickFallbacks, ServeCounter::kPoseTicks),
          ratio(ServeCounter::kCalFallbacks, ServeCounter::kCalFlushes)};
}

StreamService::StreamService(ServiceConfig config, Sink sink)
    : StreamService(std::move(config), route_plain(std::move(sink)),
                    nullptr) {}

StreamService::StreamService(ServiceConfig config, Sink sink,
                             engine::ThreadPool* pool)
    : StreamService(std::move(config), route_plain(std::move(sink)), pool) {}

StreamService::StreamService(ServiceConfig config, RoutedSink sink,
                             engine::ThreadPool* pool)
    : cfg_(std::move(config)),
      sink_(std::move(sink)),
      decoder_(cfg_.max_line_bytes),
      pool_(pool) {
  if (pool_ == nullptr) {
    std::size_t threads = cfg_.threads;
    if (threads == 0) {
      threads = std::thread::hardware_concurrency();
      if (threads == 0) threads = 1;
    }
    owned_pool_ = std::make_unique<engine::ThreadPool>(threads);
    pool_ = owned_pool_.get();
  }
}

StreamService::~StreamService() {
  // Every scheduled solve holds a raw `this`; the pool (owned or shared)
  // must see them all finish before the service's members go away.
  drain();
  // Connection teardown without close: sync + release every journal so a
  // future connection (or process) can re-claim the sessions.
  detach_journals();
}

void StreamService::detach_journals() {
  if (cfg_.journal == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, session] : sessions_) {
    if (session.journal) {
      session.journal->sync();
      session.journal.reset();
    }
    cfg_.journal->detach(id);
  }
}

double StreamService::now() const {
  if (cfg_.clock) return cfg_.clock();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double StreamService::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_tp_)
      .count();
}

std::uint64_t StreamService::reserve_seq() { return next_seq_++; }

void StreamService::emit(std::uint64_t seq, std::string line,
                         std::uint64_t origin) {
  LION_OBS_SPAN(obs::Stage::kEmit);
  const std::uint64_t arrival = obs::trace_now_ns();
  std::lock_guard<std::mutex> lock(emit_mu_);
  emit_buffer_.emplace(seq, PendingEmit{std::move(line), arrival, origin});
  reorder_hwm_ = std::max<std::uint64_t>(reorder_hwm_, emit_buffer_.size());
  auto it = emit_buffer_.begin();
  while (it != emit_buffer_.end() && it->first == emit_next_) {
    // The reorder hold — arrival to in-order release — goes to the stage
    // histogram and the Chrome ring only: the session `!trace` ring lives
    // behind mu_, which must never be taken under emit_mu_ (lock order).
    const std::uint64_t held = arrival - it->second.arrival_ns;
    if (obs::metrics_enabled()) {
      obs::MetricsRegistry::instance().record(
          obs::stage_histogram(obs::Stage::kReorder),
          static_cast<double>(held) * 1e-9);
    }
    if (obs::tracing_enabled()) {
      obs::trace_record({obs::stage_name(obs::Stage::kReorder),
                         obs::trace_thread_id(), it->second.arrival_ns, held,
                         it->first, true});
    }
    if (sink_) sink_(it->second.line, it->second.origin);
    it = emit_buffer_.erase(it);
    ++emit_next_;
  }
}

void StreamService::emit_error(const std::string& session,
                               const std::string& code,
                               const std::string& detail, bool parse_error) {
  // Caller holds mu_ (lock order mu_ -> emit_mu_ is the designed one).
  ++stats_[ServeCounter::kErrors];
  if (parse_error) ++stats_[ServeCounter::kParseErrors];
  const auto it = sessions_.find(session);
  if (it != sessions_.end()) ++it->second.request_errors;
  const std::uint64_t seq = reserve_seq();
  emit(seq, error_response(session, seq, code, detail), current_origin_);
}

const std::string& StreamService::current_of(std::uint64_t origin) const {
  static const std::string kNone;
  const auto it = currents_.find(origin);
  return it == currents_.end() ? kNone : it->second;
}

void StreamService::clear_current(const std::string& id) {
  for (auto it = currents_.begin(); it != currents_.end();) {
    if (it->second == id) {
      it = currents_.erase(it);
    } else {
      ++it;
    }
  }
}

void StreamService::record_span(StreamSession& session, std::uint64_t trace_id,
                                obs::Stage stage, std::uint64_t start_ns,
                                std::uint64_t end_ns) {
  const std::uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
  if (obs::metrics_enabled()) {
    obs::MetricsRegistry::instance().record(obs::stage_histogram(stage),
                                            static_cast<double>(dur) * 1e-9);
  }
  if (obs::tracing_enabled()) {
    obs::trace_record({obs::stage_name(stage), obs::trace_thread_id(),
                       start_ns, dur, trace_id, true});
  }
  // The `!trace` ring is always maintained: the dump must answer on a
  // daemon that never enabled the metrics/tracing layers.
  if (session.spans.size() < kSessionSpanCap) {
    session.spans.push_back({trace_id, stage, start_ns, dur});
  } else {
    session.spans[session.span_head] = {trace_id, stage, start_ns, dur};
    session.span_head = (session.span_head + 1) % kSessionSpanCap;
  }
}

void StreamService::event(obs::Severity severity, const char* type,
                          const std::string& session, std::string detail,
                          std::uint64_t value) {
  if (cfg_.events == nullptr) return;
  cfg_.events->emit(severity, type, session, std::move(detail), value);
}

void StreamService::ingest_bytes(std::string_view bytes) {
  std::vector<std::string> lines;
  std::size_t oversized = 0;
  {
    std::lock_guard<std::mutex> lock(decoder_mu_);
    ChunkDecoder::Lines out = decoder_.feed(bytes);
    lines = std::move(out.lines);
    oversized = out.oversized_dropped;
  }
  report_oversized(oversized);
  for (const std::string& line : lines) ingest_line(line);
}

void StreamService::report_oversized(std::size_t count) {
  report_oversized(count, 0);
}

void StreamService::report_oversized(std::size_t count, std::uint64_t origin) {
  if (count == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  current_origin_ = origin;
  stats_[ServeCounter::kOversized] += count;
  for (std::size_t i = 0; i < count; ++i) {
    emit_error("", "oversized_line",
               "wire: line exceeded max_line_bytes and was dropped", false);
  }
}

void StreamService::ingest_line(std::string_view line) {
  ingest_line(line, 0);
}

void StreamService::ingest_line(std::string_view line, std::uint64_t origin) {
  LION_OBS_SPAN(obs::Stage::kIngest);
  handle_line(parse_line(line), origin);
}

void StreamService::handle_line(const ParsedLine& line, std::uint64_t origin) {
  std::unique_lock<std::mutex> lock(mu_);
  current_origin_ = origin;
  ++stats_[ServeCounter::kLines];
  ++clock_ticks_;  // the virtual clock: one tick per wire line
  ++next_trace_id_;  // trace id of this line = current_trace_id()
  switch (line.kind) {
    case ParsedLine::kComment:
      break;
    case ParsedLine::kError:
      emit_error(line.session.empty() ? current_of(current_origin_)
                                      : line.session,
                 "parse_error", line.error, true);
      break;
    case ParsedLine::kSession:
      handle_session_declare(lock, line);
      break;
    case ParsedLine::kFlush:
      handle_flush(lock, line.session);
      break;
    case ParsedLine::kClose:
      handle_close(lock, line.session);
      break;
    case ParsedLine::kTick:
      clock_ticks_ += line.ticks;
      stats_[ServeCounter::kClockAdvances] += line.ticks;
      break;
    case ParsedLine::kPoseTick:
      handle_pose_tick(lock, line.session);
      break;
    case ParsedLine::kStats:
      emit_stats_response();
      break;
    case ParsedLine::kHealthz:
      emit_health_response();
      break;
    case ParsedLine::kTrace:
      emit_trace_response(line.session);
      break;
    case ParsedLine::kData:
      handle_data(lock, line);
      break;
  }
  evict_idle(lock);
}

void StreamService::handle_session_declare(std::unique_lock<std::mutex>& lock,
                                           const ParsedLine& line) {
  const std::string id = line.session;
  if (sessions_.count(id) != 0) {
    emit_error(id, "bad_control", "session '" + id + "' already exists",
               false);
    return;
  }
  if (sessions_.size() >= cfg_.max_sessions) {
    emit_error(id, "session_limit",
               "session limit reached (max_sessions=" +
                   std::to_string(cfg_.max_sessions) + ")",
               false);
    return;
  }
  SessionConfig config;
  std::string error;
  if (!make_session_config(line, config, error)) {
    emit_error(id, "bad_control", error, false);
    return;
  }
  StreamSession session;
  session.id = id;
  session.config = config;
  session.last_active = clock_ticks_;
  session.owner = current_origin_;
  if (config.mode == SessionMode::kTrack) {
    // Built before any journal replay so restored samples feed it too. A
    // construction failure (degenerate geometry the declare validation
    // did not catch) leaves it null: every pose tick then falls back.
    try {
      session.incremental = std::make_unique<core::IncrementalTrackSolver>(
          incremental_config(config));
    } catch (const std::exception&) {
      session.incremental.reset();
    }
  }
  std::optional<RecoveredSession> restored;
  if (cfg_.journal != nullptr) {
    std::string code;
    std::string jerror;
    if (!attach_journal(lock, session, line, code, jerror, restored)) {
      emit_error(id, code, jerror, false);
      return;
    }
  }
  // Capture the ack payload before the move; replay filled these counters.
  const std::uint64_t records = restored ? restored->client_records : 0;
  const std::uint64_t samples = session.samples_accepted;
  const std::uint64_t flushes = session.flushes;
  const bool torn = restored && restored->torn;
  const bool was_restored = restored.has_value();
  sessions_.emplace(id, std::move(session));
  currents_[current_origin_] = id;  // fresh declares are silent on success
  if (was_restored) {
    emit_oob(restore_response(id, records, samples, flushes, torn));
  }
}

bool StreamService::attach_journal(std::unique_lock<std::mutex>& lock,
                                   StreamSession& session,
                                   const ParsedLine& line, std::string& code,
                                   std::string& error,
                                   std::optional<RecoveredSession>& restored) {
  JournalStore* store = cfg_.journal;
  const std::string norm = normalize_declare_line(line);
  std::string claim_error;
  std::optional<RecoveredSession> rec = store->claim(session.id, claim_error);
  if (!rec) {
    if (!claim_error.empty()) {
      code = "journal_conflict";
      error = claim_error;
      return false;
    }
    // No journal on disk: a fresh durable session.
    session.journal = store->open_writer(session.id, 0);
    if (!session.journal) {
      session.journal_degraded = true;
      ++stats_[ServeCounter::kJournalErrors];
      event(obs::Severity::kError, "journal_degraded", session.id,
            "could not open journal; session is not durable");
      emit_error(session.id, "journal_error",
                 "journal: could not open journal; session '" + session.id +
                     "' is not durable",
                 false);
    } else {
      journal_append(session, JournalRecordType::kDeclare, norm);
    }
    return true;
  }
  if (rec->declare_line != norm) {
    store->detach(session.id);
    code = "journal_conflict";
    error = "journal: declare does not match journaled session '" +
            session.id + "' (journaled: " + rec->declare_line + ")";
    return false;
  }
  // Fast-forwarding next_seq_/emit_next_ below must not strand reserved
  // seqs in the reorder buffer, so wait for full quiescence first. The
  // wait releases mu_; re-check that no concurrent producer claimed the
  // id meanwhile.
  cv_.wait(lock, [this] { return outstanding_ == 0; });
  if (sessions_.count(session.id) != 0) {
    store->detach(session.id);
    code = "bad_control";
    error = "session '" + session.id + "' already exists";
    return false;
  }
  const bool memo_resolved = replay_records(session, *rec);
  next_seq_ = std::max(next_seq_, rec->last_seq);
  {
    // outstanding_ == 0, so the reorder buffer is empty and emit_next_
    // equals next_seq_'s pre-bump value; keep them in lockstep.
    std::lock_guard<std::mutex> emit_lock(emit_mu_);
    emit_next_ = std::max(emit_next_, next_seq_);
  }
  clock_ticks_ = std::max(clock_ticks_, rec->last_tick);
  session.last_active = clock_ticks_;
  // The ack cursor counts only client-visible records; the writer resumes
  // at the true on-disk LSN (anchors included) so frames stay gap-free.
  session.restored_records = rec->client_records;
  session.journal = store->open_writer(session.id, rec->record_count);
  if (!session.journal) {
    session.journal_degraded = true;
    ++stats_[ServeCounter::kJournalErrors];
    event(obs::Severity::kError, "journal_degraded", session.id,
          "could not reopen journal; session is no longer durable");
    emit_error(session.id, "journal_error",
               "journal: could not reopen journal; session '" + session.id +
                   "' is no longer durable",
               false);
  } else if (memo_resolved) {
    // Journal the rebuilt memo in the anchor form that carries its bytes,
    // so the next restart installs it instead of solving again.
    journal_append(session, JournalRecordType::kCalAnchor,
                   cal_anchor_line(session.memo));
  }
  ++stats_[ServeCounter::kRestores];
  event(obs::Severity::kInfo, "restore", session.id,
        "session restored from journal", rec->record_count);
  restored = std::move(rec);
  return true;
}

bool StreamService::replay_records(StreamSession& session,
                                   const RecoveredSession& rec) {
  // The last replayable kCalAnchor. Each install replaces the whole memo,
  // so restoring only the last anchor restores exactly what replaying
  // every one in order would, however many flushes the session has seen.
  std::optional<CalAnchor> anchor;
  for (const JournalRecord& record : rec.records) {
    switch (record.type) {
      case JournalRecordType::kDeclare:
        break;  // consumed by the claim (declare_line equality check)
      case JournalRecordType::kCsvRow: {
        const io::CsvStreamParser::Result row =
            session.csv.push_line(record.line);
        if (row.status == io::CsvRowStatus::kSample) {
          replay_accept(session, row.sample);
        }
        break;
      }
      case JournalRecordType::kJsonSample: {
        const ParsedLine parsed = parse_line(record.line);
        if (parsed.json_sample) replay_accept(session, *parsed.json_sample);
        break;
      }
      case JournalRecordType::kFlush:
        ++session.flushes;
        if (session.config.mode == SessionMode::kTrack) {
          // A live track flush drains the partial window as one solve.
          ++session.windows_scheduled;
          session.window_buffer.clear();
          if (session.incremental) session.incremental->clear();
        }
        break;
      case JournalRecordType::kPoseTick:
        // The response was delivered before the crash; only the tick
        // index advances, so post-restore ticks continue the sequence.
        ++session.ticks_emitted;
        break;
      case JournalRecordType::kCalFlush:
        // The report was delivered before the crash, and a calibrate
        // flush never carves the buffer — only the flush count advances.
        // The memo replays from kCalAnchor records alone: a memo answer
        // leaves it untouched, and a fallback's install was journaled
        // separately when its solve completed.
        ++session.flushes;
        break;
      case JournalRecordType::kCalAnchor: {
        if (session.config.mode != SessionMode::kCalibrate) break;
        std::optional<CalAnchor> parsed = parse_cal_anchor(record.line);
        if (parsed && parsed->samples <= session.buffer.size()) {
          anchor = parsed;
        }
        break;
      }
    }
  }
  if (!anchor) return false;
  try {
    // The buffer only grows, so its prefix is the buffer the anchor's
    // solve saw. When the prefix digest matches, the journaled bytes ARE
    // the pre-crash memo: install them without solving.
    const std::uint64_t digest =
        cal_buffer_digest(session.buffer.data(), anchor->samples);
    if (anchor->has_report) {
      if (anchor->digest == digest) {
        session.memo.install(anchor->samples, digest,
                             std::string(anchor->report_json));
        ++stats_[ServeCounter::kReplayMemoRestores];
        return false;
      }
      event(obs::Severity::kWarn, "restore_memo_mismatch", session.id,
            "anchor digest differs from the replayed prefix; re-solving",
            anchor->samples);
    }
    // A bare-count anchor (older daemons) or a digest mismatch: re-run
    // the batch solve the live path ran over the prefix. The pipeline is
    // deterministic, so the rebuilt memo is the pre-crash one. This
    // thread is not a pool worker, so every pool thread may help.
    ++stats_[ServeCounter::kReplaySolves];
    const std::vector<sim::PhaseSample> prefix(
        session.buffer.begin(),
        session.buffer.begin() + static_cast<std::ptrdiff_t>(anchor->samples));
    engine::PoolSweepExecutor helpers(*pool_, pool_->thread_count());
    session.memo.install(
        prefix.size(), digest,
        io::report_json(core::calibrate_antenna_robust(
            prefix, session.config.center, session.config.calibration,
            &engine::thread_workspace(), &helpers)));
    return true;
  } catch (...) {
    // A memo that cannot be rebuilt stays empty: every post-restore
    // flush takes the full solve — degraded, never wrong.
    ++stats_[ServeCounter::kReplayMemoFailures];
    event(obs::Severity::kWarn, "restore_memo_failed", session.id,
          "could not rebuild the calibrate memo; next flush re-solves",
          anchor->samples);
  }
  return false;
}

void StreamService::replay_accept(StreamSession& session,
                                  const sim::PhaseSample& sample) {
  ++session.samples_accepted;
  if (session.config.mode == SessionMode::kCalibrate) {
    // Mirrors accept_sample's cap: the live path dropped this sample too.
    if (session.buffer.size() >= cfg_.max_session_samples) return;
    session.buffer.push_back(sample);
    return;
  }
  session.window_buffer.push_back(sample);
  push_incremental(session, sample);
  if (session.window_buffer.size() < session.config.window) return;
  // Carve the completed window exactly as the live path did — minus the
  // solve, whose response was already delivered before the crash.
  ++session.windows_scheduled;
  const std::size_t hop =
      std::min(session.config.hop, session.window_buffer.size());
  session.window_buffer.erase(session.window_buffer.begin(),
                              session.window_buffer.begin() + hop);
  retire_incremental(session, hop);
}

void StreamService::push_incremental(StreamSession& session,
                                     const sim::PhaseSample& sample) {
  if (!session.incremental) return;
  try {
    session.incremental->push(sample);
  } catch (...) {
    // Network-facing invariant: ingest never unwinds. A solver that threw
    // is out of sync with the window; drop it and serve ticks via the
    // full-pipeline fallback from here on.
    session.incremental.reset();
  }
}

void StreamService::retire_incremental(StreamSession& session,
                                       std::size_t count) {
  if (!session.incremental) return;
  try {
    session.incremental->retire(count);
  } catch (...) {
    session.incremental.reset();
  }
}

void StreamService::journal_append(StreamSession& session,
                                   JournalRecordType type,
                                   std::string_view line) {
  if (!session.journal || session.journal_degraded) return;
  const std::uint64_t append_start = obs::trace_now_ns();
  const bool ok =
      session.journal->append(type, line, clock_ticks_, next_seq_);
  record_span(session, current_trace_id(), obs::Stage::kJournalAppend,
              append_start, obs::trace_now_ns());
  if (ok) return;
  // Latch: one error response per session, then keep serving non-durably.
  session.journal_degraded = true;
  ++stats_[ServeCounter::kJournalErrors];
  event(obs::Severity::kError, "journal_degraded", session.id,
        "append failed; session is no longer durable");
  emit_error(session.id, "journal_error",
             "journal: append failed; session '" + session.id +
                 "' is no longer durable",
             false);
}

void StreamService::journal_flush(StreamSession& session,
                                  JournalRecordType type) {
  journal_append(session, type, "");
  if (!session.journal || session.journal_degraded) return;
  const std::uint64_t sync_start = obs::trace_now_ns();
  session.journal->sync();
  record_span(session, current_trace_id(), obs::Stage::kJournalSync,
              sync_start, obs::trace_now_ns());
}

void StreamService::handle_data(std::unique_lock<std::mutex>& lock,
                                const ParsedLine& line) {
  const std::uint64_t demux_start = obs::trace_now_ns();
  std::string id =
      line.session.empty() ? current_of(current_origin_) : line.session;
  if (id.empty()) {
    if (!cfg_.implicit_center) {
      emit_error("", "unknown_session",
                 "wire: data before any !session declare", false);
      return;
    }
    // Bare-pipe mode: auto-open a default calibrate session so
    // `cat scan.csv | lion serve --center ...` needs no protocol lines.
    // Routing through the declare path gives the implicit session the
    // same durability (journal attach / restore) as an explicit one.
    id = "default";
    if (sessions_.count(id) == 0) {
      ParsedLine declare;
      declare.kind = ParsedLine::kSession;
      declare.session = id;
      declare.mode = SessionMode::kCalibrate;
      declare.center = *cfg_.implicit_center;
      handle_session_declare(lock, declare);
      if (sessions_.count(id) == 0) return;  // journal conflict etc.
    }
    currents_[current_origin_] = id;
  }
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    emit_error(id, "unknown_session", "wire: no session '" + id + "'", false);
    return;
  }
  StreamSession& session = it->second;
  session.last_active = clock_ticks_;
  record_span(session, current_trace_id(), obs::Stage::kDemux, demux_start,
              obs::trace_now_ns());
  // Journal records are appended *after* the mutation (accept may reserve
  // a seq for a window solve — the record's seq snapshot must include it)
  // but before that solve is submitted. The session is re-found because
  // accept_sample can block on backpressure and invalidate references.
  const auto accept_row = [&](const sim::PhaseSample& sample,
                              JournalRecordType type,
                              std::string_view record) {
    std::shared_ptr<SolveRequest> window = accept_sample(lock, id, sample);
    if (cfg_.journal != nullptr) {
      const auto again = sessions_.find(id);
      if (again != sessions_.end()) journal_append(again->second, type, record);
    }
    if (window) submit_request(std::move(window));
  };
  if (line.json_sample) {
    std::string canonical;
    if (cfg_.journal != nullptr) {
      canonical = canonical_sample_line(*line.json_sample);
    }
    accept_row(*line.json_sample, JournalRecordType::kJsonSample, canonical);
    return;
  }
  const io::CsvStreamParser::Result row = session.csv.push_line(line.csv_row);
  switch (row.status) {
    case io::CsvRowStatus::kSample:
      accept_row(row.sample, JournalRecordType::kCsvRow, line.csv_row);
      break;
    case io::CsvRowStatus::kHeader:
    case io::CsvRowStatus::kSkipped:
      // Headers/skipped rows mutate parser layout state (and line_no), so
      // they are journaled too: replay reconstructs the parser exactly.
      journal_append(session, JournalRecordType::kCsvRow, line.csv_row);
      break;
    case io::CsvRowStatus::kError:
      emit_error(id, "parse_error", row.error, true);
      journal_append(session, JournalRecordType::kCsvRow, line.csv_row);
      break;
  }
}

std::shared_ptr<StreamService::SolveRequest> StreamService::accept_sample(
    std::unique_lock<std::mutex>& lock, const std::string& id,
    const sim::PhaseSample& sample) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  StreamSession& session = it->second;
  ++session.samples_accepted;
  ++stats_[ServeCounter::kSamples];

  if (session.config.mode == SessionMode::kCalibrate) {
    if (session.buffer.size() >= cfg_.max_session_samples) {
      emit_error(id, "buffer_full",
                 "session buffer at max_session_samples=" +
                     std::to_string(cfg_.max_session_samples) +
                     "; sample dropped (flush or close to solve)",
                 false);
      return nullptr;
    }
    session.buffer.push_back(sample);
    return nullptr;
  }

  session.window_buffer.push_back(sample);
  push_incremental(session, sample);
  if (session.window_buffer.size() < session.config.window) return nullptr;

  // A window is complete: claim an in-flight slot (this may block and
  // invalidate `session`), then re-resolve and carve the window out.
  if (!wait_for_slot(lock, id)) {
    const auto again = sessions_.find(id);
    if (again == sessions_.end()) return nullptr;  // gone while blocked
    // Busy-reject mode: drop this window's solve but still slide, so a
    // saturated session keeps bounded memory and keeps making progress.
    StreamSession& busy = again->second;
    const std::size_t hop =
        std::min(busy.config.hop, busy.window_buffer.size());
    busy.window_buffer.erase(busy.window_buffer.begin(),
                             busy.window_buffer.begin() + hop);
    retire_incremental(busy, hop);
    emit_error(id, "busy", "track window dropped: session at in-flight cap",
               false);
    return nullptr;
  }
  const auto again = sessions_.find(id);
  if (again == sessions_.end()) return nullptr;
  StreamSession& ready = again->second;
  SolveRequest request;
  request.session = id;
  request.mode = SessionMode::kTrack;
  request.config = ready.config;
  request.samples.assign(
      ready.window_buffer.begin(),
      ready.window_buffer.begin() +
          std::min(ready.config.window, ready.window_buffer.size()));
  request.window_index = ready.windows_scheduled++;
  const std::size_t hop = std::min(ready.config.hop,
                                   ready.window_buffer.size());
  ready.window_buffer.erase(ready.window_buffer.begin(),
                            ready.window_buffer.begin() + hop);
  retire_incremental(ready, hop);
  return reserve_request(std::move(request));
}

bool StreamService::handle_flush(std::unique_lock<std::mutex>& lock,
                                 const std::string& id) {
  const std::uint64_t demux_start = obs::trace_now_ns();
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    emit_error(id, "unknown_session", "wire: no session '" + id + "'", false);
    return false;
  }
  it->second.last_active = clock_ticks_;
  ++it->second.flushes;
  record_span(it->second, current_trace_id(), obs::Stage::kDemux, demux_start,
              obs::trace_now_ns());
  if (!wait_for_slot(lock, id)) {
    if (sessions_.count(id) != 0) {
      emit_error(id, "busy", "flush rejected: session at in-flight cap",
                 false);
    }
    return false;
  }
  auto again = sessions_.find(id);
  if (again == sessions_.end()) return false;
  if (again->second.config.mode == SessionMode::kCalibrate &&
      !cfg_.reject_when_busy) {
    // Decision determinism: the memo visible to this flush must be a
    // function of the input lines alone, and memos are installed by pool
    // workers when a full solve completes. Waiting out the session's own
    // pending solves pins the decision; the reorder buffer already queues
    // this flush's response behind theirs, so the wait adds no output
    // latency. Reject mode trades exactly this class of timing
    // sensitivity for never blocking ingest — there the decision runs
    // against whatever memo is installed right now.
    cv_.wait(lock, [this, &id] {
      const auto it = sessions_.find(id);
      return it == sessions_.end() || it->second.in_flight == 0;
    });
    again = sessions_.find(id);
    if (again == sessions_.end()) return false;  // evicted while blocked
  }
  StreamSession& session = again->second;
  if (session.config.mode == SessionMode::kCalibrate) {
    // The buffer is cumulative: flush solves everything seen so far and
    // keeps accepting — exactly the batch pipeline over the same rows.
    // An unchanged buffer replays the last full solve's report inline
    // (the pipeline is deterministic, so it is the batch answer); any
    // other buffer schedules the full solve, whose completion installs
    // the session's next memo (and journals kCalAnchor) in run_request.
    ++stats_[ServeCounter::kCalFlushes];
    const std::uint64_t solve_start = obs::trace_now_ns();
    if (session.memo.matches(session.buffer)) {
      record_span(session, current_trace_id(), obs::Stage::kServeSolve,
                  solve_start, obs::trace_now_ns());
      ++stats_[ServeCounter::kCalMemo];
      ++stats_[ServeCounter::kReports];
      ++session.requests;
      const std::uint64_t seq = reserve_seq();
      std::string response =
          report_response(id, seq, session.memo.report_json, "memo");
      journal_flush(session, JournalRecordType::kCalFlush);
      emit(seq, std::move(response), current_origin_);
      return true;
    }
    ++stats_[ServeCounter::kCalFallbacks];
    SolveRequest request;
    request.session = id;
    request.mode = session.config.mode;
    request.config = session.config;
    request.samples = session.buffer;
    request.cal_flush = true;
    std::shared_ptr<SolveRequest> pending =
        reserve_request(std::move(request));
    journal_flush(session, JournalRecordType::kCalFlush);
    submit_request(std::move(pending));
    return true;
  }
  SolveRequest request;
  request.session = id;
  request.mode = session.config.mode;
  request.config = session.config;
  // Track flush drains the partial window as a final (short) solve.
  request.samples.assign(session.window_buffer.begin(),
                         session.window_buffer.end());
  session.window_buffer.clear();
  if (session.incremental) session.incremental->clear();
  request.window_index = session.windows_scheduled++;
  std::shared_ptr<SolveRequest> pending = reserve_request(std::move(request));
  journal_flush(session, JournalRecordType::kFlush);
  submit_request(std::move(pending));
  return true;
}

void StreamService::handle_pose_tick(std::unique_lock<std::mutex>& lock,
                                     const std::string& id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    emit_error(id, "unknown_session", "wire: no session '" + id + "'", false);
    return;
  }
  StreamSession& session = it->second;
  session.last_active = clock_ticks_;
  if (session.config.mode != SessionMode::kTrack) {
    emit_error(id, "bad_control",
               "pose tick requires a track session", false);
    return;
  }

  // Fast path: the incremental solver's maintained normal equations. The
  // residual gate (and any solver-construction failure) routes to the
  // full-pipeline window solve instead — slower, never silently wrong.
  core::TickResult tr;
  const std::uint64_t tick_start = obs::trace_now_ns();
  if (session.incremental) tr = session.incremental->tick();
  if (tr.valid && !tr.fallback) {
    record_span(session, current_trace_id(), obs::Stage::kServeSolve,
                tick_start, obs::trace_now_ns());
    ++stats_[ServeCounter::kPoseTicks];
    ++session.requests;
    const std::uint64_t tick_index = session.ticks_emitted++;
    const std::uint64_t seq = reserve_seq();
    core::TrackFix fix;
    fix.t = tr.t;
    fix.start = tr.start;
    fix.position = tr.position;
    fix.sigma = tr.sigma;
    fix.mean_residual = tr.rms;
    fix.valid = true;
    // Journal before emit, like every mutation: the record stamps
    // clock_ticks_ and next_seq_, which emit touches neither of.
    journal_append(session, JournalRecordType::kPoseTick, "");
    emit(seq, tick_response(id, seq, tick_index, fix, tr.rows,
                            "incremental"),
         current_origin_);
    return;
  }

  ++stats_[ServeCounter::kTickFallbacks];
  event(obs::Severity::kInfo, "tick_fallback", id,
        "residual gate routed pose tick to the full window solve",
        session.ticks_emitted);
  // wait_for_slot can block and invalidate `session`; a busy rejection
  // consumes no tick index, so the client can simply retry.
  if (!wait_for_slot(lock, id)) {
    if (sessions_.count(id) != 0) {
      emit_error(id, "busy", "pose tick rejected: session at in-flight cap",
                 false);
    }
    return;
  }
  const auto again = sessions_.find(id);
  if (again == sessions_.end()) return;  // evicted/closed while blocked
  StreamSession& ready = again->second;
  SolveRequest request;
  request.session = id;
  request.mode = SessionMode::kTrack;
  request.config = ready.config;
  request.pose_tick = true;
  // The window keeps accumulating: a pose tick is a read-only probe of
  // the stream, so the buffer is copied, not carved.
  request.samples.assign(ready.window_buffer.begin(),
                         ready.window_buffer.end());
  request.window_index = ready.ticks_emitted++;
  std::shared_ptr<SolveRequest> pending = reserve_request(std::move(request));
  journal_append(ready, JournalRecordType::kPoseTick, "");
  submit_request(std::move(pending));
}

void StreamService::handle_close(std::unique_lock<std::mutex>& lock,
                                 const std::string& id) {
  if (sessions_.find(id) == sessions_.end()) {
    emit_error(id, "unknown_session", "wire: no session '" + id + "'", false);
    return;
  }
  const bool flushed = handle_flush(lock, id);  // close == final flush...
  const auto again = sessions_.find(id);
  if (again == sessions_.end()) {
    clear_current(id);
    cv_.notify_all();
    return;
  }
  if (!flushed) {
    // Busy-reject refused the terminal solve. Erasing now would silently
    // drop the accumulated buffer with no way to retry, so the session
    // stays alive; the client sees code="busy" and may retry !close.
    return;
  }
  // A completed close ends the session's durable life: the journal file
  // is deleted, so a restart re-declares from scratch.
  if (cfg_.journal != nullptr) {
    again->second.journal.reset();  // dtor syncs + closes the fd
    cfg_.journal->remove(id);
  }
  sessions_.erase(again);  // ...+ eviction, only once the flush is in flight
  clear_current(id);
  cv_.notify_all();  // wake any producer blocked on this session's slots
}

bool StreamService::wait_for_slot(std::unique_lock<std::mutex>& lock,
                                  const std::string& id) {
  for (;;) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;  // vanished while blocked
    if (it->second.in_flight < cfg_.max_inflight_per_session) return true;
    if (cfg_.reject_when_busy) {
      ++stats_[ServeCounter::kRejectedBusy];
      return false;
    }
    ++stats_[ServeCounter::kBackpressureWaits];
    cv_.wait(lock);
  }
}

std::shared_ptr<StreamService::SolveRequest> StreamService::reserve_request(
    SolveRequest request) {
  // The seq reserved here, under mu_, is what orders responses.
  request.seq = reserve_seq();
  request.origin = current_origin_;
  request.trace_id = current_trace_id();
  const auto it = sessions_.find(request.session);
  if (it != sessions_.end()) {
    ++it->second.in_flight;
    ++it->second.requests;
  }
  ++outstanding_;
  // Response accounting happens here, on the ingest thread, so stats are
  // deterministic: every scheduled request emits exactly one response.
  if (request.pose_tick) {
    ++stats_[ServeCounter::kPoseTicks];
  } else if (request.mode == SessionMode::kCalibrate) {
    ++stats_[ServeCounter::kReports];
  } else {
    ++stats_[ServeCounter::kFixes];
  }
  ++stats_[ServeCounter::kRequests];
  LION_OBS_HIST("serve.queue_depth", obs::count_bounds(), outstanding_);
  return std::make_shared<SolveRequest>(std::move(request));
}

void StreamService::submit_request(std::shared_ptr<SolveRequest> request) {
  request->enqueue_time = now();
  request->enqueue_ns = obs::trace_now_ns();
  pool_->submit([this, request] { run_request(*request); });
}

void StreamService::run_request(SolveRequest& request) {
  // This function is the sole emitter of its reserved seq, and the pool
  // swallows task exceptions — an escape here would wedge the reorder
  // buffer and leak the outstanding_ slot (drain()/~StreamService hang).
  // So: any throw degrades to an error response, and the accounting block
  // runs unconditionally.
  bool timed_out = false;
  bool failed = false;
  std::string response;
  // A completed calibrate flush carries its rendered report and buffer
  // digest out of the try block: the accounting pass installs them as the
  // session's next memo (never on timeout — a deadline report is not the
  // batch answer for these rows).
  std::string cal_report;
  std::uint64_t cal_digest = 0;
  bool cal_solved = false;
  const std::uint64_t solve_start = obs::trace_now_ns();
  try {
    timed_out = cfg_.request_timeout_s > 0.0 &&
                now() - request.enqueue_time > cfg_.request_timeout_s;
    if (request.mode == SessionMode::kCalibrate) {
      core::CalibrationReport report;
      if (timed_out) {
        report.status = core::CalibrationStatus::kSolverFailure;
        report.diagnostics.message =
            "serve: request exceeded its deadline before solving";
      } else {
        // This worker is one of the pool's threads; the others may help
        // with the sweep's cells while they are idle.
        engine::PoolSweepExecutor helpers(*pool_, pool_->thread_count() - 1);
        report = core::calibrate_antenna_robust(
            request.samples, request.config.center,
            request.config.calibration, &engine::thread_workspace(),
            &helpers);
        cal_solved = true;
      }
      std::string rendered = io::report_json(report);
      response = report_response(request.session, request.seq, rendered,
                                 "fallback");
      if (cal_solved && request.cal_flush) {
        cal_digest = cal_buffer_digest(request.samples);
        cal_report = std::move(rendered);
      }
    } else {
      core::TrackFix fix;
      if (timed_out) {
        if (!request.samples.empty()) fix.t = request.samples.back().t;
      } else {
        fix = solve_track_window(request.samples, request.config);
      }
      if (request.pose_tick) {
        // Fallback pose tick: same schema as the incremental path, with
        // source="fallback" and rows=0 (no consensus rows backed it).
        response = tick_response(request.session, request.seq,
                                 request.window_index, fix, 0, "fallback");
      } else {
        response = fix_response(request.session, request.seq,
                                request.window_index, fix);
      }
    }
  } catch (const std::exception& e) {
    failed = true;
    response = error_response(request.session, request.seq, "internal_error",
                              std::string("serve: solve failed: ") + e.what());
  } catch (...) {
    failed = true;
    response = error_response(request.session, request.seq, "internal_error",
                              "serve: solve failed: unknown exception");
  }
  const std::uint64_t solve_end = obs::trace_now_ns();
  try {
    emit(request.seq, std::move(response), request.origin);
  } catch (...) {
    // A throwing sink leaves the entry buffered; the next emit retries
    // releasing it. Swallow so the accounting below still runs.
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (timed_out) ++stats_[ServeCounter::kTimeouts];
    if (failed) ++stats_[ServeCounter::kErrors];
    const auto it = sessions_.find(request.session);
    if (it != sessions_.end()) {
      // Telemetry for the completed request: queue wait (submit to
      // worker pickup), the solve itself, and the session's RED series.
      StreamSession& session = it->second;
      if (request.cal_flush && cal_solved && !failed) {
        // Adopt-before-decide: the session kept accepting while this
        // solve ran, so the memo is installed over the request's row
        // snapshot (append-only buffers make any same-or-larger later
        // memo a superset — never regress to an older one when two
        // fallback solves complete out of order).
        if (!session.memo.valid ||
            request.samples.size() > session.memo.samples) {
          session.memo.install(request.samples.size(), cal_digest,
                               std::move(cal_report));
          journal_append(session, JournalRecordType::kCalAnchor,
                         cal_anchor_line(session.memo));
        }
      }
      record_span(session, request.trace_id, obs::Stage::kQueueWait,
                  request.enqueue_ns, solve_start);
      record_span(session, request.trace_id, obs::Stage::kServeSolve,
                  solve_start, solve_end);
      session.solve_seconds.record(static_cast<double>(solve_end -
                                                       solve_start) *
                                   1e-9);
      if (failed || timed_out) ++session.request_errors;
      if (it->second.in_flight > 0) --it->second.in_flight;
    }
    if (outstanding_ > 0) --outstanding_;
    if (cfg_.slow_request_s > 0.0 &&
        static_cast<double>(solve_end - request.enqueue_ns) * 1e-9 >
            cfg_.slow_request_s) {
      event(obs::Severity::kWarn, "slow_request", request.session,
            timed_out ? "request exceeded its deadline"
                      : "queue wait + solve exceeded slow_request_s",
            solve_end - request.enqueue_ns);
    }
    // Notify before releasing mu_: once it is released, drain() may see
    // outstanding_ == 0 and the service (cv_ included) may be destroyed.
    cv_.notify_all();
  }
}

void StreamService::evict_idle(std::unique_lock<std::mutex>& lock) {
  (void)lock;
  if (cfg_.idle_ttl_ticks == 0) return;
  // (last_active, id) ordering makes eviction output reproducible no
  // matter how the session map hashes or when the sweep runs.
  std::vector<std::pair<std::uint64_t, std::string>> expired;
  for (const auto& [id, session] : sessions_) {
    if (clock_ticks_ - session.last_active > cfg_.idle_ttl_ticks) {
      expired.emplace_back(session.last_active, id);
    }
  }
  if (expired.empty()) return;
  std::sort(expired.begin(), expired.end());
  for (const auto& [tick, id] : expired) {
    const std::uint64_t seq = reserve_seq();
    // The eviction notice goes to the connection that owns the session,
    // which need not be the one whose line triggered the sweep.
    std::uint64_t owner = current_origin_;
    {
      const auto it = sessions_.find(id);
      if (it != sessions_.end()) owner = it->second.owner;
    }
    emit(seq, event_response(seq, "evict", id, tick), owner);
    event(obs::Severity::kInfo, "evict", id,
          "session evicted after idle_ttl_ticks", tick);
    if (cfg_.journal != nullptr) {
      const auto it = sessions_.find(id);
      if (it != sessions_.end()) it->second.journal.reset();
      cfg_.journal->remove(id);
    }
    sessions_.erase(id);
    clear_current(id);
    ++stats_[ServeCounter::kEvictions];
  }
  cv_.notify_all();
}

void StreamService::emit_stats_response() {
  const std::uint64_t seq = reserve_seq();
  std::string out = "{\"schema\":\"lion.stats.v1\",\"seq\":";
  out += std::to_string(seq);
  append_field(out, "sessions", sessions_.size());
  for (const ServeCounterSpec& spec : kServeCounters) {
    if (spec.stats_v1) append_field(out, spec.name, stats_[spec.id]);
  }
  append_field(out, "ticks", clock_ticks_);
  if (cfg_.shard_count > 1) {
    // Sharded servers answer !stats once per shard; the annotation lets a
    // client aggregate the set (and tells it how many lines to expect).
    // Absent with one shard so the single-shard byte stream is unchanged.
    append_field(out, "shard", cfg_.shard_index);
    append_field(out, "shards", cfg_.shard_count);
  }
  out.push_back('}');
  emit(seq, std::move(out), current_origin_);
}

void StreamService::emit_trace_response(const std::string& id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    emit_error(id, "unknown_session", "wire: no session '" + id + "'", false);
    return;
  }
  // Unroll the ring oldest-first; the dump is out-of-band (no seq), so
  // wall-clock span values never enter the sequenced byte stream.
  const StreamSession& session = it->second;
  std::vector<SpanRecord> spans;
  spans.reserve(session.spans.size());
  for (std::size_t i = 0; i < session.spans.size(); ++i) {
    spans.push_back(
        session.spans[(session.span_head + i) % session.spans.size()]);
  }
  emit_oob(trace_response(id, spans));
}

void StreamService::emit_oob(const std::string& line) {
  // Callers hold mu_; mu_ -> emit_mu_ is the designed lock order. The
  // line carries no seq, so it slots between whatever the reorder buffer
  // has released — fine for ops-plane diagnostics.
  std::lock_guard<std::mutex> lock(emit_mu_);
  if (sink_) sink_(line, current_origin_);
}

void StreamService::emit_health_response() {
  std::string out = "{\"schema\":\"lion.health.v1\"";
  append_field(out, "sessions", sessions_.size());
  append_field(out, "outstanding", outstanding_);
  for (const ServeCounterSpec& spec : kServeCounters) {
    append_field(out, spec.name, stats_[spec.id]);
  }
  out += ",\"journal_enabled\":";
  out += cfg_.journal != nullptr ? "true" : "false";
  if (cfg_.journal != nullptr) {
    // Journal lag: records written by this connection's sessions that are
    // not yet fsynced — the OS-crash exposure window.
    std::uint64_t lag = 0;
    std::uint64_t degraded = 0;
    for (const auto& [id, session] : sessions_) {
      if (session.journal) lag += session.journal->unsynced();
      if (session.journal_degraded) ++degraded;
    }
    const JournalStore::Stats js = cfg_.journal->stats();
    append_field(out, "journal_lag", lag);
    append_field(out, "journal_degraded", degraded);
    append_field(out, "journal_recovered", js.scanned_sessions);
    append_field(out, "journal_torn", js.torn_tails);
    append_field(out, "journal_corrupt", js.corrupt_files);
    append_field(out, "journal_appends", js.appends);
    append_field(out, "journal_syncs", js.syncs);
    append_field(out, "journal_failures", js.failures);
  }
  append_field(out, "rss_bytes", obs::process_rss_bytes());
  append_field(out, "open_fds", obs::process_open_fds());
  append_field(out, "ticks", clock_ticks_);
  // Ops-plane extras: service age, how often ticks and calibrate flushes
  // fell back to the full solve (a rising tick ratio means the residual
  // gate is tripping — the "why did my tick get slow" answer), and the
  // deepest the reorder buffer has been (how far ahead workers ran of
  // in-order release).
  out += ",\"uptime_s\":";
  obs::append_json_number(out, uptime_s());
  const FallbackRatios ratios = fallback_ratios(stats_);
  out += ",\"tick_fallback_ratio\":";
  obs::append_json_number(out, ratios.tick);
  out += ",\"cal_fallback_ratio\":";
  obs::append_json_number(out, ratios.cal);
  {
    // mu_ -> emit_mu_ is the designed lock order, so peeking at the
    // reorder high-water mark from here is safe.
    std::lock_guard<std::mutex> emit_lock(emit_mu_);
    append_field(out, "reorder_depth_hwm", reorder_hwm_);
  }
  if (cfg_.shard_count > 1) {
    // Per-shard ops view: which shard answered, and how deep its ingest
    // queue is right now / has ever been. Absent with one shard so the
    // single-shard byte stream is unchanged.
    append_field(out, "shard", cfg_.shard_index);
    append_field(out, "shards", cfg_.shard_count);
    append_field(out, "queue_depth", cfg_.queue_depth ? cfg_.queue_depth() : 0);
    append_field(out, "queue_hwm", cfg_.queue_hwm ? cfg_.queue_hwm() : 0);
    append_field(out, "queue_stalls",
                 cfg_.queue_stalls ? cfg_.queue_stalls() : 0);
  }
  out.push_back('}');
  emit_oob(out);
}

void StreamService::release_origin(std::uint64_t origin) {
  std::unique_lock<std::mutex> lock(mu_);
  // run_request emits before it decrements outstanding_, so quiescence
  // here means every sequenced response for this origin has already been
  // handed to the sink — nothing can route to the freed connection later.
  cv_.wait(lock, [this] { return outstanding_ == 0; });
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second.owner != origin) {
      ++it;
      continue;
    }
    // Same contract as ~StreamService's detach: sync + release so a later
    // connection (or process) can re-claim the session. The journal file
    // is kept — EOF is teardown, not `!close`.
    if (it->second.journal) {
      it->second.journal->sync();
      it->second.journal.reset();
    }
    if (cfg_.journal != nullptr) cfg_.journal->detach(it->first);
    it = sessions_.erase(it);
  }
  currents_.erase(origin);
  cv_.notify_all();  // wake producers blocked on released sessions' slots
}

void StreamService::finish() {
  std::vector<std::string> tail;
  std::size_t oversized = 0;
  {
    std::lock_guard<std::mutex> lock(decoder_mu_);
    ChunkDecoder::Lines out = decoder_.finish();
    tail = std::move(out.lines);
    oversized = out.oversized_dropped;
  }
  report_oversized(oversized);
  for (const std::string& line : tail) ingest_line(line);
  if (cfg_.events != nullptr) {
    std::uint64_t pending = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending = outstanding_;
    }
    event(obs::Severity::kInfo, "drain", "",
          "end of stream: waiting for in-flight solves", pending);
  }
  drain();
}

void StreamService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return outstanding_ == 0; });
}

ServeStats StreamService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats out = stats_;
  out.sessions = sessions_.size();
  out.ticks = clock_ticks_;
  return out;
}

ServiceTelemetry StreamService::telemetry() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceTelemetry out;
  out.stats = stats_;
  out.stats.sessions = sessions_.size();
  out.stats.ticks = clock_ticks_;
  out.uptime_s = uptime_s();
  for (const auto& [id, session] : sessions_) {
    SessionTelemetry st;
    st.id = id;
    st.track = session.config.mode == SessionMode::kTrack;
    st.in_flight = session.in_flight;
    st.samples = session.samples_accepted;
    st.flushes = session.flushes;
    st.requests = session.requests;
    st.errors = session.request_errors;
    st.pose_ticks = session.ticks_emitted;
    st.solve_seconds = session.solve_seconds;
    out.sessions.push_back(std::move(st));
    if (session.journal) out.journal_lag += session.journal->unsynced();
    if (session.journal_degraded) ++out.journal_degraded;
  }
  {
    std::lock_guard<std::mutex> emit_lock(emit_mu_);
    out.reorder_hwm = reorder_hwm_;
  }
  return out;
}

}  // namespace lion::serve
