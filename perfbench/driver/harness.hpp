// Shared types of lion_perfbench.
//
// lion_perfbench runs one workload against the real program —
// engine::BatchEngine in-process, and serve::SocketServer hosted
// in-process but driven over loopback TCP — and writes one raw-results
// JSON document. perfbench/run.py turns that document into the named
// metrics. Every number here is a raw sample or a count; percentiles and
// ratios are computed (and unit-tested) on the Python side, except the
// fleet accuracy check, which decides the exit status.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "linalg/vec.hpp"
#include "sim/reader.hpp"

namespace perfbench {

using lion::linalg::Vec3;

/// Seconds on the steady clock (only differences are used).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal append-only JSON writer: the raw-results document is flat
/// enough that explicit open/close calls stay readable.
class Json {
 public:
  Json& open(const char* key = nullptr) { return begin(key, '{'); }
  Json& close() { return end('}'); }
  Json& open_array(const char* key = nullptr) { return begin(key, '['); }
  Json& close_array() { return end(']'); }
  Json& num(const char* key, double v);
  Json& num(double v);
  Json& str(const char* key, const std::string& v);
  Json& nums(const char* key, const std::vector<double>& v);
  const std::string& text() const { return out_; }

 private:
  Json& begin(const char* key, char bracket);
  Json& end(char bracket);
  void key(const char* k);
  std::string out_;
  bool first_ = true;
};

// Sizing shared by every workload and phase (4 cores): client connections
// (all driven by one generator thread), server ingest shards, solver pool
// threads (also the BatchEngine's).
inline constexpr std::size_t kConns = 4;
inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kPoolThreads = 4;
/// Timed set-ups per SetupSampler::slot(), after one untimed one.
inline constexpr std::size_t kSetupRepsPerSlot = 6;
// serve_flush: open-loop schedule. Calibrate cycles start at kCyclesPerS;
// each runs two ~0.2 s full solves (the fresh scan and the delta), so the
// 4-thread pool is about a third busy. At 4.6 cycles/s (half busy), 3 of
// 10 runs of the same code read their flush tails 40-60 % high, with
// flushes answered after two solves' time.
inline constexpr double kCyclesPerS = 3.0;
/// batch_fleet: fleet antennas per second of --seconds (at least one per
/// flush cycle): ~100 per run at 30 s, as the p90 accuracy tails need.
inline constexpr double kFleetPerRunS = 3.5;
// Per connection: kSlotsPerConn concurrent calibrate sessions, each cycle
// kRepeats `!flush`es on the unchanged buffer and a kDeltaRows append
// before its last `!flush`; one track session with kTrackPrefill rows
// before the load, then kTrackRowsPerS and a `!tick` every kTickEvery rows.
inline constexpr std::size_t kSlotsPerConn = 4;
inline constexpr std::size_t kRepeats = 3;
inline constexpr std::size_t kDeltaRows = 64;
inline constexpr double kTrackRowsPerS = 100.0;
inline constexpr std::size_t kTickEvery = 4;
inline constexpr std::size_t kTrackPrefill = 300;
// serve_ingest: closed loop, kIngestSessionsPerConn calibrate sessions per
// connection, kIngestReadsPerRunS reads per second of --seconds, /metrics
// scraped every kScrapeIntervalS.
inline constexpr std::size_t kIngestSessionsPerConn = 4;
/// Untraced ingest passes: one after each measured batch run, and the last
/// one (which also restores) after the batch phase.
inline constexpr std::size_t kIngestPasses = 6;
inline constexpr double kIngestReadsPerRunS = 50000.0;
inline constexpr double kScrapeIntervalS = 0.02;

/// What a workload fixes besides the seed and the run length: where the
/// antenna sits in front of the paper's three-line rig, which sets how
/// strong, noisy and multipath-laden every read is, and the bounds of the
/// hidden-truth check at that position.
struct Workload {
  std::string name;
  double antenna_depth = 0.0;  ///< believed physical center (0, depth, 0) [m]
  /// Hidden-truth bounds on the fleet's 90th-percentile errors
  /// (truth_errors): the largest p90 seen over the seeds run while the
  /// benchmark was built, times 1.35, rounded up to a whole mm and to
  /// 50 mrad. Every unit's phase center sits 20-30 mm from its physical
  /// center, so a solver that returned the physical center would fail
  /// any center bound under 20 mm.
  double center_p90_bound_mm = 0.0;
  double offset_p90_bound_mrad = 0.0;
};

/// Look up a workload by name; false when unknown.
bool find_workload(const std::string& name, Workload& out);

/// One simulated antenna: its wire rows and hidden truth.
struct Antenna {
  std::uint64_t id = 0;
  Vec3 physical{};
  Vec3 true_center{};
  double true_offset = 0.0;       ///< wrapped theta_T + theta_R [rad]
  std::vector<std::string> rows;  ///< CSV payloads, scan order
};

/// Antennas built as engine::make_simulated_batch builds a job's unit and
/// scan (lab-typical three-line rig at the paper's 10 cm/s), placed at the
/// workload's depth, for ids [first_id, first_id + count).
std::vector<Antenna> make_antennas(const Workload& w, std::uint64_t seed,
                                   std::uint64_t first_id, std::size_t count);

/// First antenna id of a run: the unit quirks derive from the id, so the
/// seed picks which units the fleet holds, not only the read noise.
std::uint64_t first_antenna_id(std::uint64_t seed);

/// Samples the server parses from a row list, through the same parser.
std::vector<lion::sim::PhaseSample> parse_rows(
    const std::vector<std::string>& rows, std::size_t count);

/// `!session` declare of a calibrate session for antenna `a`.
std::string calibrate_declare(const std::string& id, const Antenna& a);

/// The SessionConfig the server derives from `declare`.
lion::core::RobustCalibrationConfig declared_config(const std::string& declare);

/// A single report this far from the hidden center (five times the
/// displacement) converged somewhere unrelated. The program does that for
/// a few antennas per thousand, some metres off with status ok; they are
/// counted and printed, not failed.
inline constexpr double kOutlierMm = 150.0;

/// Center error [mm] and circular offset error [mrad] of a report.
std::pair<double, double> truth_errors(const lion::core::CalibrationReport& r,
                                       const Antenna& a);

/// CSV wire payload of one sample: x,y,z,phase,rssi,channel,t (%.17g, so
/// the server parses back exactly the generator's values).
std::string csv_row(const lion::sim::PhaseSample& s);

/// Peak resident set of this process [MB] (VmHWM).
double peak_rss_mb();

/// Append every recorded span as [name, tid, start_ns, dur_ns, arg] rows
/// under `key`, then clear the trace rings. Returns the spans dropped by
/// ring wrap-around since the last reset.
double dump_spans(Json& out, const char* key);

struct RunOptions {
  Workload w;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string work_dir;  ///< scratch for journals (inside the checkout)
  double ingest_reads = 0.0;  ///< reads the untraced ingest passes send
  double flush_s = 0.0;       ///< length of the flush schedule [s]
};

/// Calibrate cycles a flush schedule of `flush_s` seconds starts.
std::size_t flush_cycles(double flush_s);

/// The fleet shared by the batch and flush phases: antenna i is batch job
/// i and, while i < flush_cycles(), the calibrate session of flush cycle
/// i. A flush-cycle
/// session first receives `scan_rows` rows (the batch job's whole input),
/// then kDeltaRows more.
struct Fleet {
  std::vector<Antenna> antennas;
  std::vector<std::string> declares;  ///< per antenna
  lion::core::RobustCalibrationConfig config;
  std::size_t scan_rows = 0;
  /// Batch report bytes per antenna (io::report_json), the oracle of
  /// every serve report on the same `scan_rows` prefix.
  std::vector<std::string> scan_report;
};

/// The setup phase: what a serve deployment pays before load (shards and
/// pool, the telemetry plane, connects, and the declares of a first wave
/// of sessions, one per flush slot, confirmed by a barrier), timed from
/// start to the barrier's answers.
///
/// The daemon runs unjournaled here: a journaled declare creates a file,
/// and file creation on a virtual disk took 0.3-1.2 ms per set-up as the
/// host's I/O load changed, more than the rest of the set-up costs. The
/// journal's costs show in restore_*_s and ingest_reads_per_s instead. The
/// rest (thread starts, connects, cross-thread hand-offs) runs confined to
/// one core, in slots spread over the run (between the measured parts of
/// the other phases); the median is taken over all slots.
class SetupSampler {
 public:
  explicit SetupSampler(const Fleet& fleet);
  /// One untimed set-up (it pays the wake-up of idle cores), then
  /// kSetupRepsPerSlot timed ones.
  void slot();
  /// Append the "setup" section; false when a set-up failed.
  bool write(Json& out) const;

 private:
  /// Declare lines per connection.
  std::vector<std::vector<std::pair<std::string, std::string>>> declares_;
  std::vector<double> setup_s_;
  std::size_t attempted_ = 0;
  bool ok_ = true;
};

/// serve_ingest, run as passes the caller spreads over the run, so the
/// median pass rate draws on several stretches of the host's load. pass()
/// runs one untraced pass on a fresh daemon and journal; finish() runs the
/// last one, which also restarts and restores, then (traced runs) the
/// traced pass, and appends the "ingest" section.
class IngestPhase {
 public:
  explicit IngestPhase(const RunOptions& opt);
  ~IngestPhase();
  void pass();
  /// False when an output check failed.
  bool finish(Json& out);

 private:
  struct State;
  std::unique_ptr<State> s_;
};

/// Each phase appends its section to `out` and returns false when an
/// output check failed (the counts in the section say which). Batch calls
/// `between` after each of its measured runs.
bool run_batch_phase(const RunOptions& opt, Fleet& fleet, Json& out,
                     const std::function<void()>& between);
bool run_flush_phase(const RunOptions& opt, const Fleet& fleet, Json& out);

}  // namespace perfbench
