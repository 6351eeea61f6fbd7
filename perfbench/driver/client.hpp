// Loopback load generator: client TCP connections, all driven by the
// calling thread through one non-blocking poll loop (run_conns), so the
// generator adds one thread to the host however many connections it holds.
//
// A connection replays two kinds of traffic:
//   - a feed (closed loop): a round of lines replayed `feed_rounds` times
//     as fast as TCP backpressure admits, before the scheduled lines;
//   - scheduled lines (open loop): each line is due at a fixed offset from
//     the epoch and is handed to the socket when due, whether or not
//     earlier requests were answered.
//
// Lines that expect an answer carry an Op. An op's `sent` is the moment
// its last byte entered the kernel, so a socket that stops draining shows
// up as generator lag instead of hiding in a user-space buffer. Responses
// are matched per session in FIFO order (the server answers each session
// in sequence order); `!stats` answers, which carry no session, match in
// FIFO order too, one per ingest shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Op {
  char kind = '?';  ///< F full, R repeat, D delta, C close, T tick,
                    ///< S stats barrier, B restore (re-declare)
  std::string session;
  double sched = 0.0;  ///< due offset from the epoch [s]
  double sent = -1.0;  ///< last byte handed to the kernel
  double recv = -1.0;  ///< its (last) answer line arrived
  std::size_t expect = 1;
  std::size_t got = 0;
  bool error = false;    ///< answered lion.error.v1
  std::string response;  ///< answer line(s), '\n'-joined
  std::size_t subject = 0;  ///< antenna (calibrate) or connection (track)
  std::size_t rows = 0;     ///< rows of the session sent before this line
};

struct Line {
  double due = 0.0;
  std::string text;  ///< including the trailing '\n'
  int op = -1;       ///< index into Conn::ops, -1 = no answer expected
};

class Conn;

/// Drive `conns` from the calling thread until every one has sent every
/// line and had every op answered (true), or until one fails or `deadline`
/// seconds past `epoch` pass (false; each Conn's `finished` says whether
/// it got through).
bool run_conns(const std::vector<Conn*>& conns, double epoch, double deadline);

class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool connect_to(int port, std::string& error);
  void disconnect();

  /// Forget the previous plan (keeps the socket).
  void clear_plan();

  std::vector<Line> lines;
  std::vector<Op> ops;

  // Closed-loop feed (optional): replayed before the scheduled lines.
  const std::vector<std::string>* feed = nullptr;
  std::size_t feed_rounds = 0;

  // Backlog sampling (optional, one connection samples for all).
  const std::vector<Conn*>* peers = nullptr;
  std::vector<double> backlog_t;
  std::vector<double> backlog_n;

  long outstanding = 0;  ///< ops sent or queued, not yet answered
  /// Answers no op was waiting for, lion.error.v1 included.
  std::size_t unexpected_lines = 0;
  std::string first_error;
  /// Every line sent and every op answered by the last run_conns().
  bool finished = false;

 private:
  friend bool run_conns(const std::vector<Conn*>& conns, double epoch,
                        double deadline);

  /// Ready the plan for a run.
  void start();
  /// Queue what is due at `now` (seconds past the epoch) and sample the
  /// backlog; false once every line is sent and every op answered.
  bool step(double now);
  /// Seconds until step() has work again without any I/O.
  double idle_for(double now) const;
  short events() const;
  /// Send and receive on poll readiness; false when the connection failed.
  bool on_events(short revents, double epoch);

  void enqueue(const std::string& text, int op);
  void on_line(const std::string& line, double now);
  void finish_op(int index, double now);
  std::size_t feed_lines() const;

  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::uint64_t out_base_ = 0;  ///< bytes already erased from out_
  std::deque<std::pair<std::uint64_t, int>> unsent_;  ///< (end, op)
  std::string in_;
  std::size_t next_ = 0;
  std::size_t feed_pos_ = 0;
  std::size_t feed_done_ = 0;
  std::map<std::string, std::deque<int>> pending_;
  std::deque<int> stats_pending_;
  /// Due time of the next line that carries an op, from each line on.
  std::vector<double> op_due_;
  double next_sample_ = 0.0;
};

/// GET /metrics on the telemetry port: appends the latency [ms] (-1 when
/// the scrape failed) and the body size [B].
void scrape_metrics(int port, std::vector<double>& ms,
                    std::vector<double>& bytes);

/// JSON string field `"key":"value"` of a flat response line ("" if absent).
std::string field_str(const std::string& line, const char* key);
/// JSON number field `"key":123` of a flat response line (-1 if absent).
double field_num(const std::string& line, const char* key);

}  // namespace perfbench
