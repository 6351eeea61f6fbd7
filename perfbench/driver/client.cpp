#include "driver/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "driver/harness.hpp"

namespace perfbench {

namespace {

/// Closed-loop window: the feed stops refilling the user-space buffer
/// while this many bytes are still waiting for the kernel.
constexpr std::size_t kFeedWindowBytes = 256 * 1024;

/// Scheduled rows (lines no op waits on) leave in batches: up to this long
/// after they are due, and never after the next line that carries an op.
/// One wake-up and one send per batch instead of per row keeps the
/// generator's own load off the cores the program runs on.
constexpr double kRowBatchS = 0.005;

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

std::string field_str(const std::string& line, const char* key) {
  const std::string pat = std::string("\"") + key + "\":\"";
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return "";
  const auto start = pos + pat.size();
  const auto end = line.find('"', start);
  return end == std::string::npos ? "" : line.substr(start, end - start);
}

double field_num(const std::string& line, const char* key) {
  const std::string pat = std::string("\"") + key + "\":";
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + pos + pat.size(), nullptr);
}

Conn::~Conn() { disconnect(); }

bool Conn::connect_to(int port, std::string& error) {
  disconnect();
  fd_ = connect_loopback(port);
  if (fd_ < 0) {
    error = std::string("connect: ") + std::strerror(errno);
    return false;
  }
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  return true;
}

void Conn::disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  out_.clear();
  out_off_ = 0;
  out_base_ = 0;
  unsent_.clear();
  in_.clear();
  pending_.clear();
  stats_pending_.clear();
}

void Conn::clear_plan() {
  lines.clear();
  ops.clear();
  // Answers still owed to the old plan can no longer match an op; they
  // arrive as unexpected lines.
  pending_.clear();
  stats_pending_.clear();
  unsent_.clear();
  next_ = 0;
  feed = nullptr;
  feed_rounds = 0;
  feed_pos_ = 0;
  feed_done_ = 0;
  peers = nullptr;
  outstanding = 0;
  unexpected_lines = 0;
  first_error.clear();
}

void Conn::enqueue(const std::string& text, int op) {
  out_ += text;
  if (op < 0) return;
  Op& o = ops[static_cast<std::size_t>(op)];
  unsent_.emplace_back(out_base_ + out_.size(), op);
  if (o.kind == 'S') {
    stats_pending_.push_back(op);
  } else {
    pending_[o.session].push_back(op);
  }
  ++outstanding;
}

void Conn::finish_op(int index, double now) {
  Op& op = ops[static_cast<std::size_t>(index)];
  op.recv = now;
  if (op.kind == 'S') {
    stats_pending_.pop_front();
  } else {
    pending_[op.session].pop_front();
  }
  --outstanding;
}

void Conn::on_line(const std::string& line, double now) {
  const std::string schema = field_str(line, "schema");
  if (schema == "lion.error.v1") {
    if (first_error.empty()) first_error = line;
    // The refused request is answered: fail its op instead of waiting. A
    // refused line that expects no answer (a declare, a data row) has no
    // op to fail and counts as unexpected.
    const auto it = pending_.find(field_str(line, "session"));
    if (it != pending_.end() && !it->second.empty()) {
      Op& op = ops[static_cast<std::size_t>(it->second.front())];
      op.error = true;
      op.response = line;
      finish_op(it->second.front(), now);
    } else {
      ++unexpected_lines;
    }
    return;
  }
  int index = -1;
  if (schema == "lion.stats.v1") {
    if (!stats_pending_.empty()) index = stats_pending_.front();
  } else if (schema == "lion.report.v1" || schema == "lion.tick.v1" ||
             schema == "lion.restore.v1") {
    const auto it = pending_.find(field_str(line, "session"));
    if (it != pending_.end() && !it->second.empty()) {
      index = it->second.front();
    }
  }
  if (index < 0) {
    if (unexpected_lines++ == 0 && first_error.empty()) first_error = line;
    return;
  }
  Op& op = ops[static_cast<std::size_t>(index)];
  if (!op.response.empty()) op.response.push_back('\n');
  op.response += line;
  if (++op.got >= op.expect) finish_op(index, now);
}

void scrape_metrics(int port, std::vector<double>& ms,
                    std::vector<double>& bytes) {
  const double t0 = now_s();
  const int fd = connect_loopback(port);
  if (fd < 0) {
    ms.push_back(-1.0);
    bytes.push_back(0.0);
    return;
  }
  static constexpr char kRequest[] = "GET /metrics HTTP/1.0\r\n\r\n";
  (void)::send(fd, kRequest, sizeof kRequest - 1, MSG_NOSIGNAL);
  std::string body;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      body.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
  const auto header_end = body.find("\r\n\r\n");
  const bool ok = (body.rfind("HTTP/1.0 200", 0) == 0 ||
                   body.rfind("HTTP/1.1 200", 0) == 0) &&
                  header_end != std::string::npos;
  ms.push_back(ok ? (now_s() - t0) * 1e3 : -1.0);
  bytes.push_back(ok ? static_cast<double>(body.size() - header_end - 4)
                     : 0.0);
}

std::size_t Conn::feed_lines() const {
  return feed != nullptr ? feed->size() * feed_rounds : 0;
}

void Conn::start() {
  op_due_.assign(lines.size() + 1, 1e300);
  for (std::size_t i = lines.size(); i-- > 0;) {
    op_due_[i] = lines[i].op >= 0 ? lines[i].due : op_due_[i + 1];
  }
  next_sample_ = 0.0;
  finished = false;
}

bool Conn::step(double now) {
  const std::size_t total = feed_lines();
  if (feed_done_ < total) {
    while (feed_done_ < total && out_.size() - out_off_ < kFeedWindowBytes) {
      enqueue((*feed)[feed_pos_], -1);
      feed_pos_ = (feed_pos_ + 1) % feed->size();
      ++feed_done_;
    }
  } else {
    while (next_ < lines.size() && lines[next_].due <= now) {
      enqueue(lines[next_].text, lines[next_].op);
      ++next_;
    }
  }
  if (peers != nullptr && now >= next_sample_) {
    long backlog = 0;
    for (const Conn* c : *peers) backlog += c->outstanding;
    backlog_t.push_back(now);
    backlog_n.push_back(static_cast<double>(backlog));
    next_sample_ += 0.1;
  }
  finished = feed_done_ == total && next_ == lines.size() &&
             out_off_ == out_.size() && outstanding == 0;
  return !finished;
}

double Conn::idle_for(double now) const {
  double wait = 0.05;
  if (feed_done_ == feed_lines() && next_ < lines.size()) {
    const Line& line = lines[next_];
    const double due =
        line.op >= 0 ? line.due
                     : std::min(line.due + kRowBatchS, op_due_[next_]);
    wait = std::min(wait, due - now);
  }
  if (peers != nullptr) wait = std::min(wait, next_sample_ - now);
  return std::max(wait, 0.0);
}

short Conn::events() const {
  return static_cast<short>(POLLIN | (out_off_ < out_.size() ? POLLOUT : 0));
}

bool Conn::on_events(short revents, double epoch) {
  if ((revents & POLLOUT) != 0 && out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
      const double at = now_s() - epoch;
      while (!unsent_.empty() &&
             unsent_.front().first <= out_base_ + out_off_) {
        ops[static_cast<std::size_t>(unsent_.front().second)].sent = at;
        unsent_.pop_front();
      }
      if (out_off_ > (1u << 20)) {
        out_.erase(0, out_off_);
        out_base_ += out_off_;
        out_off_ = 0;
      }
    } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
      return false;
    }
  }
  if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        in_.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return false;  // server closed on us
      if (errno == EINTR) continue;
      break;  // EAGAIN
    }
    const double at = now_s() - epoch;
    std::size_t start = 0;
    for (std::size_t nl; (nl = in_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      on_line(in_.substr(start, nl - start), at);
    }
    in_.erase(0, start);
  }
  return true;
}

bool run_conns(const std::vector<Conn*>& conns, double epoch,
               double deadline) {
  for (Conn* c : conns) c->start();
  std::vector<pollfd> fds(conns.size());
  std::vector<char> broken(conns.size(), 0);
  for (;;) {
    const double now = now_s() - epoch;
    double wait = 0.05;
    std::size_t active = 0;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = *conns[i];
      fds[i] = pollfd{};
      fds[i].fd = -1;  // poll skips it
      if (broken[i] != 0 || !c.step(now)) continue;
      ++active;
      wait = std::min(wait, c.idle_for(now));
      fds[i].fd = c.fd_;
      fds[i].events = c.events();
    }
    if (active == 0) break;
    if (now > deadline) return false;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec =
        static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      return false;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (fds[i].fd >= 0 && fds[i].revents != 0 &&
          !conns[i]->on_events(fds[i].revents, epoch)) {
        broken[i] = 1;
      }
    }
  }
  return std::none_of(broken.begin(), broken.end(),
                      [](char b) { return b != 0; });
}

}  // namespace perfbench
