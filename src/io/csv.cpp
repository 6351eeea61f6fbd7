#include "io/csv.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace lion::io {

namespace {

// The "C"-locale isspace set, without the locale lookup.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

std::string_view trim(std::string_view s) {
  std::size_t a = 0;
  std::size_t b = s.size();
  while (a < b && is_space(s[a])) ++a;
  while (b > a && is_space(s[b - 1])) --b;
  return s.substr(a, b - a);
}

// Splits exactly as std::getline(stream, field, ',') does: every comma
// ends a field, so ",," yields an empty field, but a trailing comma opens
// none. Views point into `line`.
void split_fields(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      if (start < line.size()) out.push_back(trim(line.substr(start)));
      return;
    }
    out.push_back(trim(line.substr(start, comma - start)));
    start = comma + 1;
  }
}

// A field of only '0', '.' and '-': from_chars and strtod both read it as
// an exact signed zero.
bool plain_zero(std::string_view s) {
  return std::all_of(s.begin(), s.end(),
                     [](char c) { return c == '0' || c == '.' || c == '-'; });
}

// std::stod's rule, which is the grammar: strtod over the NUL-terminated
// field must convert something, consume the whole field and not report
// ERANGE. So "nan"/"inf"/hex floats and a leading '+' keep parsing, and
// an embedded NUL ends the number early.
bool strtod_field(std::string_view s, double& out) {
  char stack[128];
  std::string heap;
  char* buf = stack;
  if (s.size() < sizeof stack) {
    std::memcpy(stack, s.data(), s.size());
    stack[s.size()] = '\0';
  } else {
    heap.assign(s);
    buf = heap.data();
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf, &end);
  if (end == buf || errno == ERANGE ||
      static_cast<std::size_t>(end - buf) != s.size()) {
    return false;
  }
  out = v;
  return true;
}

// from_chars and strtod both round correctly, so they agree wherever
// from_chars reads the whole field to a double of magnitude strictly
// between DBL_MIN and DBL_MAX (no ERANGE can arise there), or to a plain
// zero. Everything else (a leading '+', hex, inf/nan, a partial read,
// subnormals, underflow, overflow and the two boundary values) takes the
// strtod rule itself.
bool parse_double(std::string_view s, double& out) {
  const char* first = s.data();
  const char* last = first + s.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec == std::errc() && ptr == last) {
    const double mag = std::fabs(v);
    if ((mag > DBL_MIN && mag < DBL_MAX) || (v == 0.0 && plain_zero(s))) {
      out = v;
      return true;
    }
  }
  return strtod_field(s, out);
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

}  // namespace

void CsvStreamParser::reset() {
  layout_known_ = false;
  layout_ = Layout{};
  line_no_ = 0;
}

CsvStreamParser::Result CsvStreamParser::push_line(std::string_view line) {
  Result out;
  ++line_no_;
  const std::string_view stripped = trim(line);
  if (stripped.empty() || stripped[0] == '#') {
    out.status = CsvRowStatus::kSkipped;
    return out;
  }
  split_fields(stripped, fields_);
  const std::vector<std::string_view>& fields = fields_;

  if (!layout_known_) {
    // Header detection: any recognised column name makes this a header
    // row; a header must then name all four mandatory columns. A row with
    // no recognised names locks the positional layout and is itself data.
    bool any_name = false;
    Layout named;
    named.x = named.y = named.z = named.phase = -1;
    named.rssi = named.channel = named.t = -1;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const std::string f = lower(fields[i]);
      const int idx = static_cast<int>(i);
      if (f == "x") {
        named.x = idx;
        any_name = true;
      } else if (f == "y") {
        named.y = idx;
        any_name = true;
      } else if (f == "z") {
        named.z = idx;
        any_name = true;
      } else if (f == "phase" || f == "phase_rad") {
        named.phase = idx;
        any_name = true;
      } else if (f == "rssi" || f == "rssi_dbm") {
        named.rssi = idx;
        any_name = true;
      } else if (f == "channel") {
        named.channel = idx;
        any_name = true;
      } else if (f == "t" || f == "time" || f == "timestamp") {
        named.t = idx;
        any_name = true;
      }
    }
    if (any_name) {
      if (named.x < 0 || named.y < 0 || named.z < 0 || named.phase < 0) {
        out.status = CsvRowStatus::kError;
        out.error = "csv: header must name at least x, y, z and phase";
        return out;
      }
      layout_ = named;
      layout_known_ = true;
      out.status = CsvRowStatus::kHeader;
      return out;
    }
    // Positional: first four mandatory, extras in canonical order.
    Layout pos;
    pos.rssi = fields.size() > 4 ? 4 : -1;
    pos.channel = fields.size() > 5 ? 5 : -1;
    pos.t = fields.size() > 6 ? 6 : -1;
    layout_ = pos;
    layout_known_ = true;
  }

  // Every mandatory column must be in range: a named header may place x or
  // y above z/phase (e.g. "z,phase,x,y"), so checking only z and phase
  // would let a short row index out of bounds.
  const int max_required =
      std::max(std::max(layout_.x, layout_.y),
               std::max(layout_.z, layout_.phase));
  if (static_cast<int>(fields.size()) <= max_required) {
    out.status = CsvRowStatus::kError;
    out.error = "csv: too few columns on line " + std::to_string(line_no_);
    return out;
  }
  sim::PhaseSample s;
  auto parse_into = [&](int idx, double& dst) {
    const std::string_view f = fields[static_cast<std::size_t>(idx)];
    if (parse_double(f, dst)) return true;
    out.error = "csv: non-numeric field '" + std::string(f) + "' on line " +
                std::to_string(line_no_);
    return false;
  };
  double channel = 0.0;
  const bool parsed =
      parse_into(layout_.x, s.position[0]) &&
      parse_into(layout_.y, s.position[1]) &&
      parse_into(layout_.z, s.position[2]) &&
      parse_into(layout_.phase, s.phase) &&
      (layout_.rssi < 0 || static_cast<int>(fields.size()) <= layout_.rssi ||
       parse_into(layout_.rssi, s.rssi_dbm)) &&
      (layout_.channel < 0 ||
       static_cast<int>(fields.size()) <= layout_.channel ||
       parse_into(layout_.channel, channel)) &&
      (layout_.t < 0 || static_cast<int>(fields.size()) <= layout_.t ||
       parse_into(layout_.t, s.t));
  if (!parsed) {
    out.status = CsvRowStatus::kError;
    return out;
  }
  if (layout_.channel >= 0 &&
      static_cast<int>(fields.size()) > layout_.channel) {
    s.channel = static_cast<std::uint32_t>(channel);
  }
  out.status = CsvRowStatus::kSample;
  out.sample = s;
  return out;
}

std::vector<sim::PhaseSample> read_samples_csv(std::istream& in) {
  std::vector<sim::PhaseSample> out;
  CsvStreamParser parser;
  std::string line;
  while (std::getline(in, line)) {
    const auto row = parser.push_line(line);
    switch (row.status) {
      case CsvRowStatus::kSample:
        out.push_back(row.sample);
        break;
      case CsvRowStatus::kError:
        throw std::invalid_argument(row.error);
      case CsvRowStatus::kHeader:
      case CsvRowStatus::kSkipped:
        break;
    }
  }
  return out;
}

std::vector<sim::PhaseSample> read_samples_csv_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("csv: cannot open '" + path + "'");
  return read_samples_csv(f);
}

void write_samples_csv(std::ostream& out,
                       const std::vector<sim::PhaseSample>& samples) {
  out << "x,y,z,phase,rssi,channel,t\n";
  for (const auto& s : samples) {
    out << s.position[0] << ',' << s.position[1] << ',' << s.position[2]
        << ',' << s.phase << ',' << s.rssi_dbm << ',' << s.channel << ','
        << s.t << '\n';
  }
}

void write_samples_csv_file(const std::string& path,
                            const std::vector<sim::PhaseSample>& samples) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("csv: cannot open '" + path + "'");
  write_samples_csv(f, samples);
}

}  // namespace lion::io
