#include "io/csv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace lion::io {
namespace {

TEST(Csv, ParsesHeaderlessCanonicalOrder) {
  std::istringstream in("0.1,0.2,0.3,1.5\n0.4,0.5,0.6,2.5\n");
  const auto s = read_samples_csv(in);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].position[0], 0.1);
  EXPECT_DOUBLE_EQ(s[0].position[2], 0.3);
  EXPECT_DOUBLE_EQ(s[0].phase, 1.5);
  EXPECT_DOUBLE_EQ(s[1].phase, 2.5);
  EXPECT_EQ(s[0].channel, 0u);
}

TEST(Csv, ParsesOptionalColumns) {
  std::istringstream in("0,0,0,1.0,-55.5,3,0.25\n");
  const auto s = read_samples_csv(in);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s[0].rssi_dbm, -55.5);
  EXPECT_EQ(s[0].channel, 3u);
  EXPECT_DOUBLE_EQ(s[0].t, 0.25);
}

TEST(Csv, ParsesNamedHeaderAnyOrder) {
  std::istringstream in(
      "phase,z,y,x,rssi\n"
      "1.25,0.3,0.2,0.1,-60\n");
  const auto s = read_samples_csv(in);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s[0].position[0], 0.1);
  EXPECT_DOUBLE_EQ(s[0].position[1], 0.2);
  EXPECT_DOUBLE_EQ(s[0].position[2], 0.3);
  EXPECT_DOUBLE_EQ(s[0].phase, 1.25);
  EXPECT_DOUBLE_EQ(s[0].rssi_dbm, -60.0);
}

TEST(Csv, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# reader log\n"
      "\n"
      "0,0,0,1.0\n"
      "  \n"
      "# mid-stream comment\n"
      "0,0,0,2.0\n");
  EXPECT_EQ(read_samples_csv(in).size(), 2u);
}

TEST(Csv, WhitespaceAroundFieldsTolerated) {
  std::istringstream in(" 0.1 , 0.2 ,0.3, 1.5 \n");
  const auto s = read_samples_csv(in);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s[0].position[1], 0.2);
}

TEST(Csv, RejectsNonNumericField) {
  std::istringstream in("0,0,zero,1.0\n");
  EXPECT_THROW(read_samples_csv(in), std::invalid_argument);
}

TEST(Csv, ErrorNamesLineNumber) {
  std::istringstream in("0,0,0,1.0\n0,0,0,bad\n");
  try {
    read_samples_csv(in);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Csv, RejectsTooFewColumns) {
  std::istringstream in("0,0,1.0\n");
  EXPECT_THROW(read_samples_csv(in), std::invalid_argument);
}

TEST(Csv, RejectsHeaderMissingMandatoryColumn) {
  std::istringstream in("x,y,phase\n0,0,1\n");
  EXPECT_THROW(read_samples_csv(in), std::invalid_argument);
}

TEST(Csv, EmptyStreamGivesNoSamples) {
  std::istringstream in("");
  EXPECT_TRUE(read_samples_csv(in).empty());
}

TEST(Csv, WriteReadRoundTrip) {
  std::vector<sim::PhaseSample> samples(3);
  samples[0].position = {0.1, 0.2, 0.3};
  samples[0].phase = 1.5;
  samples[0].rssi_dbm = -52.0;
  samples[0].channel = 7;
  samples[0].t = 0.125;
  samples[2].position = {-1.0, 2.0, -3.0};
  samples[2].phase = 6.0;

  std::ostringstream out;
  write_samples_csv(out, samples);
  std::istringstream in(out.str());
  const auto back = read_samples_csv(in);
  ASSERT_EQ(back.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].position[0], samples[i].position[0]);
    EXPECT_DOUBLE_EQ(back[i].position[1], samples[i].position[1]);
    EXPECT_DOUBLE_EQ(back[i].position[2], samples[i].position[2]);
    EXPECT_DOUBLE_EQ(back[i].phase, samples[i].phase);
    EXPECT_DOUBLE_EQ(back[i].rssi_dbm, samples[i].rssi_dbm);
    EXPECT_EQ(back[i].channel, samples[i].channel);
    EXPECT_DOUBLE_EQ(back[i].t, samples[i].t);
  }
}

TEST(Csv, FileHelpersThrowOnMissingPath) {
  EXPECT_THROW(read_samples_csv_file("/nonexistent/dir/x.csv"),
               std::runtime_error);
  EXPECT_THROW(
      write_samples_csv_file("/nonexistent/dir/x.csv", {}),
      std::runtime_error);
}

TEST(Csv, FileRoundTrip) {
  std::vector<sim::PhaseSample> samples(2);
  samples[1].position = {1.0, 2.0, 3.0};
  samples[1].phase = 0.5;
  const std::string path = "/tmp/lion_csv_roundtrip_test.csv";
  write_samples_csv_file(path, samples);
  const auto back = read_samples_csv_file(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_DOUBLE_EQ(back[1].position[2], 3.0);
}


// ---------------------------------------------------------------------------
// Differential suite: the one-pass parser against the stringstream/stod row
// grammar it replaced, kept here verbatim as the oracle.
// ---------------------------------------------------------------------------

class StodOracleParser {
 public:
  CsvStreamParser::Result push_line(std::string_view line) {
    CsvStreamParser::Result out;
    ++line_no_;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') {
      out.status = CsvRowStatus::kSkipped;
      return out;
    }
    const auto fields = split_fields(stripped);
    if (!layout_known_) {
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
      Layout pos;
      pos.rssi = fields.size() > 4 ? 4 : -1;
      pos.channel = fields.size() > 5 ? 5 : -1;
      pos.t = fields.size() > 6 ? 6 : -1;
      layout_ = pos;
      layout_known_ = true;
    }
    const int max_required = std::max(std::max(layout_.x, layout_.y),
                                      std::max(layout_.z, layout_.phase));
    if (static_cast<int>(fields.size()) <= max_required) {
      out.status = CsvRowStatus::kError;
      out.error = "csv: too few columns on line " + std::to_string(line_no_);
      return out;
    }
    sim::PhaseSample s;
    auto parse_into = [&](int idx, double& dst) {
      double v = 0.0;
      if (!parse_double(fields[static_cast<std::size_t>(idx)], line_no_, v,
                        out.error)) {
        return false;
      }
      dst = v;
      return true;
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

  void reset() {
    layout_known_ = false;
    layout_ = Layout{};
    line_no_ = 0;
  }

 private:
  struct Layout {
    int x = 0;
    int y = 1;
    int z = 2;
    int phase = 3;
    int rssi = 4;
    int channel = 5;
    int t = 6;
  };

  static std::string trim(std::string_view s) {
    std::size_t a = 0;
    std::size_t b = s.size();
    while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
    while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
    return std::string(s.substr(a, b - a));
  }

  static std::vector<std::string> split_fields(const std::string& line) {
    std::vector<std::string> out;
    std::string field;
    std::stringstream ss(line);
    while (std::getline(ss, field, ',')) out.push_back(trim(field));
    return out;
  }

  static bool parse_double(const std::string& s, std::size_t line_no,
                           double& out, std::string& error) {
    try {
      std::size_t used = 0;
      const double v = std::stod(s, &used);
      if (used != s.size()) throw std::invalid_argument("trailing characters");
      out = v;
      return true;
    } catch (const std::exception&) {
      error = "csv: non-numeric field '" + s + "' on line " +
              std::to_string(line_no);
      return false;
    }
  }

  static std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
  }

  bool layout_known_ = false;
  Layout layout_;
  std::size_t line_no_ = 0;
};

struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-42; }
};

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Tokens where from_chars and strtod part ways, or where the stod rule
/// has an edge: signs, hex, inf/nan spellings, subnormals and underflow,
/// overflow, the DBL_MIN/DBL_MAX boundaries, zeros, partial numbers and
/// header names.
const std::vector<std::string>& edge_tokens() {
  static const std::vector<std::string> tokens = [] {
    std::vector<std::string> t = {
      "+1.5", "+0", "-0", "0", "0.0", "-0.0", "+.5", ".5", "5.", "-.5",
      "00", "-00.000", "0e10", "0e-999", "-0e+5", "0x0", "1e", "e5", "1e+",
      "1e-", "--1", "+-1", "-+1", ".", "-.", "-", "+", "", "1.2.3", "1 2",
      "abc", "1,5", "inf", "-inf", "+inf", "INF", "Inf", "infinity",
      "-Infinity", "infin", "nan", "NaN", "-nan", "+nan", "NAN", "nan(123)",
      "nan()", "nan(abc)", "nanx", "0x1p-3", "0X1.8P+1",
      "-0x1.fffffffffffffp+1023", "0x1p-1074", "0x1p-1080", "0x1p+1024", "0x",
      "0xg", "0x.8", "1e-400", "-1e-400", "1e400", "-1e309", "1e308",
      "4.9e-324", "4.9406564584124654e-324",
      "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-320",
      "2.2250738585072009e-308", "2.2250738585072011e-308",
      "2.2250738585072012e-308", "2.2250738585072014e-308",
      "2.2250738585072016e-308", "-2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "-1.7976931348623157e308",
      "1.79769313486231580793728971405301e308", "9007199254740993",
      "0.1000000000000000055511151231257827", "123456789012345678901234567890",
      "1e23", "8.589973e9", "x", "Y", "z", "PHASE", "phase_rad", "rssi",
      "rssi_dbm", "channel", "t", "Time", "timestamp", "# not first"};
    // strtod stops at an embedded NUL, so these are partial reads.
    t.push_back(std::string("1\0", 2));
    t.push_back(std::string("1\0" "5", 3));
    t.push_back(std::string("\0", 1));
    return t;
  }();
  return tokens;
}

std::string random_number(Lcg& rng) {
  char buf[64];
  switch (rng.below(6)) {
    case 0: {  // any bit pattern: subnormals, inf, nan included
      const std::uint64_t b = (rng.next() << 21) ^ rng.next();
      double v = 0.0;
      std::memcpy(&v, &b, sizeof v);
      std::snprintf(buf, sizeof buf, "%.17g", v);
      break;
    }
    case 1:
      std::snprintf(buf, sizeof buf, "%.17g", (rng.unit() - 0.5) * 20.0);
      break;
    case 2:
      std::snprintf(buf, sizeof buf, "%.6g", (rng.unit() - 0.5) * 200.0);
      break;
    case 3:
      std::snprintf(buf, sizeof buf, "%a", (rng.unit() - 0.5) * 8.0);
      break;
    case 4:
      std::snprintf(buf, sizeof buf, "%.3e",
                    rng.unit() * std::pow(10.0, static_cast<double>(
                                                    rng.below(640)) - 330.0));
      break;
    default:
      std::snprintf(buf, sizeof buf, "%d",
                    static_cast<int>(rng.below(200)) - 50);
      break;
  }
  return buf;
}

void append_pad(Lcg& rng, std::string& out) {
  static const char kPad[] = {' ', '\t', '\r', '\v', '\f', '\n'};
  if (rng.below(4) != 0) return;
  const std::size_t n = 1 + rng.below(3);
  for (std::size_t i = 0; i < n; ++i) out.push_back(kPad[rng.below(6)]);
}

/// Line generator. Numbers come from a pre-printed pool so the million
/// lines cost string appends, not printf calls; edge tokens and byte noise
/// are mixed in at a rate that leaves most rows valid.
struct LineGen {
  Lcg rng;
  std::vector<std::string> numbers;

  explicit LineGen(std::uint64_t seed) : rng{seed} {
    numbers.reserve(1 << 16);
    for (std::size_t i = 0; i < (1 << 16); ++i) {
      numbers.push_back(random_number(rng));
    }
  }

  void append_field(std::string& out) {
    const auto& edges = edge_tokens();
    append_pad(rng, out);
    const std::size_t pick = rng.below(64);
    if (pick < 60) {
      out += numbers[rng.below(numbers.size())];
    } else if (pick < 63) {
      out += edges[rng.below(edges.size())];
    } else {
      // Raw byte noise, embedded NULs included.
      const std::size_t n = rng.below(6);
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(static_cast<char>(
            rng.below(2) ? rng.below(256) : "0.e-+x,n \0"[rng.below(10)]));
      }
    }
    append_pad(rng, out);
  }

  /// A header row: a shuffle of column names, sometimes missing a
  /// mandatory one or carrying an unknown one.
  std::string header() {
    std::vector<std::string> names = {"x", "y", "z", "phase", "rssi",
                                      "channel", "t"};
    static const char* kSpellings[] = {"X", "Phase_Rad", "RSSI_dBm",
                                       "time", "Timestamp", "extra"};
    for (std::size_t i = names.size(); i > 1; --i) {
      std::swap(names[i - 1], names[rng.below(i)]);
    }
    names.resize(3 + rng.below(5));
    if (rng.below(3) == 0) names.push_back(kSpellings[rng.below(6)]);
    std::string line;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) line += ",";
      append_pad(rng, line);
      line += names[i];
      append_pad(rng, line);
    }
    return line;
  }

  std::string line() {
    const std::size_t kind = rng.below(40);
    if (kind == 0) return "";
    if (kind < 3) return header();
    std::string out;
    append_pad(rng, out);
    // Mostly a full row; sometimes short or long.
    const std::size_t fields =
        rng.below(4) == 0 ? rng.below(10) : 4 + rng.below(4);
    for (std::size_t i = 0; i < fields; ++i) {
      if (i > 0) out += rng.below(25) == 0 ? ",," : ",";
      append_field(out);
    }
    if (rng.below(12) == 0) out += ",";
    if (rng.below(12) == 0) out += "\r";
    return out;
  }
};

bool same(const CsvStreamParser::Result& want,
          const CsvStreamParser::Result& got) {
  if (want.status != got.status || want.error != got.error) return false;
  if (want.status != CsvRowStatus::kSample) return true;
  const auto& a = want.sample;
  const auto& b = got.sample;
  return bits(a.position[0]) == bits(b.position[0]) &&
         bits(a.position[1]) == bits(b.position[1]) &&
         bits(a.position[2]) == bits(b.position[2]) &&
         bits(a.phase) == bits(b.phase) &&
         bits(a.rssi_dbm) == bits(b.rssi_dbm) && a.channel == b.channel &&
         bits(a.t) == bits(b.t);
}

void expect_same(const CsvStreamParser::Result& want,
                 const CsvStreamParser::Result& got, const std::string& line) {
  if (same(want, got)) return;
  ASSERT_EQ(static_cast<int>(want.status), static_cast<int>(got.status))
      << "line: '" << line << "'";
  ASSERT_EQ(want.error, got.error) << "line: '" << line << "'";
  if (want.status != CsvRowStatus::kSample) return;
  const auto& a = want.sample;
  const auto& b = got.sample;
  ASSERT_EQ(bits(a.position[0]), bits(b.position[0])) << line;
  ASSERT_EQ(bits(a.position[1]), bits(b.position[1])) << line;
  ASSERT_EQ(bits(a.position[2]), bits(b.position[2])) << line;
  ASSERT_EQ(bits(a.phase), bits(b.phase)) << line;
  ASSERT_EQ(bits(a.rssi_dbm), bits(b.rssi_dbm)) << line;
  ASSERT_EQ(a.channel, b.channel) << line;
  ASSERT_EQ(bits(a.t), bits(b.t)) << line;
}

TEST(CsvDifferential, EveryEdgeTokenInEveryColumnMatchesTheStodGrammar) {
  const auto& edges = edge_tokens();
  for (std::size_t col = 0; col < 7; ++col) {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      for (const char* pad : {"", " ", "\t"}) {
        std::string line;
        for (std::size_t c = 0; c < 7; ++c) {
          if (c > 0) line += ",";
          line += c == col ? pad + edges[e] + pad : std::string("0.25");
        }
        // Positional layout (locked by a first data row) and named layout.
        CsvStreamParser fast;
        StodOracleParser oracle;
        expect_same(oracle.push_line("1,2,3,4,5,6,7"),
                    fast.push_line("1,2,3,4,5,6,7"), "warm-up");
        expect_same(oracle.push_line(line), fast.push_line(line), line);
        CsvStreamParser fast_named;
        StodOracleParser oracle_named;
        expect_same(oracle_named.push_line(line), fast_named.push_line(line),
                    line);
      }
    }
  }
}

// One million fuzzed lines, in four seeded shards of 250k so the shards
// run in parallel under ctest (the oracle is the slow side).
class CsvFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CsvFuzz, MatchesTheStodGrammar) {
  LineGen gen(0x243f6a8885a308d3ULL + static_cast<std::uint64_t>(GetParam()));
  CsvStreamParser fast;
  StodOracleParser oracle;
  std::size_t samples = 0;
  std::size_t errors = 0;
  std::size_t headers = 0;
  std::size_t since_reset = 0;
  for (std::size_t i = 0; i < 250'000; ++i) {
    if (gen.rng.below(64) == 0) {
      // A fresh stream, so header detection keeps getting exercised.
      fast.reset();
      oracle.reset();
      since_reset = 0;
    }
    const std::string line =
        since_reset == 0 && gen.rng.below(2) == 0 ? gen.header() : gen.line();
    const auto want = oracle.push_line(line);
    const auto got = fast.push_line(line);
    if (!same(want, got)) {
      expect_same(want, got, line);
      return;
    }
    if (fast.line_number() != ++since_reset) {
      FAIL() << "line count drifted: " << fast.line_number() << " vs "
             << since_reset;
    }
    samples += want.status == CsvRowStatus::kSample;
    errors += want.status == CsvRowStatus::kError;
    headers += want.status == CsvRowStatus::kHeader;
  }
  // The generator must reach every branch, or the comparison proves little.
  EXPECT_GT(samples, 100'000u);
  EXPECT_GT(errors, 10'000u);
  EXPECT_GT(headers, 500u);
}

INSTANTIATE_TEST_SUITE_P(MillionLines, CsvFuzz, ::testing::Range(0, 4));

}  // namespace
}  // namespace lion::io
