// Seeded malformed-input property tests for the two parsers on the serve
// ingest path: io::CsvStreamParser and the wire-line grammar/decoder.
// The property under test is totality — any byte sequence produces error
// statuses (never exceptions, never crashes) and the stream stays usable
// afterwards.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "io/csv.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"

namespace lion {
namespace {

// Deterministic 64-bit LCG (MMIX constants) — seeded, reproducible,
// no std::random_device anywhere near a test.
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
  }
  std::size_t below(std::size_t n) { return n ? next() % n : 0; }
  double unit() { return static_cast<double>(next() % 1000000) / 1e6; }
};

std::string make_valid_row(Lcg& rng) {
  return std::to_string(rng.unit()) + "," + std::to_string(rng.unit() - 0.5) +
         "," + std::to_string(rng.unit()) + "," +
         std::to_string(rng.unit() * 6.28);
}

// Mutate a valid row into something plausibly broken the way real reader
// gateways break: truncation, field corruption, NaN/Inf text, junk bytes.
std::string mutate_row(const std::string& row, Lcg& rng) {
  switch (rng.below(8)) {
    case 0:  // truncate mid-field
      return row.substr(0, rng.below(row.size()));
    case 1:  // drop a column
      return row.substr(0, row.rfind(','));
    case 2: {  // non-numeric field
      std::string r = row;
      r.replace(r.find(','), 1, ",abc");
      return r;
    }
    case 3:  // literal NaN text
      return "nan,nan,nan,nan";
    case 4:  // infinities
      return "inf,-inf,1,2";
    case 5:  // extra columns beyond the canonical seven
      return row + ",1,2,3,4,5";
    case 6: {  // embedded NUL-ish / control garbage
      std::string r = row;
      r.insert(rng.below(r.size()), "\x01\x02;");
      return r;
    }
    default:  // pure junk
      return "!!@@##$$";
  }
}

TEST(MalformedCsv, MutatedRowsNeverThrowAndStreamRecovers) {
  Lcg rng(20260806);
  io::CsvStreamParser parser;
  std::size_t errors = 0;
  std::size_t samples = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string valid = make_valid_row(rng);
    const bool corrupt = rng.below(2) == 0;
    const std::string line = corrupt ? mutate_row(valid, rng) : valid;
    io::CsvStreamParser::Result r;
    ASSERT_NO_THROW(r = parser.push_line(line)) << "line " << i << ": " << line;
    if (r.status == io::CsvRowStatus::kError) {
      EXPECT_FALSE(r.error.empty()) << line;
      ++errors;
    } else if (r.status == io::CsvRowStatus::kSample) {
      ++samples;
    }
    // A clean row directly after any outcome must parse: the parser's
    // layout state survives errors.
    const auto clean = parser.push_line(make_valid_row(rng));
    ASSERT_EQ(clean.status, io::CsvRowStatus::kSample)
        << "parser wedged after: " << line;
  }
  EXPECT_GT(errors, 100u);   // the mutator does produce broken rows
  EXPECT_GT(samples, 500u);  // and the clean half parses
}

TEST(MalformedCsv, PermutedHeaderShortRowIsErrorNotOutOfBounds) {
  // Header places x and y *above* z and phase: a short data row used to
  // pass a z/phase-only bounds check and index fields[] out of range.
  io::CsvStreamParser parser;
  ASSERT_EQ(parser.push_line("z,phase,x,y").status, io::CsvRowStatus::kHeader);
  const auto short_row = parser.push_line("1,2");
  ASSERT_EQ(short_row.status, io::CsvRowStatus::kError);
  EXPECT_NE(short_row.error.find("too few columns"), std::string::npos);
  EXPECT_EQ(parser.push_line("1,2,3").status, io::CsvRowStatus::kError);
  // A full-width row maps through the permuted layout and keeps parsing.
  const auto ok = parser.push_line("0.5,1.25,0.1,0.2");
  ASSERT_EQ(ok.status, io::CsvRowStatus::kSample);
  EXPECT_DOUBLE_EQ(ok.sample.position[0], 0.1);
  EXPECT_DOUBLE_EQ(ok.sample.position[1], 0.2);
  EXPECT_DOUBLE_EQ(ok.sample.position[2], 0.5);
  EXPECT_DOUBLE_EQ(ok.sample.phase, 1.25);
}

TEST(MalformedCsv, AllHeaderPermutationsRejectShortRows) {
  std::vector<std::string> names{"phase", "x", "y", "z"};  // sorted
  do {
    io::CsvStreamParser parser;
    const std::string header =
        names[0] + "," + names[1] + "," + names[2] + "," + names[3];
    ASSERT_EQ(parser.push_line(header).status, io::CsvRowStatus::kHeader)
        << header;
    std::string row;
    for (int width = 1; width <= 4; ++width) {
      if (!row.empty()) row += ',';
      row += std::to_string(width);
      const auto r = parser.push_line(row);
      if (width < 4) {
        ASSERT_EQ(r.status, io::CsvRowStatus::kError)
            << header << " / " << row;
      } else {
        ASSERT_EQ(r.status, io::CsvRowStatus::kSample)
            << header << " / " << row;
      }
    }
  } while (std::next_permutation(names.begin(), names.end()));
}

TEST(MalformedCsv, NonFiniteValuesAreHandledNotThrown) {
  // Whether "nan" parses as a (later-sanitized) sample or is rejected is a
  // policy choice; what is pinned here is that neither path throws and the
  // result is well-formed either way.
  io::CsvStreamParser parser;
  for (const char* row : {"nan,0,0,1", "0,inf,0,1", "0,0,-inf,1",
                          "1,2,3,nan", "1e999,0,0,1"}) {
    io::CsvStreamParser::Result r;
    ASSERT_NO_THROW(r = parser.push_line(row)) << row;
    if (r.status == io::CsvRowStatus::kError) {
      EXPECT_FALSE(r.error.empty()) << row;
    } else {
      ASSERT_EQ(r.status, io::CsvRowStatus::kSample) << row;
    }
  }
}

TEST(MalformedCsv, OutOfOrderTimestampsAreAcceptedAtParseLayer) {
  // Reordering is the sanitizer's job (core layer), not the parser's: rows
  // with non-monotonic t must parse fine so serve can buffer them.
  io::CsvStreamParser parser;
  EXPECT_EQ(parser.push_line("x,y,z,phase,rssi,channel,t").status,
            io::CsvRowStatus::kHeader);
  double ts[] = {5.0, 1.0, 3.0, 2.0};
  for (double t : ts) {
    const auto r = parser.push_line("0.1,0.2,0.3,1.5,-60,7," +
                                    std::to_string(t));
    ASSERT_EQ(r.status, io::CsvRowStatus::kSample) << t;
    EXPECT_DOUBLE_EQ(r.sample.t, t);
  }
}

TEST(MalformedWire, RandomLinesParseTotally) {
  Lcg rng(97);
  const std::string alphabet =
      "!@#{}\",:= abcdefghij0123456789.-+\\\t";
  for (int i = 0; i < 5000; ++i) {
    std::string line;
    const std::size_t len = rng.below(80);
    for (std::size_t j = 0; j < len; ++j) {
      line += alphabet[rng.below(alphabet.size())];
    }
    serve::ParsedLine p;
    ASSERT_NO_THROW(p = serve::parse_line(line)) << "line " << i << ": " << line;
    if (p.kind == serve::ParsedLine::kError) {
      EXPECT_FALSE(p.error.empty()) << line;
    }
  }
}

TEST(MalformedWire, RandomBytesThroughServiceNeverCrash) {
  Lcg rng(4242);
  std::vector<std::string> lines;
  serve::ServiceConfig cfg;
  cfg.max_line_bytes = 256;  // exercise the oversized/resync path too
  serve::StreamService service(
      cfg, [&lines](std::string_view l) { lines.emplace_back(l); });
  for (int i = 0; i < 200; ++i) {
    std::string chunk;
    const std::size_t len = 1 + rng.below(512);
    for (std::size_t j = 0; j < len; ++j) {
      // Bias toward newline so many (garbage) lines complete.
      chunk += (rng.below(20) == 0)
                   ? '\n'
                   : static_cast<char>(32 + rng.below(95));
    }
    ASSERT_NO_THROW(service.ingest_bytes(chunk));
  }
  ASSERT_NO_THROW(service.finish());
  // Garbage in, structured errors out — every response is a complete JSON
  // object, and the service survived to give a stats snapshot.
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"schema\":\"lion.error.v1\""), std::string::npos)
        << line;
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats[serve::ServeCounter::kErrors], lines.size());

  // The stream resyncs: a valid session + flush still works afterwards.
  std::size_t before = lines.size();
  service.ingest_bytes("!session ok center=0,0.8,0\n0.1,0.2,0.3,1\n!flush ok\n");
  service.finish();
  ASSERT_EQ(lines.size(), before + 1);
  EXPECT_NE(lines.back().find("\"schema\":\"lion.report.v1\""),
            std::string::npos);
}

TEST(MalformedWire, OversizedLinesAreCountedAndDropped) {
  Lcg rng(7);
  serve::ServiceConfig cfg;
  cfg.max_line_bytes = 64;
  std::vector<std::string> lines;
  serve::StreamService service(
      cfg, [&lines](std::string_view l) { lines.emplace_back(l); });
  service.ingest_line("!session a center=0,0.8,0");
  std::size_t oversized_sent = 0;
  for (int i = 0; i < 50; ++i) {
    if (rng.below(3) == 0) {
      service.ingest_bytes(std::string(65 + rng.below(400), 'x') + "\n");
      ++oversized_sent;
    } else {
      service.ingest_bytes("0.1,0.2,0.3,1.5\n");
    }
  }
  service.finish();
  EXPECT_EQ(service.stats()[serve::ServeCounter::kOversized], oversized_sent);
  std::size_t oversized_errors = 0;
  for (const auto& line : lines) {
    if (line.find("\"code\":\"oversized_line\"") != std::string::npos) {
      ++oversized_errors;
    }
  }
  EXPECT_EQ(oversized_errors, oversized_sent);
}

}  // namespace
}  // namespace lion
