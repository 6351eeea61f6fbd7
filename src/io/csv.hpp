// CSV interchange for phase-sample streams.
//
// Real deployments log reader output as CSV; this module reads and writes
// the library's canonical column set so the CLI (and user scripts) can run
// LION without touching C++:
//
//     x,y,z,phase[,rssi[,channel[,t]]]
//
// with positions in metres, phase in radians (wrapped or unwrapped — the
// preprocessing handles both), RSSI in dBm, channel as an integer index,
// and t in seconds. A header row naming the columns is accepted in any
// order; without a header the first four (or more) columns are taken in
// canonical order.
//
// Two entry points share one row grammar:
//   - read_samples_csv(istream): whole-stream convenience, throws on the
//     first malformed row (scripts want loud failures);
//   - CsvStreamParser: incremental and *non-throwing* — one line in, one
//     status out. This is the parser the streaming service feeds network
//     bytes into, where a malformed row must become an error response,
//     never an exception unwinding a server thread.
//
// Row grammar, decoded in one pass without heap allocation once the
// layout is locked (journal replay and live ingest feed every row through
// it):
//   - the line is trimmed of "C"-locale whitespace; empty and '#' lines
//     are skipped;
//   - fields split exactly as std::getline(stream, field, ',') splits:
//     ",," yields an empty field, a trailing ',' opens none; each field is
//     trimmed in place (string_views into the line, kept in reused
//     storage);
//   - a number is what std::stod accepts: strtod over the NUL-terminated
//     field converts something, consumes the whole field and reports no
//     ERANGE. std::from_chars decides the common case. Wherever the two
//     can disagree (a leading '+', hex, inf/nan, a partial read, and any
//     result that is not strictly between DBL_MIN and DBL_MAX in
//     magnitude, unless the field is a plain zero) the field is re-read by
//     strtod from a stack copy, so the accepted set, the error text and
//     the sample bits are those of the stod rule.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/reader.hpp"

namespace lion::io {

/// Outcome of feeding one line to CsvStreamParser.
enum class CsvRowStatus {
  kSample,   ///< the line parsed into `sample`
  kHeader,   ///< the line was a column-naming header (consumed)
  kSkipped,  ///< blank line or '#' comment (ignored)
  kError,    ///< malformed; `error` carries the detail, stream continues
};

/// Incremental, non-throwing parser over the canonical CSV row grammar.
///
/// Layout state (header detection happens on the first content line) is
/// carried across calls, so a stream chunked at arbitrary line boundaries
/// parses identically to a whole-file read — the serve path's
/// stream-vs-batch conformance depends on this. After a kError row the
/// parser stays usable: layout (if already locked) is kept and the next
/// line is parsed normally.
class CsvStreamParser {
 public:
  struct Result {
    CsvRowStatus status = CsvRowStatus::kSkipped;
    sim::PhaseSample sample;  ///< valid when status == kSample
    std::string error;        ///< valid when status == kError
  };

  /// Parse one line (without its trailing newline; a trailing '\r' is
  /// tolerated). Never throws.
  Result push_line(std::string_view line);

  /// Lines seen so far (for error messages; counts every push_line call).
  std::size_t line_number() const { return line_no_; }

  /// Forget layout and line count (fresh stream).
  void reset();

 private:
  // Column order; -1 means "not present".
  struct Layout {
    int x = 0;
    int y = 1;
    int z = 2;
    int phase = 3;
    int rssi = 4;
    int channel = 5;
    int t = 6;
  };

  bool layout_known_ = false;
  Layout layout_;
  std::size_t line_no_ = 0;
  std::vector<std::string_view> fields_;  ///< current row's fields (reused)
};

/// Parse a CSV stream of phase samples.
///
/// Skips blank lines and lines starting with '#'. Throws
/// std::invalid_argument on malformed rows (wrong column count,
/// non-numeric fields) with the line number in the message.
std::vector<sim::PhaseSample> read_samples_csv(std::istream& in);

/// Convenience: parse from a file path. Throws std::runtime_error when the
/// file cannot be opened.
std::vector<sim::PhaseSample> read_samples_csv_file(const std::string& path);

/// Write samples with the canonical header (x,y,z,phase,rssi,channel,t).
void write_samples_csv(std::ostream& out,
                       const std::vector<sim::PhaseSample>& samples);

/// Convenience: write to a file path. Throws std::runtime_error when the
/// file cannot be opened.
void write_samples_csv_file(const std::string& path,
                            const std::vector<sim::PhaseSample>& samples);

}  // namespace lion::io
