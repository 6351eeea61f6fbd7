// Descriptive statistics used by the solvers, the adaptive parameter
// selection scheme, and the benchmark harnesses.
#pragma once

#include <cstddef>
#include <vector>

namespace lion::linalg {

/// Arithmetic mean; 0 for an empty input.
double mean(const std::vector<double>& v);

/// Population standard deviation; 0 for fewer than two samples.
double stddev(const std::vector<double>& v);

/// Population variance; 0 for fewer than two samples.
double variance(const std::vector<double>& v);

/// Median (average of middle two for even sizes). Throws on empty input.
double median(std::vector<double> v);

/// Median of [first, last), partially reordering the range in place (the
/// allocation-free form of median() for callers that own a scratch
/// buffer). Same selection, same result. Throws on an empty range.
double median_in_place(double* first, double* last);

/// Median of the n values at `values`, selected inside the caller's warm
/// bracket [lo, hi] (typically the previous IRLS round's median +- a few
/// percent of its MAD): one read-only pass counts the values below lo and
/// above hi and compacts the inside ones into `scratch`, and Floyd-Rivest
/// runs over just those. When the counts show a wanted rank outside the
/// bracket, counts `select.warm_misses` and falls back to median_in_place
/// over a copy in `scratch`. `values` is never written; `scratch` needs
/// room for n values. Same order statistic, same bits as median() for
/// any bracket. Throws on n == 0.
double warm_median(const double* values, std::size_t n, double lo, double hi,
                   double* scratch);

/// The same for the absolute deviations |values[i] - center|, computed on
/// the fly (the MAD of an IRLS round without an abs-deviation buffer).
double warm_abs_dev_median(const double* values, std::size_t n, double center,
                           double lo, double hi, double* scratch);

/// p-th percentile in [0, 100] with linear interpolation. Throws on empty
/// input or p outside [0, 100].
double percentile(std::vector<double> v, double p);

/// Min / max; throw on empty input.
double min_value(const std::vector<double>& v);
double max_value(const std::vector<double>& v);

/// Root mean square; 0 for an empty input.
double rms(const std::vector<double>& v);

/// One point of an empirical CDF.
struct CdfPoint {
  double value;     ///< sample value
  double fraction;  ///< fraction of samples <= value, in (0, 1]
};

/// Empirical CDF of the samples (sorted ascending).
std::vector<CdfPoint> empirical_cdf(std::vector<double> samples);

/// Summary bundle used by the bench harnesses.
struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

/// Compute all summary fields at once. Throws on empty input.
Summary summarize(const std::vector<double>& v);

}  // namespace lion::linalg
