#include "linalg/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace lion::linalg {
namespace {

TEST(Stats, MeanOfKnownValues) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_DOUBLE_EQ(mean({}), 0.0); }

TEST(Stats, VarianceAndStddev) {
  // Population variance of {2, 4, 4, 4, 5, 5, 7, 9} is 4.
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(variance(v), 4.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);
}

TEST(Stats, VarianceOfSingletonIsZero) {
  EXPECT_DOUBLE_EQ(variance({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, MedianSingleElement) { EXPECT_DOUBLE_EQ(median({7.0}), 7.0); }

TEST(Stats, MedianEmptyThrows) {
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, PercentileEndpointsAndMidpoint) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 30.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 9.0);
}

TEST(Stats, PercentileValidatesInput) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Stats, MinMax) {
  const std::vector<double> v{3.0, -1.0, 4.0, 1.5};
  EXPECT_DOUBLE_EQ(min_value(v), -1.0);
  EXPECT_DOUBLE_EQ(max_value(v), 4.0);
  EXPECT_THROW(min_value({}), std::invalid_argument);
  EXPECT_THROW(max_value({}), std::invalid_argument);
}

TEST(Stats, Rms) {
  EXPECT_DOUBLE_EQ(rms({3.0, 4.0}), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(rms({}), 0.0);
}

TEST(Stats, RmsOfConstantIsMagnitude) {
  EXPECT_DOUBLE_EQ(rms({-2.0, -2.0, -2.0}), 2.0);
}

TEST(Stats, EmpiricalCdfIsSortedAndEndsAtOne) {
  const auto cdf = empirical_cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3.0);
  EXPECT_NEAR(cdf[0].fraction, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(Stats, EmpiricalCdfEmpty) { EXPECT_TRUE(empirical_cdf({}).empty()); }

TEST(Stats, SummarizeBundlesAllFields) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p90, percentile(v, 90.0));
  EXPECT_EQ(s.count, 5u);
}

TEST(Stats, SummarizeEmptyThrows) {
  EXPECT_THROW(summarize({}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// median_in_place exactness. Above its bracketing threshold (2048 values)
// the routine selects inside a sample-chosen bracket, falling back to a
// whole-buffer selection when the bracket misses; either way it must return
// exactly (bit for bit) the median a full sort gives.
// ---------------------------------------------------------------------------

double sorted_median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_exact_median(std::vector<double> v, const std::string& what) {
  const double want = sorted_median(v);
  const double got = median_in_place(v.data(), v.data() + v.size());
  EXPECT_EQ(bits(got), bits(want))
      << what << " (n=" << v.size() << "): got " << got << ", want " << want;
}

/// Times the bracket missed (and the whole-buffer selection ran) while
/// `fn` executed.
template <typename Fn>
std::uint64_t bracket_misses_during(Fn&& fn) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::instance().reset();
  fn();
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  obs::set_metrics_enabled(false);
  for (const auto& [name, value] : snap.counters) {
    if (name == "select.bracket_misses") return value;
  }
  return 0;
}

TEST(MedianInPlace, MatchesSortAcrossTheBracketThreshold) {
  std::mt19937 rng(21);
  std::normal_distribution<double> noise(0.0, 1.0);
  for (std::size_t n : {1, 2, 3, 4, 255, 256, 2046, 2047, 2048, 2049, 2050,
                        4095, 4096, 8191, 8192, 20001}) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> v(n);
      for (auto& x : v) x = noise(rng);
      expect_exact_median(v, "gaussian");
      // Squared residuals: the LMedS score input (heavy right tail).
      for (auto& x : v) x = x * x * (rng() % 20 == 0 ? 900.0 : 1.0);
      expect_exact_median(v, "squared");
    }
  }
}

TEST(MedianInPlace, HeavyTiesAndConstantArrays) {
  std::mt19937 rng(22);
  for (std::size_t n : {2047, 2048, 2049, 5000, 5001}) {
    std::vector<double> v(n);
    for (auto& x : v) x = static_cast<double>(rng() % 4);
    expect_exact_median(v, "four distinct values");
    for (auto& x : v) x = static_cast<double>(rng() % 2);
    expect_exact_median(v, "two distinct values");
    expect_exact_median(std::vector<double>(n, 0.25), "constant");
    // A constant majority with a few values either side.
    std::vector<double> w(n, 3.0);
    for (std::size_t i = 0; i < n / 10; ++i) w[(i * 7919) % n] = -1.0;
    for (std::size_t i = 0; i < n / 10; ++i) w[(i * 104729 + 1) % n] = 9.0;
    expect_exact_median(w, "constant majority");
  }
}

TEST(MedianInPlace, StructuredOrderingsStayExact) {
  for (std::size_t n : {2048, 4097, 10000}) {
    std::vector<double> up(n);
    for (std::size_t i = 0; i < n; ++i) up[i] = static_cast<double>(i);
    expect_exact_median(up, "sorted");
    std::vector<double> down(up.rbegin(), up.rend());
    expect_exact_median(down, "reversed");
    for (std::size_t period : {2, 3, 7, 16, 64, 1000}) {
      std::vector<double> saw(n);
      for (std::size_t i = 0; i < n; ++i) {
        saw[i] = static_cast<double>(i % period);
      }
      expect_exact_median(saw, "sawtooth " + std::to_string(period));
    }
  }
}

TEST(MedianInPlace, BracketMissFallsBackToFullSelection) {
  // The sample is every 16th value of n = 4096 (offset 8). A sawtooth of
  // period 16 puts the same tooth value 8 at every sampled position, so
  // the bracket collapses to [8, 8] while half the buffer lies below it:
  // the bracket misses and the whole-buffer selection must answer.
  const std::size_t n = 4096;
  std::vector<double> saw(n);
  for (std::size_t i = 0; i < n; ++i) saw[i] = static_cast<double>(i % 16);
  // Sampled positions hold the maximum: the bracket sits above the median.
  std::vector<double> spikes(n + 1);
  for (std::size_t i = 0; i < spikes.size(); ++i) {
    spikes[i] = i % 16 == 8 ? 1e6 + static_cast<double>(i)
                            : static_cast<double>(i % 5);
  }
  // Sampled positions hold the minimum: the bracket sits below it.
  std::vector<double> dips(n);
  for (std::size_t i = 0; i < n; ++i) {
    dips[i] = i % 16 == 8 ? -1.0 - static_cast<double>(i)
                          : static_cast<double>(i);
  }
  for (const auto* v : {&saw, &spikes, &dips}) {
    EXPECT_EQ(bracket_misses_during([&] { expect_exact_median(*v, "miss"); }),
              1u)
        << "bracket did not miss for n=" << v->size();
  }
  // A random buffer of the same size takes the bracketed path.
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> calm(n);
  for (auto& x : calm) x = u(rng);
  EXPECT_EQ(bracket_misses_during([&] { expect_exact_median(calm, "calm"); }),
            0u);
}

// ---------------------------------------------------------------------------
// warm_median / warm_abs_dev_median exactness. An IRLS round selects its
// median and MAD inside a bracket around the previous round's; whatever
// the bracket, the result must be exactly (bit for bit) what a full sort
// gives, the input must stay untouched, and a bracket that misses a wanted
// rank must be counted in select.warm_misses.
// ---------------------------------------------------------------------------

/// Value of the counter `name` after `fn` ran on a freshly reset registry.
template <typename Fn>
std::uint64_t counter_during(const std::string& name, Fn&& fn) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::instance().reset();
  fn();
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  obs::set_metrics_enabled(false);
  for (const auto& [counter, value] : snap.counters) {
    if (counter == name) return value;
  }
  return 0;
}

std::vector<double> abs_devs(const std::vector<double>& v, double center) {
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::abs(v[i] - center);
  return out;
}

/// Checks both warm selections of `v` against a sort for the brackets
/// [lo, hi] (median) and [mad_lo, mad_hi] (MAD about the exact median),
/// and that neither wrote to `v`; returns the warm misses counted.
std::uint64_t expect_exact_warm(const std::vector<double>& v, double lo,
                                double hi, double mad_lo, double mad_hi,
                                const std::string& what) {
  return counter_during("select.warm_misses", [&] {
    const std::vector<double> before = v;
    std::vector<double> scratch(v.size());
    const double want = sorted_median(v);
    const double got = warm_median(v.data(), v.size(), lo, hi, scratch.data());
    EXPECT_EQ(bits(got), bits(want))
        << what << " median (n=" << v.size() << "): got " << got
        << ", want " << want;
    const double want_mad = sorted_median(abs_devs(v, want));
    const double got_mad = warm_abs_dev_median(v.data(), v.size(), want,
                                               mad_lo, mad_hi, scratch.data());
    EXPECT_EQ(bits(got_mad), bits(want_mad))
        << what << " MAD (n=" << v.size() << "): got " << got_mad
        << ", want " << want_mad;
    EXPECT_EQ(v, before) << what << ": input written";
  });
}

/// The exact median and raw MAD of `v`, by sorting.
std::pair<double, double> sorted_center_scale(const std::vector<double>& v) {
  const double med = sorted_median(v);
  return {med, sorted_median(abs_devs(v, med))};
}

constexpr std::size_t kWarmSizes[] = {1,    2,    3,    4,    255,  256,
                                      2047, 2048, 2049, 4096, 8191, 8192,
                                      20001};

TEST(WarmMedian, MatchesSortOnRandomData) {
  std::mt19937 rng(31);
  std::normal_distribution<double> noise(0.0, 1.0);
  for (const std::size_t n : kWarmSizes) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> v(n);
      for (auto& x : v) x = noise(rng) + (rng() % 10 == 0 ? 8.0 : 0.0);
      // The previous round's answers, from a slightly different fit.
      std::vector<double> prev = v;
      for (auto& x : prev) x += 1e-3 * noise(rng);
      const auto [med, mad] = sorted_center_scale(prev);
      const double h = 0.05 * mad;
      const std::uint64_t misses = expect_exact_warm(
          v, med - h, med + h, mad - h, mad + h, "previous round's bracket");
      // A few hundred values put the median's neighbours well inside +-5%
      // of the MAD; tiny n may miss, and must still be exact.
      if (n >= 2047) {
        EXPECT_EQ(misses, 0u) << "n=" << n;
      }
      // Wide, zero-width and inverted brackets: exact whatever they hold.
      expect_exact_warm(v, -1e300, 1e300, 0.0, 1e300, "everything inside");
      expect_exact_warm(v, med, med, mad, mad, "zero width");
      expect_exact_warm(v, med + h, med - h, mad + h, mad - h, "inverted");
    }
  }
}

TEST(WarmMedian, HeavyTiesAndConstantArrays) {
  std::mt19937 rng(32);
  for (const std::size_t n : kWarmSizes) {
    std::vector<double> v(n);
    for (auto& x : v) x = static_cast<double>(rng() % 4);
    auto [med, mad] = sorted_center_scale(v);
    expect_exact_warm(v, med, med, mad, mad, "four values");
    for (auto& x : v) x = static_cast<double>(rng() % 2);
    std::tie(med, mad) = sorted_center_scale(v);
    expect_exact_warm(v, med - 0.05, med + 0.05, mad - 0.05, mad + 0.05,
                      "two values");
    // Constant arrays: the median is the constant and the MAD is zero, so
    // a previous-round bracket of zero width sits exactly on both.
    const std::vector<double> flat(n, 0.25);
    EXPECT_EQ(expect_exact_warm(flat, 0.25, 0.25, 0.0, 0.0, "constant"), 0u);
    EXPECT_EQ(expect_exact_warm(flat, 0.2, 0.3, -0.01, 0.01, "constant"), 0u);
    // A constant majority with a few values either side.
    std::vector<double> w(n, 3.0);
    for (std::size_t i = 0; i < n / 10; ++i) w[(i * 7919) % n] = -1.0;
    for (std::size_t i = 0; i < n / 10; ++i) w[(i * 104729 + 1) % n] = 9.0;
    EXPECT_EQ(expect_exact_warm(w, 3.0, 3.0, 0.0, 0.0, "constant majority"),
              0u);
  }
}

TEST(WarmMedian, ForcedMissesOnEachSideFallBackExactly) {
  std::mt19937 rng(33);
  std::normal_distribution<double> noise(0.0, 1.0);
  for (const std::size_t n : {3, 4, 101, 102, 4096, 4097}) {
    std::vector<double> v(n);
    for (auto& x : v) x = noise(rng);
    const auto [med, mad] = sorted_center_scale(v);
    const double h = 0.05 * mad;
    SCOPED_TRACE("n=" + std::to_string(n));
    // Brackets wholly below / above the median and the MAD: each of the
    // two selections misses once.
    EXPECT_EQ(expect_exact_warm(v, med - 10.0, med - 9.0, 0.0, 0.1 * mad,
                                "below"),
              2u);
    EXPECT_EQ(expect_exact_warm(v, med + 9.0, med + 10.0, 2.0 * mad,
                                3.0 * mad, "above"),
              2u);
    // A hit for contrast (a handful of values may miss, exactly).
    const std::uint64_t misses =
        expect_exact_warm(v, med - h, med + h, mad - h, mad + h, "hit");
    if (n >= 101) {
      EXPECT_EQ(misses, 0u);
    }
  }
}

TEST(WarmMedian, EvenCountNeedsBothMiddleRanksInside) {
  // For even n the median averages ranks n/2 - 1 and n/2; a bracket whose
  // edge sits exactly on one of them holds it (the tests are strict), but
  // a bracket that stops short of the other must miss.
  std::mt19937 rng(34);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (const std::size_t n : {2, 10, 4096}) {
    std::vector<double> v(n);
    for (auto& x : v) x = u(rng);
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    const double left = sorted[n / 2 - 1];
    const double right = sorted[n / 2];
    SCOPED_TRACE("n=" + std::to_string(n));
    // The MAD bracket holds everything, so only the median can miss.
    EXPECT_EQ(expect_exact_warm(v, left, right, 0.0, 2.0, "both edges"), 0u);
    EXPECT_EQ(expect_exact_warm(v, left, left, 0.0, 2.0, "left only"), 1u);
    EXPECT_EQ(expect_exact_warm(v, right, right, 0.0, 2.0, "right only"), 1u);
  }
}

TEST(WarmMedian, EmptyInputThrows) {
  double scratch = 0.0;
  EXPECT_THROW(warm_median(nullptr, 0, 0.0, 1.0, &scratch),
               std::invalid_argument);
  EXPECT_THROW(warm_abs_dev_median(nullptr, 0, 0.0, 0.0, 1.0, &scratch),
               std::invalid_argument);
}

}  // namespace
}  // namespace lion::linalg
