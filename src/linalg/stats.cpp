#include "linalg/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/obs.hpp"

namespace lion::linalg {

namespace {

// Floyd-Rivest selection (CACM Algorithm 489): place the k-th smallest
// element at a[k] with everything left of k no larger and everything
// right of k no smaller — the same postcondition as std::nth_element,
// reached with ~1.5n comparisons instead of introselect's ~3n. The k-th
// order statistic of a finite multiset is a single well-defined double,
// so swapping the selection algorithm cannot change any downstream
// value; median_in_place runs it over small buffers, inside a sampled
// bracket, and as the fallback when the bracket misses. Two caveats shared with nth_element: input must be
// NaN-free (callers feed sanitized residuals), and when elements compare
// equal but differ in bits (only possible for +0.0 vs -0.0) *which* of
// them lands at position k is arbitrary — the solver paths never produce
// -0.0 (sums start at +0.0 and squares/abs are non-negative), so the
// selected bits are reproducible there.
void floyd_rivest_select(double* a, std::ptrdiff_t left, std::ptrdiff_t right,
                         std::ptrdiff_t k) {
  while (right > left) {
    if (right - left > 600) {
      // Select within a small sample around k first, so the main
      // partition below runs against a near-optimal pivot.
      const double n = static_cast<double>(right - left + 1);
      const double i = static_cast<double>(k - left + 1);
      const double z = std::log(n);
      const double s = 0.5 * std::exp(2.0 * z / 3.0);
      const double sd = 0.5 * std::sqrt(z * s * (n - s) / n) *
                        (i - n / 2.0 < 0.0 ? -1.0 : 1.0);
      const auto new_left = std::max(
          left, static_cast<std::ptrdiff_t>(
                    static_cast<double>(k) - i * s / n + sd));
      const auto new_right = std::min(
          right, static_cast<std::ptrdiff_t>(
                     static_cast<double>(k) + (n - i) * s / n + sd));
      floyd_rivest_select(a, new_left, new_right, k);
    }
    const double t = a[k];
    std::ptrdiff_t i = left;
    std::ptrdiff_t j = right;
    std::swap(a[left], a[k]);
    if (a[right] > t) std::swap(a[right], a[left]);
    while (i < j) {
      std::swap(a[i], a[j]);
      ++i;
      --j;
      while (a[i] < t) ++i;
      while (a[j] > t) --j;
    }
    if (a[left] == t) {
      std::swap(a[left], a[j]);
    } else {
      ++j;
      std::swap(a[j], a[right]);
    }
    if (j <= k) left = j + 1;
    if (k <= j) right = j - 1;
  }
}

// Bracketed selection for median_in_place. Above kBracketMinSize values
// a full Floyd-Rivest pass over the buffer costs more than (1) bracketing
// the wanted rank(s) between two values of a fixed strided sample, (2)
// one read-only pass counting the values below and above the bracket,
// (3) one branchless pass compacting the inside values to the front, and
// (4) selecting within the compacted ~2 * kBracketHalfWidth /
// kBracketSample fraction. When the count shows the bracket missed a wanted rank, the
// buffer is still intact (only the count pass has run) and the selection
// runs over all of it instead. Either way the value returned is the same
// order statistic of the same multiset.
constexpr std::size_t kBracketMinSize = 2048;
constexpr std::size_t kBracketSample = 256;
constexpr std::size_t kBracketHalfWidth = 20;

struct Bracket {
  double lo;
  double hi;
};

// Bracket around ranks [k_lo, k_hi] of the n >= kBracketMinSize values at
// `a`: the sample values kBracketHalfWidth sample ranks below k_lo's and
// above k_hi's expected sample rank.
Bracket sample_bracket(const double* a, std::size_t n, std::size_t k_lo,
                       std::size_t k_hi) {
  double sample[kBracketSample];
  const std::size_t stride = n / kBracketSample;
  for (std::size_t s = 0; s < kBracketSample; ++s) {
    sample[s] = a[s * stride + stride / 2];
  }
  const std::size_t at_lo = k_lo * kBracketSample / n;
  const std::size_t at_hi = k_hi * kBracketSample / n;
  const std::size_t j_lo =
      at_lo > kBracketHalfWidth ? at_lo - kBracketHalfWidth : 0;
  const std::size_t j_hi =
      std::min(at_hi + kBracketHalfWidth, kBracketSample - 1);
  constexpr auto last = static_cast<std::ptrdiff_t>(kBracketSample) - 1;
  floyd_rivest_select(sample, 0, last, static_cast<std::ptrdiff_t>(j_lo));
  const double lo = sample[j_lo];
  // Everything right of j_lo is >= lo; the second select may reorder it.
  floyd_rivest_select(sample, static_cast<std::ptrdiff_t>(j_lo) + 1, last,
                      static_cast<std::ptrdiff_t>(j_hi));
  return {lo, sample[j_hi]};
}

// The count pass: values strictly below br.lo and strictly above br.hi.
// Two lanes at a time through the GCC/Clang vector extension — the
// auto-vectorizer leaves a compare-and-count loop scalar on baseline
// x86-64, where this pass would otherwise cost as much as the selection
// it saves. A lane compare yields -1 (true) or 0, so each lane counts down.
void count_outside(const double* a, std::size_t n, const Bracket& br,
                   std::size_t& below, std::size_t& above) {
  using V2d = double __attribute__((vector_size(16)));
  using V2l = long long __attribute__((vector_size(16)));
  const V2d lo = {br.lo, br.lo};
  const V2d hi = {br.hi, br.hi};
  V2l under = {0, 0};
  V2l over = {0, 0};
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    V2d v;
    std::memcpy(&v, a + i, sizeof v);
    under += v < lo;
    over += v > hi;
  }
  below = static_cast<std::size_t>(-(under[0] + under[1]));
  above = static_cast<std::size_t>(-(over[0] + over[1]));
  for (; i < n; ++i) {
    below += static_cast<std::size_t>(a[i] < br.lo);
    above += static_cast<std::size_t>(a[i] > br.hi);
  }
}

// Whether a bracket with `below` values under it and `above` over it
// holds both ranks the median of n values needs: mid alone (odd n), mid -
// 1 and mid (even n).
bool bracket_holds_median(std::size_t n, std::size_t below,
                          std::size_t above) {
  const std::size_t mid = n / 2;
  const std::size_t k_lo = n % 2 == 1 ? mid : mid - 1;
  return below <= k_lo && above < n - mid;
}

// The median of n values from the m of them at `inside` (reordered): the
// values a bracket kept, with `below` values under it and the median's
// ranks inside (m == n, below == 0 for the whole buffer).
double median_of_inside(double* inside, std::size_t m, std::size_t n,
                        std::size_t below) {
  // Within [inside, inside + m) the wanted ranks sit `below` lower.
  const std::size_t k = n / 2 - below;
  floyd_rivest_select(inside, 0, static_cast<std::ptrdiff_t>(m) - 1,
                      static_cast<std::ptrdiff_t>(k));
  const double hi = inside[k];
  if (n % 2 == 1) return hi;
  const double lo =
      *std::max_element(inside, inside + static_cast<std::ptrdiff_t>(k));
  return 0.5 * (lo + hi);
}

// The warm-bracket selection behind warm_median / warm_abs_dev_median:
// the median of value_of(values[i]) over i < n. One pass computes each
// value once, counts it below/above the bracket and compacts the inside
// ones to the front of `scratch`. Four values a step through the two-lane
// vector extension (as count_outside): a warm bracket keeps a few percent
// of the values, so most steps hold none and skip the stores on one
// well-predicted branch; a step that holds some stores all four, moving
// the cursor only past the inside ones. On a miss `values` is still
// untouched, and the values are materialized into scratch for the
// whole-buffer median_in_place.
template <class ValueOf>
double warm_select(const double* values, std::size_t n, ValueOf value_of,
                   const Bracket& br, double* scratch) {
  if (n == 0) throw std::invalid_argument("median: empty input");
  using V2d = double __attribute__((vector_size(16)));
  using V2l = long long __attribute__((vector_size(16)));
  const V2d lo = {br.lo, br.lo};
  const V2d hi = {br.hi, br.hi};
  V2l under = {0, 0};
  V2l over = {0, 0};
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const V2d v = {value_of(values[i]), value_of(values[i + 1])};
    const V2d w = {value_of(values[i + 2]), value_of(values[i + 3])};
    const V2l v_under = v < lo;
    const V2l v_over = v > hi;
    const V2l w_under = w < lo;
    const V2l w_over = w > hi;
    under += v_under + w_under;
    over += v_over + w_over;
    // Lanes are -1 (true) or 0, so the inside masks count the cursor up.
    const V2l v_in = ~(v_under | v_over);
    const V2l w_in = ~(w_under | w_over);
    const V2l any = v_in | w_in;
    if (any[0] | any[1]) {
      scratch[m] = v[0];
      m -= static_cast<std::size_t>(v_in[0]);
      scratch[m] = v[1];
      m -= static_cast<std::size_t>(v_in[1]);
      scratch[m] = w[0];
      m -= static_cast<std::size_t>(w_in[0]);
      scratch[m] = w[1];
      m -= static_cast<std::size_t>(w_in[1]);
    }
  }
  std::size_t below = static_cast<std::size_t>(-(under[0] + under[1]));
  std::size_t above = static_cast<std::size_t>(-(over[0] + over[1]));
  for (; i < n; ++i) {
    const double v = value_of(values[i]);
    scratch[m] = v;
    const bool v_under = v < br.lo;
    const bool v_over = v > br.hi;
    below += static_cast<std::size_t>(v_under);
    above += static_cast<std::size_t>(v_over);
    m += static_cast<std::size_t>(!v_under & !v_over);
  }
  if (bracket_holds_median(n, below, above)) {
    return median_of_inside(scratch, m, n, below);
  }
  LION_OBS_COUNT("select.warm_misses", 1);
  for (std::size_t k = 0; k < n; ++k) scratch[k] = value_of(values[k]);
  return median_in_place(scratch, scratch + n);
}

}  // namespace

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double stddev(const std::vector<double>& v) { return std::sqrt(variance(v)); }

double median(std::vector<double> v) {
  return median_in_place(v.data(), v.data() + v.size());
}

double median_in_place(double* first, double* last) {
  if (first == last) throw std::invalid_argument("median: empty input");
  const auto n = static_cast<std::size_t>(last - first);
  std::size_t below = 0;
  std::size_t m = n;
  if (n >= kBracketMinSize) {
    const std::size_t mid = n / 2;
    const Bracket br =
        sample_bracket(first, n, n % 2 == 1 ? mid : mid - 1, mid);
    std::size_t above = 0;
    count_outside(first, n, br, below, above);
    if (bracket_holds_median(n, below, above)) {
      m = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double v = first[i];
        first[m] = v;
        // The complement of the count pass's tests, so m == n - below -
        // above whatever the input.
        m += static_cast<std::size_t>(!(v < br.lo) & !(v > br.hi));
      }
    } else {
      LION_OBS_COUNT("select.bracket_misses", 1);
      below = 0;
    }
  }
  return median_of_inside(first, m, n, below);
}

double warm_median(const double* values, std::size_t n, double lo, double hi,
                   double* scratch) {
  return warm_select(values, n, [](double v) { return v; }, {lo, hi},
                     scratch);
}

double warm_abs_dev_median(const double* values, std::size_t n, double center,
                           double lo, double hi, double* scratch) {
  return warm_select(
      values, n, [center](double v) { return std::abs(v - center); },
      {lo, hi}, scratch);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile: p outside [0, 100]");
  }
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const auto hi = static_cast<std::size_t>(std::ceil(idx));
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double min_value(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("min_value: empty input");
  return *std::min_element(v.begin(), v.end());
}

double max_value(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("max_value: empty input");
  return *std::max_element(v.begin(), v.end());
}

double rms(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s / static_cast<double>(v.size()));
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  std::vector<CdfPoint> cdf;
  cdf.reserve(samples.size());
  const double n = static_cast<double>(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    cdf.push_back({samples[i], static_cast<double>(i + 1) / n});
  }
  return cdf;
}

Summary summarize(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("summarize: empty input");
  Summary s;
  s.mean = mean(v);
  s.stddev = stddev(v);
  s.median = median(v);
  s.p90 = percentile(v, 90.0);
  s.min = min_value(v);
  s.max = max_value(v);
  s.count = v.size();
  return s;
}

}  // namespace lion::linalg
