// Metrics layer: HistogramData semantics (including the documented n < 3
// percentile behavior), registry registration rules, multi-threaded shard
// merging, snapshot determinism, and the runtime enable flag.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace lion::obs {
namespace {

TEST(HistogramData, RejectsBadBounds) {
  EXPECT_THROW(HistogramData(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(HistogramData({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(HistogramData({2.0, 1.0}), std::invalid_argument);
  EXPECT_NO_THROW(HistogramData({1.0, 2.0, 3.0}));
}

TEST(HistogramData, ExactMoments) {
  HistogramData h({1.0, 10.0, 100.0});
  h.record(0.5);
  h.record(5.0);
  h.record(50.0);
  h.record(500.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_DOUBLE_EQ(h.mean(), 555.5 / 4.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(HistogramData, PercentileEmptyIsZero) {
  HistogramData h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.0);
}

TEST(HistogramData, PercentileSingleSampleIsThatValue) {
  HistogramData h({1.0, 2.0, 4.0});
  h.record(1.7);
  for (double p : {0.0, 25.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 1.7) << "p=" << p;
  }
}

TEST(HistogramData, PercentileTwoSamplesInterpolatesWithinEnvelope) {
  HistogramData h({1.0, 2.0, 4.0, 8.0});
  h.record(1.5);
  h.record(6.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.5);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 6.0);
  const double p50 = h.percentile(50.0);
  EXPECT_GT(p50, 1.5);
  EXPECT_LT(p50, 6.0);
}

TEST(HistogramData, PercentileBoundedByBucketWidth) {
  HistogramData h(duration_bounds());
  for (int i = 1; i <= 1000; ++i) h.record(1e-3 * i);  // 1 ms .. 1 s
  // Each estimate must land within the bucket containing the true
  // quantile; duration bounds grow by 1.3x, so 35% relative slack.
  EXPECT_NEAR(h.percentile(50.0), 0.5, 0.5 * 0.35);
  EXPECT_NEAR(h.percentile(95.0), 0.95, 0.95 * 0.35);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 1.0);
}

TEST(HistogramData, MergeRequiresIdenticalBounds) {
  HistogramData a({1.0, 2.0});
  HistogramData b({1.0, 2.0});
  HistogramData c({1.0, 3.0});
  a.record(0.5);
  b.record(1.5);
  b.record(9.0);
  EXPECT_TRUE(a.merge(b));
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_FALSE(a.merge(c));
  EXPECT_EQ(a.count(), 3u);
}

TEST(HistogramData, FromPartsRoundTrips) {
  HistogramData h({1.0, 2.0});
  h.record(0.5);
  h.record(1.5);
  const auto r = HistogramData::from_parts(h.bounds(), h.buckets(), h.count(),
                                           h.sum(), h.min(), h.max());
  EXPECT_EQ(r.count(), h.count());
  EXPECT_DOUBLE_EQ(r.sum(), h.sum());
  EXPECT_EQ(r.buckets(), h.buckets());
}

TEST(BoundsPresets, StrictlyIncreasing) {
  for (const auto& bounds :
       {duration_bounds(), count_bounds(), fraction_bounds()}) {
    ASSERT_FALSE(bounds.empty());
    ASSERT_LE(bounds.size(), kMaxHistogramBuckets - 1);
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
}

TEST(MetricsRegistry, CounterRegistrationIsIdempotent) {
  MetricsRegistry reg;
  const MetricId a = reg.counter("a");
  const MetricId b = reg.counter("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.counter("a"), a);
}

TEST(MetricsRegistry, HistogramFirstRegistrationWins) {
  MetricsRegistry reg;
  const MetricId id = reg.histogram("h", {1.0, 2.0});
  EXPECT_EQ(reg.histogram("h", {5.0, 6.0, 7.0}), id);
  reg.record(id, 1.5);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.bounds(),
            (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistry, InvalidIdIsNoOp) {
  MetricsRegistry reg;
  reg.add(kInvalidMetric, 5);
  reg.record(kInvalidMetric, 1.0);
  const auto snap = reg.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(MetricsRegistry, SingleThreadAddAndRecord) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("jobs");
  const MetricId h = reg.histogram("lat", {1.0, 2.0});
  reg.add(c, 3);
  reg.add(c, 4);
  reg.record(h, 0.5);
  reg.record(h, 1.5);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 7u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count(), 2u);
}

TEST(MetricsRegistry, EightThreadMergeIsExact) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("ops");
  const MetricId h = reg.histogram("v", {0.25, 0.5, 0.75, 1.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, c, h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.add(c, 1);
        reg.record(h, (t % 4) * 0.25 + 0.1);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& hist = snap.histograms[0].second;
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Two threads per residue class, deterministic bucket totals.
  ASSERT_EQ(hist.buckets().size(), 5u);
  EXPECT_EQ(hist.buckets()[0], 2u * kPerThread);  // 0.10
  EXPECT_EQ(hist.buckets()[1], 2u * kPerThread);  // 0.35
  EXPECT_EQ(hist.buckets()[2], 2u * kPerThread);  // 0.60
  EXPECT_EQ(hist.buckets()[3], 2u * kPerThread);  // 0.85
  EXPECT_EQ(hist.buckets()[4], 0u);
  EXPECT_DOUBLE_EQ(hist.min(), 0.1);
  EXPECT_DOUBLE_EQ(hist.max(), 0.85);
}

TEST(MetricsRegistry, RetiredThreadShardsSurviveInSnapshot) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("n");
  {
    std::thread worker([&reg, c] { reg.add(c, 41); });
    worker.join();
  }
  reg.add(c, 1);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 42u);
}

TEST(MetricsRegistry, SnapshotJsonIsDeterministicAndSorted) {
  auto build = [] {
    MetricsRegistry reg;
    // Register out of lexicographic order on purpose.
    const MetricId b = reg.counter("zeta");
    const MetricId a = reg.counter("alpha");
    const MetricId h = reg.histogram("hist", {1.0, 2.0});
    reg.add(b, 2);
    reg.add(a, 1);
    reg.record(h, 1.5);
    return reg.snapshot_json();
  };
  const std::string one = build();
  EXPECT_EQ(one, build());
  EXPECT_NE(one.find("\"schema\":\"lion.metrics.v1\""), std::string::npos);
  EXPECT_LT(one.find("\"alpha\""), one.find("\"zeta\""));
  EXPECT_NE(one.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistry, ResetKeepsRegistrations) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("n");
  const MetricId h = reg.histogram("h", {1.0});
  reg.add(c, 9);
  reg.record(h, 0.5);
  reg.reset();
  auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 0u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count(), 0u);
  reg.add(c, 2);  // ids stay valid after reset
  snap = reg.snapshot();
  EXPECT_EQ(snap.counters[0].second, 2u);
}

TEST(MetricsRegistry, RegistrationCapThrows) {
  MetricsRegistry reg;
  for (std::size_t i = 0; i < kMaxCounters; ++i) {
    reg.counter(std::string("c").append(std::to_string(i)));
  }
  EXPECT_THROW(reg.counter("one-too-many"), std::length_error);
}

// The checked registration path: at the cap the registry degrades
// (kInvalidMetric, adds become no-ops) instead of throwing out of a
// daemon's instrumentation site. Regression for the macro layer, which
// routes through try_counter/try_histogram.
TEST(MetricsRegistry, TryRegisterPastCapDegrades) {
  MetricsRegistry reg;
  for (std::size_t i = 0; i < kMaxCounters; ++i) {
    ASSERT_NE(reg.try_counter(std::string("c").append(std::to_string(i))),
              kInvalidMetric);
  }
  const MetricId overflow = reg.try_counter("one-too-many");
  EXPECT_EQ(overflow, kInvalidMetric);
  EXPECT_NO_THROW(reg.add(overflow, 7));  // silently dropped

  // Existing registrations keep working and re-registration by name still
  // resolves to the live id.
  const MetricId c0 = reg.try_counter("c0");
  ASSERT_NE(c0, kInvalidMetric);
  reg.add(c0, 3);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), kMaxCounters);
  bool saw_c0 = false;
  for (const auto& [name, value] : snap.counters) {
    EXPECT_NE(name, "one-too-many");
    if (name == "c0") {
      saw_c0 = true;
      EXPECT_EQ(value, 3u);
    }
  }
  EXPECT_TRUE(saw_c0);
}

TEST(MetricsRegistry, TryHistogramDegradesOnCapAndBadBounds) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.try_histogram("bad", {}), kInvalidMetric);
  EXPECT_EQ(reg.try_histogram("bad2", {2.0, 1.0}), kInvalidMetric);
  for (std::size_t i = 0; i < kMaxHistograms; ++i) {
    ASSERT_NE(reg.try_histogram(std::string("h").append(std::to_string(i)),
                                {1.0, 2.0}),
              kInvalidMetric);
  }
  const MetricId overflow = reg.try_histogram("one-too-many", {1.0, 2.0});
  EXPECT_EQ(overflow, kInvalidMetric);
  EXPECT_NO_THROW(reg.record(overflow, 1.5));
  EXPECT_EQ(reg.snapshot().histograms.size(), kMaxHistograms);
}

TEST(ObsMacros, DisabledMacrosRecordNothing) {
  ASSERT_FALSE(metrics_enabled());
  LION_OBS_COUNT("test.disabled_counter", 1);
  LION_OBS_HIST("test.disabled_hist", fraction_bounds(), 0.5);
  const auto snap = MetricsRegistry::instance().snapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_NE(name, "test.disabled_counter");
  }
  for (const auto& [name, hist] : snap.histograms) {
    EXPECT_NE(name, "test.disabled_hist");
  }
}

TEST(ObsMacros, EnabledMacrosRecordIntoSingleton) {
  set_metrics_enabled(true);
  MetricsRegistry::instance().reset();
  LION_OBS_COUNT("test.enabled_counter", 3);
  LION_OBS_HIST("test.enabled_hist", fraction_bounds(), 0.5);
  { LION_OBS_SPAN(Stage::kUnwrap); }
  const auto snap = MetricsRegistry::instance().snapshot();
  set_metrics_enabled(false);

  std::uint64_t counter = 0;
  bool hist_seen = false;
  std::uint64_t unwrap_count = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.enabled_counter") counter = value;
  }
  for (const auto& [name, hist] : snap.histograms) {
    if (name == "test.enabled_hist") hist_seen = hist.count() == 1;
    if (name == std::string("stage.") + stage_name(Stage::kUnwrap) +
                    ".seconds") {
      unwrap_count = hist.count();
    }
  }
  EXPECT_EQ(counter, 3u);
  EXPECT_TRUE(hist_seen);
  EXPECT_EQ(unwrap_count, 1u);
}

TEST(PipelineSchema, EnableRegistersEveryStageHistogram) {
  set_metrics_enabled(true);
  const auto snap = MetricsRegistry::instance().snapshot();
  set_metrics_enabled(false);
  for (std::size_t s = 0; s < static_cast<std::size_t>(Stage::kCount); ++s) {
    const std::string want = std::string("stage.") +
                             stage_name(static_cast<Stage>(s)) + ".seconds";
    bool found = false;
    for (const auto& [name, hist] : snap.histograms) {
      if (name == want) found = true;
    }
    EXPECT_TRUE(found) << want;
  }
  for (const char* want :
       {"engine.jobs", "engine.steals", "engine.exceptions", "radical.rows",
        "ransac.iterations", "select.bracket_misses", "select.warm_misses"}) {
    bool found = false;
    for (const auto& [name, value] : snap.counters) {
      if (name == want) found = true;
    }
    EXPECT_TRUE(found) << want;
  }
}

}  // namespace
}  // namespace lion::obs
