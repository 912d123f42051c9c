// MetricsRegistry contract tests: exact counter totals under parallel
// writers, fixed-bucket histogram boundary behaviour, gauge idempotence,
// null-handle no-ops, and deterministic snapshot serialization.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "util/pipeline_scheduler.h"

namespace pinscope::obs {
namespace {

TEST(CounterTest, SumsExactlyUnderParallelWriters) {
  MetricsRegistry registry;
  // Handles are created once and shared — the hot path the pipeline uses.
  Counter counter = registry.counter("test.adds");
  constexpr std::size_t kItems = 10'000;

  util::PipelineOptions par;
  par.threads = 8;
  (void)util::RunPipeline(
      kItems, {{"add", [&](std::size_t i) { counter.Add(i % 3 == 0 ? 2 : 1); }}},
      par);

  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kItems; ++i) expected += i % 3 == 0 ? 2 : 1;
  EXPECT_EQ(registry.Snapshot().counters.at("test.adds"), expected);
}

TEST(CounterTest, HandlesForTheSameNameShareOneCell) {
  MetricsRegistry registry;
  registry.counter("shared").Increment();
  registry.counter("shared").Add(4);
  EXPECT_EQ(registry.Snapshot().counters.at("shared"), 5u);
}

TEST(CounterTest, NullHandleIsANoOp) {
  Counter null_counter;           // default-constructed = detached
  null_counter.Increment();       // must not crash
  null_counter.Add(100);
  Counter from_null = CounterOrNull(nullptr, "anything");
  from_null.Increment();
  Histogram null_histogram = HistogramOrNull(nullptr, "anything");
  null_histogram.Record(1.0);
  ScopedTimer null_timer;  // records nowhere on destruction
  SUCCEED();
}

TEST(GaugeTest, LastWriteWinsAndRepublishingIsIdempotent) {
  MetricsRegistry registry;
  registry.gauge("cache.x.entries").Set(10);
  registry.gauge("cache.x.entries").Set(7);
  EXPECT_EQ(registry.Snapshot().gauges.at("cache.x.entries"), 7u);
  // Re-publishing the same snapshot value (a second Run()) must not grow it.
  registry.gauge("cache.x.entries").Set(7);
  EXPECT_EQ(registry.Snapshot().gauges.at("cache.x.entries"), 7u);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  Histogram h = registry.histogram("test.h", {10.0, 20.0, 30.0});

  h.Record(5.0);    // ≤ 10 → bucket 0
  h.Record(10.0);   // boundary value lands in its own bucket (≤ 10)
  h.Record(10.5);   // bucket 1 (≤ 20)
  h.Record(20.0);   // bucket 1
  h.Record(29.999); // bucket 2 (≤ 30)
  h.Record(31.0);   // overflow bucket
  h.Record(1e9);    // overflow bucket

  const HistogramSnapshot snap = registry.Snapshot().histograms.at("test.h");
  ASSERT_EQ(snap.bounds, (std::vector<double>{10.0, 20.0, 30.0}));
  ASSERT_EQ(snap.buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 2u);
  EXPECT_EQ(snap.count, 7u);
  EXPECT_DOUBLE_EQ(snap.min, 5.0);
  EXPECT_DOUBLE_EQ(snap.max, 1e9);
}

TEST(HistogramTest, SumMinMaxMeanTrackRecordedValues) {
  MetricsRegistry registry;
  Histogram h = registry.histogram("test.stats", {100.0});
  h.Record(10.0);
  h.Record(30.0);
  h.Record(20.0);
  const HistogramSnapshot snap = registry.Snapshot().histograms.at("test.stats");
  EXPECT_DOUBLE_EQ(snap.sum, 60.0);
  EXPECT_DOUBLE_EQ(snap.min, 10.0);
  EXPECT_DOUBLE_EQ(snap.max, 30.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 20.0);
}

TEST(HistogramTest, EmptyHistogramSnapshotsAsZeros) {
  MetricsRegistry registry;
  (void)registry.histogram("test.empty");
  const HistogramSnapshot snap = registry.Snapshot().histograms.at("test.empty");
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
  // Default bounds: the µs duration ladder plus one overflow bucket.
  EXPECT_EQ(snap.buckets.size(),
            MetricsRegistry::DefaultDurationBoundsUs().size() + 1);
}

TEST(HistogramTest, QuantileOfAnEmptyHistogramIsZero) {
  MetricsRegistry registry;
  (void)registry.histogram("test.q_empty", {10.0, 100.0});
  const HistogramSnapshot snap =
      registry.Snapshot().histograms.at("test.q_empty");
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 0.0);
}

TEST(HistogramTest, QuantileOfASingleSampleClampsToThatValue) {
  MetricsRegistry registry;
  registry.histogram("test.q_one", {10.0, 100.0}).Record(42.0);
  const HistogramSnapshot snap =
      registry.Snapshot().histograms.at("test.q_one");
  // min == max == 42: interpolation inside the (10, 100] bucket would drift,
  // but the [min, max] clamp pins every quantile to the one observation.
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    SCOPED_TRACE(q);
    EXPECT_DOUBLE_EQ(snap.Quantile(q), 42.0);
  }
}

TEST(HistogramTest, QuantileWithEverySampleInOverflowStaysInRange) {
  MetricsRegistry registry;
  Histogram h = registry.histogram("test.q_over", {1.0, 2.0});
  h.Record(1000.0);
  h.Record(3000.0);
  h.Record(2000.0);
  const HistogramSnapshot snap =
      registry.Snapshot().histograms.at("test.q_over");
  // All mass beyond the last bound: the overflow bucket's upper edge is the
  // recorded max, and the estimate never leaves [min, max].
  for (const double q : {0.0, 0.5, 0.9, 1.0}) {
    SCOPED_TRACE(q);
    const double estimate = snap.Quantile(q);
    EXPECT_GE(estimate, 1000.0);
    EXPECT_LE(estimate, 3000.0);
  }
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 3000.0);
}

TEST(HistogramTest, CountsExactlyUnderParallelRecorders) {
  MetricsRegistry registry;
  Histogram h = registry.histogram("test.par", {0.5});
  constexpr std::size_t kItems = 8'000;
  util::PipelineOptions par;
  par.threads = 8;
  (void)util::RunPipeline(
      kItems, {{"record", [&](std::size_t i) { h.Record(i % 2 == 0 ? 0.0 : 1.0); }}},
      par);
  const HistogramSnapshot snap = registry.Snapshot().histograms.at("test.par");
  EXPECT_EQ(snap.count, kItems);
  EXPECT_EQ(snap.buckets[0], kItems / 2);
  EXPECT_EQ(snap.buckets[1], kItems / 2);
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(kItems) / 2);
}

TEST(ScopedTimerTest, RecordsOneSampleIntoItsHistogram) {
  MetricsRegistry registry;
  {
    ScopedTimer timer(registry.histogram("phase.x"));
  }
  const HistogramSnapshot snap = registry.Snapshot().histograms.at("phase.x");
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.sum, 0.0);
}

TEST(ScopedTimerTest, StopIsIdempotent) {
  MetricsRegistry registry;
  ScopedTimer timer(registry.histogram("phase.y"));
  timer.Stop();
  timer.Stop();  // second stop (and the destructor) must not record again
  EXPECT_EQ(registry.Snapshot().histograms.at("phase.y").count, 1u);
}

TEST(SnapshotTest, MapsAreNameSortedAndJsonIsDeterministic) {
  MetricsRegistry a;
  a.counter("zeta").Add(1);
  a.counter("alpha").Add(2);
  a.gauge("mid").Set(3);
  a.histogram("h", {1.0}).Record(0.5);

  // Same totals registered in a different order must serialize identically.
  MetricsRegistry b;
  b.histogram("h", {1.0}).Record(0.5);
  b.gauge("mid").Set(3);
  b.counter("alpha").Add(2);
  b.counter("zeta").Add(1);

  EXPECT_EQ(WriteMetricsJson(a.Snapshot()), WriteMetricsJson(b.Snapshot()));

  const MetricsSnapshot snap = a.Snapshot();
  std::vector<std::string> names;
  for (const auto& [name, _] : snap.counters) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(SnapshotTest, MetricsJsonContainsAllThreeSections) {
  MetricsRegistry registry;
  registry.counter("c").Add(7);
  registry.gauge("g").Set(9);
  registry.histogram("h", {10.0}).Record(3.0);
  const std::string json = WriteMetricsJson(registry.Snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"g\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);
}

TEST(SnapshotTest, PhaseBreakdownSelectsByPrefixAndReportsMillis) {
  MetricsRegistry registry;
  registry.histogram("phase.scan", {1e9}).Record(2'000.0);   // 2 ms in µs
  registry.histogram("phase.scan", {1e9}).Record(4'000.0);
  registry.histogram("other.h", {1e9}).Record(1.0);
  const std::string json = WritePhaseBreakdownJson(registry.Snapshot());
  EXPECT_NE(json.find("\"phase.scan\""), std::string::npos);
  EXPECT_EQ(json.find("other.h"), std::string::npos);
  EXPECT_NE(json.find("\"total_ms\": 6.000"), std::string::npos);
  EXPECT_NE(json.find("\"mean_ms\": 3.000"), std::string::npos);
}

TEST(SummaryTest, RendersCacheFamiliesPhasesAndCounters) {
  MetricsRegistry registry;
  registry.gauge("cache.scan.lookups").Set(100);
  registry.gauge("cache.scan.hits").Set(25);
  registry.gauge("cache.scan.entries").Set(75);
  registry.histogram("phase.static", {1e9}).Record(1'000.0);
  registry.counter("study.apps_analyzed").Add(12);
  const std::string summary = RenderSummary(registry.Snapshot());
  EXPECT_NE(summary.find("caches:"), std::string::npos);
  EXPECT_NE(summary.find("scan"), std::string::npos);
  EXPECT_NE(summary.find("25.0%"), std::string::npos);
  EXPECT_NE(summary.find("phases (wall time):"), std::string::npos);
  EXPECT_NE(summary.find("counters:"), std::string::npos);
  EXPECT_NE(summary.find("study.apps_analyzed"), std::string::npos);
}

TEST(SnapshotTest, OpenMetricsExportFollowsExpositionFormat) {
  MetricsRegistry registry;
  registry.counter("tls.handshakes").Add(7);
  registry.gauge("cache.scan.hits").Set(9);
  registry.histogram("phase.static", {10.0, 100.0}).Record(5.0);
  registry.histogram("phase.static", {10.0, 100.0}).Record(50.0);
  const std::string text = WriteMetricsOpenMetrics(registry.Snapshot());

  // Counter: sanitized name, _total suffix.
  EXPECT_NE(text.find("# TYPE pinscope_tls_handshakes counter\n"
                      "pinscope_tls_handshakes_total 7\n"),
            std::string::npos);
  // Gauge: sanitized name, bare value.
  EXPECT_NE(text.find("# TYPE pinscope_cache_scan_hits gauge\n"
                      "pinscope_cache_scan_hits 9\n"),
            std::string::npos);
  // Histogram: cumulative buckets plus the implicit +Inf, then sum/count.
  EXPECT_NE(text.find("# TYPE pinscope_phase_static histogram"),
            std::string::npos);
  EXPECT_NE(text.find("pinscope_phase_static_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("pinscope_phase_static_bucket{le=\"100\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("pinscope_phase_static_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("pinscope_phase_static_sum 55\n"), std::string::npos);
  EXPECT_NE(text.find("pinscope_phase_static_count 2\n"), std::string::npos);
  // The document terminator is last.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

}  // namespace
}  // namespace pinscope::obs
