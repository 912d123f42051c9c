// Unit suite for the live-run telemetry sampler (obs/telemetry.h) and the
// log2-percentile machinery it leans on (obs/metrics.h Quantile): flag
// parsing, bounded flight-recorder ring, watchdog fire-exactly-once + re-arm,
// heartbeat monotonicity, atomic live-metrics refresh, straggler ordering,
// and the one-octave quantile error bound. Every test drives Tick() manually
// (interval_ms = 0, the documented manual mode) so tick counts are exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/process.h"
#include "obs/telemetry.h"

namespace pinscope::obs {
namespace {

std::filesystem::path TempPath(const std::string& name) {
  return std::filesystem::temp_directory_path() / ("pinscope_telemetry_" + name);
}

std::string Slurp(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

TelemetryOptions ManualOptions() {
  TelemetryOptions opts;
  opts.interval_ms = 0;  // manual mode: the test owns every Tick()
  return opts;
}

TEST(ParseProgressModeTest, AcceptsExactlyTheDocumentedSpellings) {
  EXPECT_EQ(ParseProgressMode("off"), ProgressMode::kOff);
  EXPECT_EQ(ParseProgressMode("plain"), ProgressMode::kPlain);
  EXPECT_EQ(ParseProgressMode("tty"), ProgressMode::kTty);
  EXPECT_FALSE(ParseProgressMode("").has_value());
  EXPECT_FALSE(ParseProgressMode("Plain").has_value());
  EXPECT_FALSE(ParseProgressMode("bar").has_value());
}

TEST(TelemetryKeyTest, PlatformRankAndIndexNeverCollide) {
  EXPECT_NE(TelemetryKey(0, 5), TelemetryKey(1, 5));
  EXPECT_NE(TelemetryKey(0, 5), TelemetryKey(0, 6));
  EXPECT_EQ(TelemetryKey(1, 7), (std::uint64_t{1} << 48) | 7u);
}

TEST(Log2BoundsTest, PowersOfTwoFrom16UsToOneMinute) {
  const std::vector<double>& bounds = MetricsRegistry::Log2DurationBoundsUs();
  ASSERT_EQ(bounds.size(), 23u);  // 2^4 .. 2^26
  EXPECT_DOUBLE_EQ(bounds.front(), 16.0);
  EXPECT_DOUBLE_EQ(bounds.back(), static_cast<double>(1 << 26));
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], 2.0 * bounds[i - 1]) << "octave broken at " << i;
  }
}

TEST(QuantileTest, EmptyHistogramIsZeroAndSingleValueIsExact) {
  MetricsRegistry registry;
  Histogram h = registry.histogram(
      "phase.q", MetricsRegistry::Log2DurationBoundsUs());
  EXPECT_DOUBLE_EQ(registry.Snapshot().histograms.at("phase.q").Quantile(0.5),
                   0.0);
  h.Record(300.0);
  const HistogramSnapshot snap = registry.Snapshot().histograms.at("phase.q");
  // One sample: every quantile is clamped into [min, max] = [300, 300].
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 300.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 300.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 300.0);
}

TEST(QuantileTest, Log2BucketsBoundTheErrorByOneOctave) {
  // Deterministic LCG sample spanning several octaves; the estimate and the
  // exact order statistic land in the same log2 bucket, so the ratio between
  // them can never exceed 2 (the bound the phase.* percentiles advertise).
  std::vector<double> values;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    values.push_back(20.0 + static_cast<double>(state % 1000000));
  }
  MetricsRegistry registry;
  Histogram h = registry.histogram(
      "phase.err", MetricsRegistry::Log2DurationBoundsUs());
  for (const double v : values) h.Record(v);
  const HistogramSnapshot snap = registry.Snapshot().histograms.at("phase.err");

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.5, 0.9, 0.99}) {
    const double target = q * static_cast<double>(sorted.size());
    const auto rank = static_cast<std::size_t>(
        std::max(0.0, std::ceil(target) - 1.0));
    const double exact = sorted[std::min(rank, sorted.size() - 1)];
    const double estimate = snap.Quantile(q);
    EXPECT_LE(estimate, exact * 2.0 + 1e-9) << "q=" << q;
    EXPECT_GE(estimate, exact * 0.5 - 1e-9) << "q=" << q;
    EXPECT_GE(estimate, snap.min);
    EXPECT_LE(estimate, snap.max);
  }
}

TEST(TelemetryTest, RingStaysBoundedOverAHundredThousandAppStream) {
  TelemetryOptions opts = ManualOptions();
  opts.ring_capacity = 64;
  Telemetry telemetry(nullptr, opts);
  // 100k chains stream through; a tick every 10 completions. The recorder
  // must remember only the newest `ring_capacity` frames, no matter how long
  // the run.
  constexpr std::uint64_t kApps = 100000;
  for (std::uint64_t i = 0; i < kApps; ++i) {
    telemetry.OnItemDone(i);
    if (i % 10 == 9) telemetry.Tick();
  }
  EXPECT_EQ(telemetry.done(), kApps);
  EXPECT_EQ(telemetry.ticks(), kApps / 10);
  const std::vector<TelemetryFrame> frames = telemetry.Frames();
  ASSERT_EQ(frames.size(), 64u);
  // Oldest-first, contiguous, ending at the newest tick.
  EXPECT_EQ(frames.back().tick, kApps / 10);
  EXPECT_EQ(frames.front().tick, kApps / 10 - 63);
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].tick, frames[i - 1].tick + 1);
    EXPECT_GE(frames[i].done, frames[i - 1].done);
  }
}

TEST(TelemetryTest, FramesCarryCounterDeltasAndStageCounts) {
  MetricsRegistry registry;
  Telemetry telemetry(&registry, ManualOptions());
  Counter scans = registry.counter("scan.files");
  scans.Add(5);
  telemetry.OnStageStart(TelemetryKey(0, 0), "android", "com.a", "static");
  telemetry.OnStageEnd(TelemetryKey(0, 0), "static");
  telemetry.Tick();
  scans.Add(3);
  telemetry.Tick();

  const std::vector<TelemetryFrame> frames = telemetry.Frames();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].counter_deltas.at("scan.files"), 5u);
  EXPECT_EQ(frames[0].stage_done.at("static"), 1u);
  // Only counters that moved this tick appear in the delta map.
  EXPECT_EQ(frames[1].counter_deltas.at("scan.files"), 3u);
  EXPECT_EQ(frames[1].counter_deltas.size(), 1u);
  // RSS gauges were republished into the registry by the tick itself. VmRSS
  // is batched per-thread in /proc, so it can momentarily read a few pages
  // above VmHWM — compare with page-batching slack, not exactly.
  constexpr std::uint64_t kRssSlack = 4u << 20;
  EXPECT_GT(frames[1].rss_bytes, 0u);
  EXPECT_GE(frames[1].peak_rss_bytes + kRssSlack, frames[1].rss_bytes);
}

TEST(TelemetryTest, WatchdogFiresExactlyOncePerStallAndRearmsOnProgress) {
  TelemetryOptions opts = ManualOptions();
  opts.stall_ticks = 3;
  Telemetry telemetry(nullptr, opts);
  telemetry.AddTotal(2);
  telemetry.OnStageStart(TelemetryKey(0, 1), "android", "com.slow", "dynamic");

  // Ten stalled ticks: the threshold crossing fires once, never again while
  // the same stall persists.
  for (int i = 0; i < 10; ++i) telemetry.Tick();
  EXPECT_EQ(telemetry.watchdog_fires(), 1u);

  // Progress resumes: the chain finishes, the watchdog notes the resume and
  // re-arms.
  telemetry.OnItemDone(TelemetryKey(0, 1));
  telemetry.Tick();
  EXPECT_EQ(telemetry.watchdog_fires(), 1u);

  // A second, distinct stall fires a second time.
  telemetry.OnStageStart(TelemetryKey(1, 0), "ios", "com.slower", "static");
  for (int i = 0; i < 10; ++i) telemetry.Tick();
  EXPECT_EQ(telemetry.watchdog_fires(), 2u);

  // The event channel names both stragglers (app + stage), warn severity,
  // plus one resume note — and it is telemetry's own channel, not a journal.
  const std::vector<LogEvent> events = telemetry.events().SortedEvents();
  std::vector<const LogEvent*> stalls;
  std::vector<const LogEvent*> resumes;
  for (const LogEvent& e : events) {
    if (e.name == "telemetry.stall") stalls.push_back(&e);
    if (e.name == "telemetry.resume") resumes.push_back(&e);
  }
  ASSERT_EQ(stalls.size(), 2u);
  ASSERT_EQ(resumes.size(), 1u);
  EXPECT_EQ(stalls[0]->severity, Severity::kWarn);
  const LogValue* app = FindField(*stalls[0], "straggler_app");
  const LogValue* stage = FindField(*stalls[0], "straggler_stage");
  ASSERT_NE(app, nullptr);
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(app->AsString(), "com.slow");
  EXPECT_EQ(stage->AsString(), "dynamic");
  const LogValue* app2 = FindField(*stalls[1], "straggler_app");
  ASSERT_NE(app2, nullptr);
  EXPECT_EQ(app2->AsString(), "com.slower");
}

TEST(TelemetryTest, IdleTicksNeverTripTheWatchdog) {
  TelemetryOptions opts = ManualOptions();
  opts.stall_ticks = 2;
  Telemetry telemetry(nullptr, opts);
  // Nothing in flight: a quiet run (or the gap before work arrives) is not a
  // stall, however long it lasts.
  for (int i = 0; i < 20; ++i) telemetry.Tick();
  EXPECT_EQ(telemetry.watchdog_fires(), 0u);
}

TEST(TelemetryTest, StageEndOnlyClearsTheMatchingStage) {
  Telemetry telemetry(nullptr, ManualOptions());
  const std::uint64_t key = TelemetryKey(0, 3);
  telemetry.OnStageStart(key, "android", "com.a", "static");
  // Another worker already moved the chain to its next stage; the straggler
  // table must keep the newer entry when the older stage's end arrives late.
  telemetry.OnStageStart(key, "android", "com.a", "dynamic");
  telemetry.OnStageEnd(key, "static");
  const std::vector<StragglerRow> rows = telemetry.Stragglers(10);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].stage, "dynamic");
}

TEST(TelemetryTest, StragglersOrderLongestFirstAndTruncateToK) {
  Telemetry telemetry(nullptr, ManualOptions());
  telemetry.OnStageStart(TelemetryKey(0, 0), "android", "com.oldest", "static");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  telemetry.OnStageStart(TelemetryKey(0, 1), "android", "com.middle", "dynamic");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  telemetry.OnStageStart(TelemetryKey(1, 0), "ios", "com.newest", "static");

  const std::vector<StragglerRow> top2 = telemetry.Stragglers(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].app_id, "com.oldest");
  EXPECT_EQ(top2[1].app_id, "com.middle");
  EXPECT_GE(top2[0].elapsed_ms, top2[1].elapsed_ms);
}

TEST(TelemetryTest, HeartbeatIsMonotoneParseableJsonlWithPhasePercentiles) {
  const std::filesystem::path path = TempPath("hb.jsonl");
  std::filesystem::remove(path);
  MetricsRegistry registry;
  registry.histogram("phase.static", MetricsRegistry::Log2DurationBoundsUs())
      .Record(500.0);

  TelemetryOptions opts = ManualOptions();
  opts.heartbeat_path = path.string();
  {
    Telemetry telemetry(&registry, opts);
    telemetry.Start();
    telemetry.AddTotal(3);
    telemetry.Tick();
    telemetry.OnItemDone(TelemetryKey(0, 0));
    telemetry.Tick();
    telemetry.OnItemDone(TelemetryKey(0, 1));
    telemetry.OnItemDone(TelemetryKey(0, 2));
    telemetry.Stop();  // takes the final tick and closes the file
  }

  std::ifstream f(path);
  ASSERT_TRUE(f.is_open());
  std::string line;
  std::uint64_t lines = 0;
  std::uint64_t last_tick = 0;
  std::uint64_t last_done = 0;
  while (std::getline(f, line)) {
    ++lines;
    ASSERT_EQ(line.front(), '{');
    ASSERT_EQ(line.back(), '}');
    std::uint64_t tick = 0;
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "{\"tick\": %" SCNu64, &tick), 1);
    const char* done_at = std::strstr(line.c_str(), "\"done\": ");
    ASSERT_NE(done_at, nullptr);
    ASSERT_EQ(std::sscanf(done_at, "\"done\": %" SCNu64, &done), 1);
    const char* total_at = std::strstr(line.c_str(), "\"total\": ");
    ASSERT_NE(total_at, nullptr);
    ASSERT_EQ(std::sscanf(total_at, "\"total\": %" SCNu64, &total), 1);
    EXPECT_GT(tick, last_tick) << "tick must be strictly monotone";
    EXPECT_GE(done, last_done) << "done must be monotone";
    EXPECT_EQ(total, 3u);
    EXPECT_NE(line.find("\"phases\": {"), std::string::npos);
    EXPECT_NE(line.find("\"phase.static\""), std::string::npos);
    EXPECT_NE(line.find("\"p50_us\""), std::string::npos);
    EXPECT_NE(line.find("\"p99_us\""), std::string::npos);
    EXPECT_NE(line.find("\"inflight\": "), std::string::npos);
    // No scheduler queue exists, so no frame reports one.
    EXPECT_EQ(line.find("queue"), std::string::npos);
    last_tick = tick;
    last_done = done;
  }
  EXPECT_EQ(lines, 3u);  // two manual ticks + Stop()'s final one
  EXPECT_EQ(last_done, 3u);
  std::filesystem::remove(path);
}

TEST(TelemetryTest, LiveMetricsRefreshAtomicallyInBothFormats) {
  MetricsRegistry registry;
  registry.counter("study.apps_analyzed").Add(4);
  registry.histogram("phase.static", MetricsRegistry::Log2DurationBoundsUs())
      .Record(100.0);

  // OpenMetrics (.prom): sanitized names, _sum/_count, percentile gauges,
  // terminal "# EOF", and no leftover .tmp after the rename.
  const std::filesystem::path prom = TempPath("live.prom");
  std::filesystem::remove(prom);
  TelemetryOptions prom_opts = ManualOptions();
  prom_opts.metrics_path = prom.string();
  Telemetry prom_telemetry(&registry, prom_opts);
  prom_telemetry.Tick();
  const std::string prom_body = Slurp(prom);
  ASSERT_FALSE(prom_body.empty());
  EXPECT_NE(prom_body.find("pinscope_study_apps_analyzed_total 4"),
            std::string::npos);
  EXPECT_NE(prom_body.find("pinscope_phase_static_sum"), std::string::npos);
  EXPECT_NE(prom_body.find("pinscope_phase_static_count"), std::string::npos);
  EXPECT_NE(prom_body.find("pinscope_phase_static_p50"), std::string::npos);
  EXPECT_NE(prom_body.find("pinscope_phase_static_p99"), std::string::npos);
  const std::string eof_tail = "# EOF\n";
  ASSERT_GE(prom_body.size(), eof_tail.size());
  EXPECT_EQ(prom_body.substr(prom_body.size() - eof_tail.size()), eof_tail);
  EXPECT_FALSE(std::filesystem::exists(prom.string() + ".tmp"));

  // A second tick rewrites the file in place (fresh, not appended). The
  // process RSS gauges legitimately move between ticks, so compare with
  // those lines stripped.
  const auto strip_rss = [](const std::string& body) {
    std::string out;
    std::istringstream lines(body);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.find("process_rss_bytes") == std::string::npos &&
          line.find("process_peak_rss_bytes") == std::string::npos) {
        out += line;
        out += '\n';
      }
    }
    return out;
  };
  prom_telemetry.Tick();
  EXPECT_EQ(strip_rss(Slurp(prom)), strip_rss(prom_body));

  // Any other suffix: the JSON snapshot format.
  const std::filesystem::path json = TempPath("live.json");
  std::filesystem::remove(json);
  TelemetryOptions json_opts = ManualOptions();
  json_opts.metrics_path = json.string();
  Telemetry json_telemetry(&registry, json_opts);
  json_telemetry.Tick();
  const std::string json_body = Slurp(json);
  ASSERT_FALSE(json_body.empty());
  EXPECT_EQ(json_body.front(), '{');
  EXPECT_NE(json_body.find("\"study.apps_analyzed\""), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(json.string() + ".tmp"));

  std::filesystem::remove(prom);
  std::filesystem::remove(json);
}

TEST(TelemetryTest, PlainProgressRendersOneLinePerTick) {
  const std::filesystem::path path = TempPath("progress.txt");
  std::FILE* stream = std::fopen(path.string().c_str(), "w+b");
  ASSERT_NE(stream, nullptr);
  TelemetryOptions opts = ManualOptions();
  opts.progress = ProgressMode::kPlain;
  opts.progress_stream = stream;
  Telemetry telemetry(nullptr, opts);
  telemetry.AddTotal(2);
  telemetry.Tick();
  telemetry.OnItemDone(TelemetryKey(0, 0));
  telemetry.OnItemDone(TelemetryKey(0, 1));
  telemetry.Tick();
  std::fclose(stream);

  const std::string out = Slurp(path);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_NE(out.find("[pinscope] t+"), std::string::npos);
  EXPECT_NE(out.find("0/2 apps (0.0%)"), std::string::npos);
  EXPECT_NE(out.find("2/2 apps (100.0%)"), std::string::npos);
  EXPECT_NE(out.find("| rss "), std::string::npos);
  EXPECT_NE(out.find("| inflight "), std::string::npos);
  EXPECT_EQ(out.find("| queue "), std::string::npos);
  // Plain mode is pipeable: no carriage returns, no escape codes.
  EXPECT_EQ(out.find('\r'), std::string::npos);
  EXPECT_EQ(out.find('\x1b'), std::string::npos);
  std::filesystem::remove(path);
}

TEST(TelemetryTest, TimelineJsonIsAWellFormedFrameArray) {
  Telemetry telemetry(nullptr, ManualOptions());
  EXPECT_EQ(telemetry.TimelineJson(), "[]");
  telemetry.OnItemDone(TelemetryKey(0, 0));
  telemetry.Tick();
  telemetry.Tick();
  const std::string json = telemetry.TimelineJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("{\"tick\": 1"), std::string::npos);
  EXPECT_NE(json.find("{\"tick\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"rss_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"inflight\""), std::string::npos);
  EXPECT_EQ(json.find("queue_depth"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), 2);
}

TEST(TelemetryTest, BackgroundSamplerTicksAndStopsCleanly) {
  // The one test that exercises the real sampler thread: a short interval,
  // a brief run, and the Start/Stop bracket. Everything else (exact tick
  // counts) belongs to manual mode.
  MetricsRegistry registry;
  TelemetryOptions opts;
  opts.interval_ms = 5;
  Telemetry telemetry(&registry, opts);
  telemetry.Start();
  telemetry.AddTotal(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  telemetry.OnItemDone(TelemetryKey(0, 0));
  telemetry.Stop();
  EXPECT_GE(telemetry.ticks(), 2u);  // several periodic ticks + the final one
  EXPECT_EQ(telemetry.done(), 1u);
  const std::vector<TelemetryFrame> frames = telemetry.Frames();
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.back().done, 1u);
  // Stop() is idempotent and the destructor's implicit Stop() is a no-op.
  telemetry.Stop();
}

TEST(ProcessTest, CurrentRssIsReadableAndBelowPeak) {
  const auto rss = ReadCurrentRssBytes();
  const auto peak = ReadPeakRssBytes();
  ASSERT_TRUE(rss.has_value());
  // VmRSS is batched per-thread in /proc, so it can momentarily read a few
  // pages above VmHWM — compare with page-batching slack, not exactly.
  constexpr std::uint64_t kRssSlack = 4u << 20;
  ASSERT_TRUE(peak.has_value());
  EXPECT_GT(*rss, 0u);
  EXPECT_GE(*peak + kRssSlack, *rss);

  MetricsRegistry registry;
  PublishRss(&registry);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.gauges.at("process.rss_bytes"), 0u);
  EXPECT_GE(snap.gauges.at("process.peak_rss_bytes") + kRssSlack,
            snap.gauges.at("process.rss_bytes"));
}

}  // namespace
}  // namespace pinscope::obs
