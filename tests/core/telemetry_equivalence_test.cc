// Telemetry acceptance battery (DESIGN.md §16). Four contracts:
//
//  1. Attaching a live Telemetry sampler — progress rendering, heartbeat
//     JSONL, live .prom refresh, watchdog armed — changes no exported byte
//     and no journal byte, for seeds {7, 23} × threads {1, 4, hardware},
//     on both the materialized and the streaming study paths.
//  2. An injected stage delay (SchedulerFaultPlan) trips the stall watchdog
//     exactly once, and the warn event names the straggling app and stage.
//  3. The flight-recorder ring stays bounded while a corpus much larger than
//     the ring streams through, and every frame carries live RSS.
//  4. The heartbeat and live .prom surfaces produced during a real threaded
//     study are well-formed: monotone ticks, phase percentiles, terminal
//     "# EOF".
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/corpus_source.h"
#include "core/export.h"
#include "core/stream_export.h"
#include "core/stream_study.h"
#include "core/study.h"
#include "core/synthetic_corpus.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "store/generator.h"
#include "testing/fixtures.h"
#include "testing/thread_grid.h"
#include "util/pipeline_scheduler.h"

namespace pinscope::core {
namespace {

/// Everything a run externalizes: exports, rendered verdicts, and the
/// decision journal — the byte surfaces telemetry must never touch.
struct RunBytes {
  std::string json;
  std::string csv;
  std::string verdicts;
  std::string journal;
};

std::string RenderVerdicts(const std::vector<report::AppVerdict>& verdicts) {
  std::string out;
  for (const report::AppVerdict& v : verdicts) {
    out += v.platform + "|" + v.app_id + "|" +
           (v.pins_at_runtime ? "1" : "0") +
           (v.potential_pinning ? "1" : "0") + (v.config_pinning ? "1" : "0");
    for (const std::string& host : v.pinned_hosts) out += "|" + host;
    out += "\n";
  }
  return out;
}

void ExpectSameBytes(const RunBytes& a, const RunBytes& b) {
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.journal, b.journal);
}

std::filesystem::path TempPath(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("pinscope_telemetry_eq_" + name);
}

std::string Slurp(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

/// A fully-armed sampler: fast real ticks, plain progress swallowed into a
/// temp file, heartbeat + live .prom surfaces. The worst case for the
/// "changes nothing" contract.
struct TelemetryHarness {
  explicit TelemetryHarness(obs::Observer& observer, const std::string& tag) {
    progress_path = TempPath(tag + "_progress.txt");
    heartbeat_path = TempPath(tag + "_hb.jsonl");
    prom_path = TempPath(tag + "_live.prom");
    progress_file = std::fopen(progress_path.string().c_str(), "wb");
    obs::TelemetryOptions topts;
    topts.interval_ms = 2;
    topts.progress = obs::ProgressMode::kPlain;
    topts.progress_stream = progress_file;
    topts.heartbeat_path = heartbeat_path.string();
    topts.metrics_path = prom_path.string();
    topts.stall_ticks = 1 << 20;  // armed, but quiet for well-behaved runs
    telemetry =
        std::make_unique<obs::Telemetry>(&observer.metrics(), topts);
    telemetry->Start();
  }

  ~TelemetryHarness() {
    telemetry->Stop();
    if (progress_file != nullptr) std::fclose(progress_file);
    std::filesystem::remove(progress_path);
    std::filesystem::remove(heartbeat_path);
    std::filesystem::remove(prom_path);
  }

  std::unique_ptr<obs::Telemetry> telemetry;
  std::filesystem::path progress_path;
  std::filesystem::path heartbeat_path;
  std::filesystem::path prom_path;
  std::FILE* progress_file = nullptr;
};

RunBytes RunMaterialized(const store::Ecosystem& eco, int threads,
                         bool with_telemetry, const std::string& tag) {
  obs::Observer observer;
  obs::EventLog journal(obs::Severity::kInfo);
  observer.set_log(&journal);
  StudyOptions opts;
  opts.threads = threads;
  opts.observer = &observer;

  std::unique_ptr<TelemetryHarness> harness;
  if (with_telemetry) {
    harness = std::make_unique<TelemetryHarness>(observer, tag);
    opts.telemetry = harness->telemetry.get();
  }
  Study study(eco, opts);
  study.Run();
  if (harness != nullptr) {
    harness->telemetry->Stop();
    EXPECT_EQ(harness->telemetry->done(), harness->telemetry->total());
  }
  return {ExportStudyJson(study), ExportStudyCsv(study),
          RenderVerdicts(CollectAppVerdicts(study)), journal.ToJsonl()};
}

RunBytes RunStreamed(const store::Ecosystem& eco, int threads,
                     bool with_telemetry, const std::string& tag) {
  obs::Observer observer;
  obs::EventLog journal(obs::Severity::kInfo);
  observer.set_log(&journal);
  const EcosystemCorpusSource source(eco);
  StudyOptions opts;
  opts.threads = threads;
  opts.observer = &observer;

  std::unique_ptr<TelemetryHarness> harness;
  if (with_telemetry) {
    harness = std::make_unique<TelemetryHarness>(observer, tag);
    opts.telemetry = harness->telemetry.get();
  }
  StreamExporter exporter;
  (void)RunStreamingStudy(source, opts, exporter);
  if (harness != nullptr) {
    harness->telemetry->Stop();
    EXPECT_EQ(harness->telemetry->done(), harness->telemetry->total());
  }
  return {exporter.FinishJson(), exporter.FinishCsv(),
          RenderVerdicts(exporter.FinishVerdicts()), journal.ToJsonl()};
}

class TelemetryEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TelemetryEquivalenceTest, MaterializedExportsIdenticalTelemetryOnOrOff) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const RunBytes reference =
      RunMaterialized(eco, /*threads=*/1, /*with_telemetry=*/false, "ref");
  ASSERT_FALSE(reference.json.empty());
  ASSERT_FALSE(reference.journal.empty());

  for (const int threads : pinscope::testing::ThreadGrid()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RunBytes live = RunMaterialized(
        eco, threads, /*with_telemetry=*/true,
        "mat_s" + std::to_string(GetParam()) + "_t" + std::to_string(threads));
    ExpectSameBytes(reference, live);
  }
}

TEST_P(TelemetryEquivalenceTest, StreamedExportsIdenticalTelemetryOnOrOff) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const RunBytes reference =
      RunStreamed(eco, /*threads=*/1, /*with_telemetry=*/false, "sref");
  ASSERT_FALSE(reference.json.empty());

  for (const int threads : pinscope::testing::ThreadGrid()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RunBytes live = RunStreamed(
        eco, threads, /*with_telemetry=*/true,
        "str_s" + std::to_string(GetParam()) + "_t" + std::to_string(threads));
    ExpectSameBytes(reference, live);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TelemetryEquivalenceTest,
                         ::testing::Values(7u, 23u),
                         [](const ::testing::TestParamInfo<std::uint64_t>&
                                info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(TelemetryWatchdogTest, InjectedDelayFiresOnceAndNamesTheStraggler) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(7);
  const RunBytes reference =
      RunMaterialized(eco, /*threads=*/1, /*with_telemetry=*/false, "wref");

  // Work item 0 of the study chain is the first android app; stall its
  // dynamic stage (stage index 2, after hydrate and static) long enough that
  // every other chain drains while it sleeps.
  StudyOptions opts;
  opts.threads = 4;
  util::SchedulerFaultPlan faults;
  faults.Set(/*stage=*/2, /*item=*/0, {std::chrono::milliseconds(1500), 0});
  opts.fault_plan = &faults;

  // Manual ticks: the test takes every tick itself, and only once the
  // delayed chain is the one chain left in flight, so the injected delay is
  // the only completion-free window the watchdog can ever see — a slow
  // machine stretching some other stage past a tick period cannot fire it.
  constexpr int kStallTicks = 4;
  obs::TelemetryOptions topts;
  topts.interval_ms = 0;
  topts.stall_ticks = kStallTicks;
  obs::Telemetry telemetry(nullptr, topts);
  opts.telemetry = &telemetry;

  const std::vector<std::size_t> android =
      EcosystemCorpusSource(eco).Indices(appmodel::Platform::kAndroid);
  ASSERT_FALSE(android.empty());
  const std::string expected_app =
      eco.apps(appmodel::Platform::kAndroid)[android.front()].meta.app_id;

  telemetry.Start();
  Study study(eco, opts);
  std::atomic<bool> finished{false};
  std::thread runner([&] {
    study.Run();
    finished.store(true);
  });
  auto only_delayed_chain_left = [&] {
    const std::vector<obs::StragglerRow> rows = telemetry.Stragglers(2);
    return telemetry.total() > 0 && telemetry.done() + 1 == telemetry.total() &&
           rows.size() == 1 && rows.front().app_id == expected_app &&
           rows.front().stage == "dynamic";
  };
  bool stalled = false;
  while (!finished.load()) {
    if (only_delayed_chain_left()) {
      stalled = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // One tick takes in the completions so far; the next kStallTicks see none
  // and fire the watchdog, which must then stay disarmed for the rest.
  for (int t = 0; stalled && t <= 3 * kStallTicks; ++t) telemetry.Tick();
  const std::uint64_t fires_while_stalled = telemetry.watchdog_fires();
  const bool still_stalled = only_delayed_chain_left();
  runner.join();
  telemetry.Stop();  // final tick: the delayed chain completed
  ASSERT_TRUE(stalled) << "the delay ended before the other chains drained";
  ASSERT_TRUE(still_stalled) << "the delay ended while the ticks were taken";

  // Exactly one stall, fired inside the injected window; the watchdog
  // re-armed once, when the delayed chain finally completed.
  EXPECT_EQ(fires_while_stalled, 1u);
  EXPECT_EQ(telemetry.watchdog_fires(), 1u);
  const std::vector<obs::LogEvent> events = telemetry.events().SortedEvents();
  const obs::LogEvent* stall = nullptr;
  int resumes = 0;
  for (const obs::LogEvent& e : events) {
    if (e.name == "telemetry.stall") {
      EXPECT_EQ(stall, nullptr) << "second stall event";
      stall = &e;
    }
    if (e.name == "telemetry.resume") ++resumes;
  }
  EXPECT_EQ(resumes, 1);
  ASSERT_NE(stall, nullptr);
  EXPECT_EQ(stall->severity, obs::Severity::kWarn);
  const obs::LogValue* app = obs::FindField(*stall, "straggler_app");
  const obs::LogValue* stage = obs::FindField(*stall, "straggler_stage");
  const obs::LogValue* platform = obs::FindField(*stall, "straggler_platform");
  ASSERT_NE(app, nullptr);
  ASSERT_NE(stage, nullptr);
  ASSERT_NE(platform, nullptr);
  EXPECT_EQ(app->AsString(), expected_app);
  EXPECT_EQ(stage->AsString(), "dynamic");
  EXPECT_EQ(platform->AsString(), "android");

  // A delayed (not failed) stage still produces byte-identical exports.
  EXPECT_EQ(ExportStudyJson(study), reference.json);
  EXPECT_EQ(ExportStudyCsv(study), reference.csv);
  EXPECT_EQ(RenderVerdicts(CollectAppVerdicts(study)), reference.verdicts);
}

TEST(TelemetryStreamScaleTest, RingStaysBoundedWhileACorpusStreamsThrough) {
  SyntheticCorpusConfig config;
  config.seed = 7;
  config.apps_per_platform = 256;  // 512 chains >> the 16-frame ring
  config.payload_bytes = 2048;
  config.unique_payload = true;
  config.pem_certs_in_payload = 3;
  const SyntheticCorpusSource source(config);

  // Manual mode, ticked from the result stream every 8th chain: the ring
  // overflows four times over however fast the machine streams, while the
  // workers keep calling the stage hooks concurrently with each tick.
  obs::Observer observer;
  obs::TelemetryOptions topts;
  topts.interval_ms = 0;
  topts.ring_capacity = 16;
  obs::Telemetry telemetry(&observer.metrics(), topts);

  StudyOptions opts;
  opts.threads = 2;
  opts.observer = &observer;
  opts.telemetry = &telemetry;
  std::mutex tick_mu;
  std::size_t results = 0;
  opts.on_result = [&](const AppResult&) {
    const std::lock_guard<std::mutex> lock(tick_mu);
    if (++results % 8 == 0) telemetry.Tick();
  };
  StreamExporter exporter;
  telemetry.Start();
  (void)RunStreamingStudy(source, opts, exporter);
  telemetry.Stop();

  EXPECT_EQ(telemetry.done(), 512u);
  EXPECT_EQ(telemetry.total(), 512u);
  EXPECT_GT(telemetry.ticks(), 16u);
  const std::vector<obs::TelemetryFrame> frames = telemetry.Frames();
  ASSERT_FALSE(frames.empty());
  EXPECT_LE(frames.size(), 16u);
  // VmRSS is batched per-thread in /proc, so it can momentarily read a few
  // pages above VmHWM — compare with page-batching slack, not exactly.
  constexpr std::uint64_t kRssSlack = 4u << 20;
  for (const obs::TelemetryFrame& f : frames) {
    EXPECT_GT(f.rss_bytes, 0u);
    EXPECT_GE(f.peak_rss_bytes + kRssSlack, f.rss_bytes);
  }
  EXPECT_EQ(frames.back().done, 512u);
}

TEST(TelemetrySurfacesTest, RealStudyProducesMonotoneHeartbeatAndLiveProm) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(7);
  const std::filesystem::path hb = TempPath("surface_hb.jsonl");
  const std::filesystem::path prom = TempPath("surface_live.prom");
  std::filesystem::remove(hb);
  std::filesystem::remove(prom);

  obs::Observer observer;
  obs::TelemetryOptions topts;
  topts.interval_ms = 2;
  topts.heartbeat_path = hb.string();
  topts.metrics_path = prom.string();
  obs::Telemetry telemetry(&observer.metrics(), topts);

  StudyOptions opts;
  opts.threads = 4;
  opts.observer = &observer;
  opts.telemetry = &telemetry;
  telemetry.Start();
  Study study(eco, opts);
  study.Run();
  telemetry.Stop();

  // Heartbeat: monotone ticks/done, final line shows the finished run and
  // carries phase percentiles.
  const std::string heartbeat = Slurp(hb);
  ASSERT_FALSE(heartbeat.empty());
  std::istringstream lines(heartbeat);
  std::string line;
  std::string last_line;
  std::uint64_t last_tick = 0;
  while (std::getline(lines, line)) {
    std::uint64_t tick = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "{\"tick\": %" SCNu64, &tick), 1);
    EXPECT_GT(tick, last_tick);
    last_tick = tick;
    last_line = line;
  }
  EXPECT_NE(last_line.find(
                "\"done\": " + std::to_string(telemetry.done())),
            std::string::npos);
  EXPECT_NE(last_line.find("\"phases\": {"), std::string::npos);
  EXPECT_NE(last_line.find("\"phase.static\""), std::string::npos);
  EXPECT_NE(last_line.find("\"p90_us\""), std::string::npos);

  // Live OpenMetrics: complete document with percentile gauges, no torn tmp.
  const std::string body = Slurp(prom);
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("pinscope_phase_static_sum"), std::string::npos);
  EXPECT_NE(body.find("pinscope_phase_static_p99"), std::string::npos);
  const std::string eof_tail = "# EOF\n";
  ASSERT_GE(body.size(), eof_tail.size());
  EXPECT_EQ(body.substr(body.size() - eof_tail.size()), eof_tail);
  EXPECT_FALSE(std::filesystem::exists(prom.string() + ".tmp"));

  std::filesystem::remove(hb);
  std::filesystem::remove(prom);
}

}  // namespace
}  // namespace pinscope::core
