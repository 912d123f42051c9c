// Streaming-study scale and warm-start benchmark.
//
// Two claims from DESIGN.md §15, each measured and written to
// BENCH_stream.json:
//
//  1. Bounded memory: a streaming study's peak RSS is set by the scheduler's
//     in-flight window, not corpus size. Witness: stream a small synthetic
//     corpus, record the process high-water mark, then stream a corpus 20x
//     larger and check the mark barely moves (flat_within_2x). Order
//     matters — VmHWM is monotone for the process lifetime, so the small
//     run MUST come first; anything the large run adds shows up in its own
//     reading.
//
//  2. Warm starts: persisting the content-keyed scan and validation caches
//     (--cache-dir) makes re-analysis of an unchanged corpus much cheaper.
//     Witness: a unique-payload corpus (every app a distinct content digest,
//     stacked PEM blocks per file) where the in-run cache can never help
//     across apps — cold scans pay full price, a second run over the same
//     corpus with the persisted caches hits everything. A byte-equality
//     guard on the exports enforces that warm results are identical to cold.
//     The scan cache's own load and save of that corpus's file are timed
//     apart too (min, median and n), since a warm start pays the load
//     before any worker starts.
//
// Knobs: PINSCOPE_BENCH_STREAM_SMALL  (small corpus total apps, default 5000),
//        PINSCOPE_BENCH_STREAM_LARGE  (large corpus total apps, default 100000),
//        PINSCOPE_BENCH_STREAM_WARM   (warm-start corpus total apps, default 600),
//        PINSCOPE_BENCH_THREADS       (workers, default max(2, hardware)).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/cache_persist.h"
#include "core/stream_export.h"
#include "core/stream_study.h"
#include "core/synthetic_corpus.h"
#include "obs/autopsy.h"
#include "obs/obs.h"
#include "obs/process.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"
#include "staticanalysis/scan_cache.h"

namespace {

using namespace pinscope;
using bench::EnvInt;
using bench::SpreadJson;

std::uint64_t PeakRss() { return obs::ReadPeakRssBytes().value_or(0); }

/// Streams `total_apps` synthetic apps in firehose mode (no rows retained);
/// returns wall milliseconds.
double TimedStream(std::size_t total_apps, int workers,
                   obs::Observer* observer,
                   obs::Telemetry* telemetry = nullptr,
                   obs::Timeline* timeline = nullptr,
                   const core::SyntheticCorpusConfig* corpus = nullptr) {
  core::SyntheticCorpusConfig config;
  if (corpus) config = *corpus;
  config.apps_per_platform = total_apps / 2;
  const core::SyntheticCorpusSource source(config);
  core::StudyOptions opts;
  opts.threads = workers;
  opts.observer = observer;
  opts.telemetry = telemetry;
  opts.timeline = timeline;
  // Every app carries a unique manifest/binary digest, so an in-run scan
  // cache can never hit twice — it would only accumulate one entry per app,
  // O(corpus) memory for zero hits. The firehose run streams without it
  // (the validation memo stays on: it is bounded by the host set and hits
  // constantly). Cache on/off never changes an exported byte (§9).
  opts.scan_cache = false;
  core::StreamExporter::Options eopts;
  eopts.retain_rows = false;
  core::StreamExporter exporter(eopts);
  const auto start = std::chrono::steady_clock::now();
  const core::StreamStudyResult run =
      core::RunStreamingStudy(source, opts, exporter);
  const auto end = std::chrono::steady_clock::now();
  if (run.apps != total_apps) {
    std::fprintf(stderr, "FATAL: streamed %zu of %zu apps\n", run.apps,
                 total_apps);
    std::exit(1);
  }
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// One full streaming pass over the warm-start corpus with `cache_dir`
/// persistence; leaves the JSON export (the equality guard) in `json_out`.
double TimedWarmablePass(const core::SyntheticCorpusSource& source, int workers,
                         const std::string& cache_dir, std::string* json_out) {
  core::StudyOptions opts;
  opts.threads = workers;
  opts.cache_dir = cache_dir;
  core::StreamExporter exporter;
  const auto start = std::chrono::steady_clock::now();
  (void)core::RunStreamingStudy(source, opts, exporter);
  const auto end = std::chrono::steady_clock::now();
  *json_out = exporter.FinishJson();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// The `q` quantile of `values` (0 <= q <= 1), interpolating linearly
/// between the two nearest ranks.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

/// What one timeline record costs, timed directly: a tight loop that
/// alternates RecordStage and RecordIdle on one reserved lane, min over
/// `reps` repetitions, per call. The loop runs well past the per-lane cap,
/// so it covers both the append path and the reservoir-sampling path a long
/// run settles into.
double RecordCostNsPerInterval(int reps) {
  constexpr std::int64_t kCalls = std::int64_t{1} << 20;
  double best_ns = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    obs::Timeline timeline;
    const std::uint32_t label = timeline.InternStage("stage");
    timeline.ReserveLanes(1);
    const auto start = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < kCalls; i += 2) {
      timeline.RecordStage(0, static_cast<std::uint64_t>(i), label, i, i + 1);
      timeline.RecordIdle(0, obs::IntervalKind::kTailJoin, i + 1, i + 2);
    }
    const auto end = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(end - start).count() /
        static_cast<double>(kCalls);
    best_ns = rep == 0 ? ns : std::min(best_ns, ns);
  }
  return best_ns;
}

}  // namespace

int main() {
  const std::size_t small_apps =
      static_cast<std::size_t>(EnvInt("PINSCOPE_BENCH_STREAM_SMALL", 5000));
  const std::size_t large_apps =
      static_cast<std::size_t>(EnvInt("PINSCOPE_BENCH_STREAM_LARGE", 100000));
  const std::size_t warm_apps =
      static_cast<std::size_t>(EnvInt("PINSCOPE_BENCH_STREAM_WARM", 600));
  const int workers =
      EnvInt("PINSCOPE_BENCH_THREADS",
             static_cast<int>(std::max(2u, std::thread::hardware_concurrency())));

  // --- Claim 1: flat peak RSS, small corpus first (VmHWM is monotone). ----
  // Bounded tracing: the registry is fixed-size, but an unbounded trace
  // sink retains every per-app span — linear in corpus size, which is
  // exactly what this claim forbids. Capping the sink keeps the head of the
  // run inspectable while dropped spans are counted, not silently lost.
  obs::Observer observer;
  observer.trace().set_max_events(std::size_t{1} << 14);
  std::fprintf(stderr, "[pinscope] streaming %zu apps (%d workers)...\n",
               small_apps, workers);
  const double small_ms = TimedStream(small_apps, workers, &observer);
  const std::uint64_t small_peak = PeakRss();
  std::fprintf(stderr, "[pinscope] %zu apps: %.0f ms, peak RSS %.1f MiB\n",
               small_apps, small_ms, small_peak / (1024.0 * 1024.0));

  // The large run carries the flight recorder: a 100 ms sampler whose ring
  // holds the whole run, so BENCH_stream.json can embed the sampled
  // RSS/progress timeline — the flat-RSS claim as a curve, not one number.
  obs::TelemetryOptions topts;
  topts.interval_ms = 100;
  topts.ring_capacity = 1 << 16;
  obs::Telemetry telemetry(&observer.metrics(), topts);
  std::fprintf(stderr, "[pinscope] streaming %zu apps (%d workers)...\n",
               large_apps, workers);
  telemetry.Start();
  const double large_ms = TimedStream(large_apps, workers, &observer,
                                      &telemetry);
  telemetry.Stop();
  const std::uint64_t large_peak = PeakRss();
  std::fprintf(stderr, "[pinscope] %zu apps: %.0f ms, peak RSS %.1f MiB\n",
               large_apps, large_ms, large_peak / (1024.0 * 1024.0));

  const double rss_ratio =
      small_peak > 0 ? static_cast<double>(large_peak) / small_peak : 0.0;
  const bool flat = small_peak > 0 && rss_ratio <= 2.0;
  if (!flat) {
    std::fprintf(stderr,
                 "WARNING: peak RSS grew %.2fx from %zu to %zu apps "
                 "(streaming should keep it flat)\n",
                 rss_ratio, small_apps, large_apps);
  }

  // --- Claim 3: timeline-fed autopsy costs <2% of a streaming run. --------
  // Alternating timeline-off and timeline-on runs, at least 10 pairs, over
  // a corpus whose stage bodies do real work: unique payloads with embedded
  // PEM blocks, so every scan pays a parse like a real app bundle would.
  // The corpus doubles until one untimed run takes >= 300 ms, so a pair's
  // difference is not lost in millisecond-scale scheduling noise. Each pair
  // yields one overhead; the JSON reports their median with its quartiles,
  // and the claim holds only when the upper quartile is within 2%. The
  // per-interval record cost is timed on its own as well, so the constant
  // itself stays gated. The analyzed autopsy of the last instrumented pass
  // rides along as evidence the bounded reservoir still reconstructs a
  // critical path at this scale.
  constexpr double kAutopsyMinRunMs = 300.0;
  std::size_t autopsy_apps = static_cast<std::size_t>(
      EnvInt("PINSCOPE_BENCH_STREAM_AUTOPSY", 16000));
  const int autopsy_pairs =
      std::max(10, EnvInt("PINSCOPE_BENCH_STREAM_AUTOPSY_REPS", 10));
  core::SyntheticCorpusConfig autopsy_corpus;
  autopsy_corpus.payload_bytes = 32768;
  autopsy_corpus.unique_payload = true;
  autopsy_corpus.pem_certs_in_payload = 2;
  // Untimed sizing runs, which also warm the allocator and page cache.
  while (TimedStream(autopsy_apps, workers, nullptr, nullptr, nullptr,
                     &autopsy_corpus) < kAutopsyMinRunMs) {
    autopsy_apps *= 2;
  }
  std::fprintf(stderr,
               "[pinscope] autopsy overhead: %zu apps, %d pairs of timeline "
               "off then on...\n",
               autopsy_apps, autopsy_pairs);
  std::unique_ptr<obs::Timeline> autopsy_timeline;
  std::vector<double> off_ms, on_ms, overhead_pct;
  for (int pair = 0; pair < autopsy_pairs; ++pair) {
    const double off = TimedStream(autopsy_apps, workers, nullptr, nullptr,
                                   nullptr, &autopsy_corpus);
    // Fresh timeline per instrumented run so the reported autopsy describes
    // exactly one run, not two overlaid ones.
    autopsy_timeline = std::make_unique<obs::Timeline>();
    const double on = TimedStream(autopsy_apps, workers, nullptr, nullptr,
                                  autopsy_timeline.get(), &autopsy_corpus);
    off_ms.push_back(off);
    on_ms.push_back(on);
    overhead_pct.push_back((on - off) / off * 100.0);
  }
  const double autopsy_base_ms = Quantile(off_ms, 0.5);
  const double autopsy_timeline_ms = Quantile(on_ms, 0.5);
  const double overhead_q1 = Quantile(overhead_pct, 0.25);
  const double overhead_median = Quantile(overhead_pct, 0.5);
  const double overhead_q3 = Quantile(overhead_pct, 0.75);
  const obs::Autopsy autopsy = obs::Analyze(*autopsy_timeline);
  const double record_ns_per_interval = RecordCostNsPerInterval(5);
  // The path length/weight over a *sampled* reservoir varies run to run
  // (which intervals survive sampling decides where the walk can reach),
  // so the JSON reports the unitless share of wall — informational, never
  // a gate — while the absolute numbers go to stderr for the operator.
  const double critical_path_share =
      autopsy.wall_us > 0.0 ? autopsy.critical_path_us / autopsy.wall_us : 0.0;
  std::fprintf(stderr,
               "[pinscope] autopsy: off %.0f ms, on %.0f ms (median), "
               "overhead %+.2f%% (IQR %+.2f%% .. %+.2f%%), %.0f ns/interval, "
               "critical path %zu segments / %.0f us\n",
               autopsy_base_ms, autopsy_timeline_ms, overhead_median,
               overhead_q1, overhead_q3, record_ns_per_interval, autopsy.critical_path.size(),
               autopsy.critical_path_us);

  // --- Claim 2: warm start from persisted caches. -------------------------
  core::SyntheticCorpusConfig warm_config;
  warm_config.apps_per_platform = warm_apps / 2;
  warm_config.unique_payload = true;
  warm_config.pin_strings_in_payload = 8000;
  warm_config.payload_bytes = 4096;
  const core::SyntheticCorpusSource warm_source(warm_config);

  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() / "pinscope_bench_stream_cache";
  std::filesystem::remove_all(cache_dir);

  std::string cold_json, warm_json;
  std::fprintf(stderr, "[pinscope] cold pass over %zu unique-payload apps...\n",
               warm_apps);
  const double cold_ms =
      TimedWarmablePass(warm_source, workers, cache_dir.string(), &cold_json);
  std::fprintf(stderr, "[pinscope] warm pass (persisted caches)...\n");
  const double warm_ms =
      TimedWarmablePass(warm_source, workers, cache_dir.string(), &warm_json);

  // The scan cache file the cold pass wrote, loaded into a fresh cache and
  // saved back beside it, each timed on its own.
  constexpr int kCacheReps = 5;
  const std::string scan_path = core::ScanCachePathFor(cache_dir.string());
  const std::uintmax_t scan_cache_bytes = std::filesystem::file_size(scan_path);
  std::vector<double> load_ms, save_ms;
  for (int rep = 0; rep < kCacheReps; ++rep) {
    staticanalysis::ScanCache cache;
    const auto t0 = std::chrono::steady_clock::now();
    const bool loaded = cache.LoadFromFile(scan_path);
    const auto t1 = std::chrono::steady_clock::now();
    const bool saved = cache.SaveToFile(scan_path + ".resave");
    const auto t2 = std::chrono::steady_clock::now();
    if (!loaded || !saved) {
      std::fprintf(stderr, "FATAL: scan cache %s failed\n",
                   loaded ? "save" : "load");
      return 1;
    }
    using Ms = std::chrono::duration<double, std::milli>;
    load_ms.push_back(Ms(t1 - t0).count());
    save_ms.push_back(Ms(t2 - t1).count());
  }
  std::filesystem::remove_all(cache_dir);
  std::fprintf(stderr,
               "[pinscope] scan cache %.1f MB: load %.1f ms, save %.1f ms "
               "(min)\n",
               static_cast<double>(scan_cache_bytes) / 1e6,
               *std::min_element(load_ms.begin(), load_ms.end()),
               *std::min_element(save_ms.begin(), save_ms.end()));

  if (cold_json != warm_json) {
    std::fprintf(stderr, "FATAL: warm run exported different bytes than cold\n");
    return 1;
  }
  const double warm_speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  std::fprintf(stderr,
               "[pinscope] cold %.0f ms, warm %.0f ms (%.2fx), exports "
               "byte-identical\n",
               cold_ms, warm_ms, warm_speedup);

  if (const std::size_t trace_dropped = observer.trace().DroppedCount();
      trace_dropped > 0) {
    std::fprintf(stderr,
                 "[pinscope] trace buffer full: %zu span(s) dropped beyond "
                 "the %zu-event cap (counted, not silent)\n",
                 trace_dropped, observer.trace().max_events());
  }

  char json[4096];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"benchmark\": \"stream_study\",\n"
      "  \"workers\": %d,\n"
      "  \"streaming\": {\"small_apps\": %zu, \"small_ms\": %.3f,\n"
      "                \"small_peak_rss_bytes\": %llu,\n"
      "                \"large_apps\": %zu, \"large_ms\": %.3f,\n"
      "                \"large_peak_rss_bytes\": %llu,\n"
      "                \"rss_ratio\": %.3f, \"flat_within_2x\": %s},\n"
      "  \"warm_start\": {\"apps\": %zu, \"cold_ms\": %.3f, \"warm_ms\": %.3f,\n"
      "                 \"speedup\": %.2f, \"exports_byte_identical\": true,\n"
      "                 \"scan_cache_bytes\": %llu,\n"
      "                 \"load_ms\": %s,\n"
      "                 \"save_ms\": %s},\n"
      "  \"autopsy\": {\"apps\": %zu, \"pairs\": %d,\n"
      "              \"baseline_ms\": %.3f, \"timeline_ms\": %.3f,\n"
      "              \"overhead_pct\": %.2f, \"overhead_q1_pct\": %.2f,\n"
      "              \"overhead_q3_pct\": %.2f, \"overhead_iqr_pct\": %.2f,\n"
      "              \"within_2pct\": %s,\n"
      "              \"record_cost_ns_per_interval\": %.1f,\n"
      "              \"critical_path_segments\": %zu,\n"
      "              \"critical_path_share\": %.3f,\n"
      "              \"intervals_seen\": %llu, \"intervals_sampled\": %llu,\n"
      "              \"reservoir_bytes\": %zu},\n",
      workers, small_apps, small_ms,
      static_cast<unsigned long long>(small_peak), large_apps, large_ms,
      static_cast<unsigned long long>(large_peak), rss_ratio,
      flat ? "true" : "false", warm_apps, cold_ms, warm_ms, warm_speedup,
      static_cast<unsigned long long>(scan_cache_bytes),
      SpreadJson(load_ms).c_str(), SpreadJson(save_ms).c_str(),
      autopsy_apps, autopsy_pairs, autopsy_base_ms, autopsy_timeline_ms,
      overhead_median, overhead_q1, overhead_q3, overhead_q3 - overhead_q1,
      overhead_q3 <= 2.0 ? "true" : "false", record_ns_per_interval,
      autopsy.critical_path.size(), critical_path_share,
      static_cast<unsigned long long>(autopsy.intervals_seen),
      static_cast<unsigned long long>(autopsy.intervals_sampled),
      autopsy_timeline->ReservoirCapacityBytes());

  // The sampled timeline of the large run rides along in the head (which
  // must keep ending in ",\n" for the shared phases/process embedding).
  std::string head = json;
  head += "  \"timeline\": " + telemetry.TimelineJson() + ",\n";
  return bench::WriteBenchJsonWithPhases("BENCH_stream.json", head,
                                         observer.metrics().Snapshot());
}
