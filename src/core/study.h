// The study driver: runs static + dynamic analysis over every dataset and
// caches per-app results for the evaluation analyses (src/core/analyses.h).
//
// This is the paper's Figure 1 pipeline, end to end: crawl (generated
// ecosystem) → static detection → two-phase dynamic detection → circumvention
// → PII inspection.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/cache_persist.h"
#include "core/corpus_source.h"
#include "dynamicanalysis/pipeline.h"
#include "dynamicanalysis/sim_fixtures.h"
#include "obs/obs.h"
#include "staticanalysis/scan_cache.h"
#include "staticanalysis/static_report.h"
#include "store/generator.h"

namespace pinscope::util {
class SchedulerFaultPlan;
}  // namespace pinscope::util

namespace pinscope::obs {
class Telemetry;
class Timeline;
}  // namespace pinscope::obs

namespace pinscope::core {

/// Combined per-app result.
struct AppResult {
  std::size_t universe_index = 0;
  const appmodel::App* app = nullptr;
  staticanalysis::StaticReport static_report;
  dynamicanalysis::DynamicReport dynamic_report;
  /// Empty on success. A stage failure is recorded here ("<stage>:
  /// <message>") instead of aborting the study; the app's remaining stages
  /// are skipped and its reports stay empty (tests/core/sched_fault_test.cc).
  /// Always empty on the normal path.
  std::string error;

  [[nodiscard]] bool failed() const { return !error.empty(); }
};

/// Study configuration.
struct StudyOptions {
  dynamicanalysis::DynamicOptions dynamic;
  /// §4.5: the Common-iOS dataset is re-run with a 2-minute settle so
  /// associated-domain verification finishes before capture.
  int common_ios_settle_seconds = 120;
  /// Worker threads: each app's whole stage chain runs on one of them and
  /// results merge back by universe index, so any value produces
  /// byte-identical results (0 = hardware concurrency, 1 = serial).
  int threads = 1;
  /// Share one corpus-wide static-scan cache across every app of the study,
  /// so files shipped identically by many apps (third-party SDKs, §5
  /// Table 7) are scanned once instead of once per app. Exports are
  /// byte-identical with the cache on or off (`ctest -L static`); off is a
  /// debugging/measurement knob, not a correctness one.
  bool scan_cache = true;
  /// Share the connection-simulation fixtures study-wide: one proxy CA +
  /// forged-leaf cache, immutable per-platform root stores, and a chain-
  /// validation memo (dynamicanalysis/sim_fixtures.h). Like scan_cache,
  /// exports are byte-identical either way (`ctest -L dynamic`); off is a
  /// debugging/measurement knob.
  bool sim_cache = true;
  /// Optional observability sink for the whole study: the run opens a study
  /// span, each app's static and dynamic stages record spans + phase-duration
  /// histograms, every layer below contributes counters, and the shared
  /// caches publish their hit-rates as gauges when the run finishes. Purely
  /// observational: exports are byte-identical with or without an observer,
  /// at any thread count (DESIGN.md §11; `ctest -L obs`).
  obs::Observer* observer = nullptr;
  /// Optional live-run telemetry (obs/telemetry.h): Run() reports the
  /// expected chain total up front, marks each app's current stage as it
  /// enters/leaves, and signals chain completion — the feed behind the
  /// progress meter, heartbeat, and straggler watchdog. Like the observer,
  /// purely observational: exports, journal, and run reports are
  /// byte-identical with telemetry attached or not (`ctest -L telemetry`).
  /// The caller owns Start()/Stop().
  obs::Telemetry* telemetry = nullptr;
  /// Optional bounded interval timeline (obs/timeline.h) feeding the run
  /// autopsy (obs/autopsy.h): per-worker stage intervals plus the idle-time
  /// taxonomy (lock-wait / tail-join / ramp-up), O(workers · cap) memory at
  /// any corpus size. Purely observational: exports, journal, and run
  /// reports are byte-identical with a timeline attached or not
  /// (`ctest -L autopsy`).
  obs::Timeline* timeline = nullptr;
  /// Test-only fault injection (delays and failures at stage entry, keyed
  /// by work-item index and stage: 0 hydrate, 1 static, 2 dynamic,
  /// 3 verdict; see util/pipeline_scheduler.h). A failed stage is final:
  /// it becomes the app's error verdict.
  const util::SchedulerFaultPlan* fault_plan = nullptr;
  /// Streaming hook: called once per app as its result is finalized, in
  /// completion order from worker threads (synchronize externally; the
  /// callback must not touch exports).
  std::function<void(const AppResult&)> on_result;
  /// When non-empty, the scan cache and validation memo warm-start from this
  /// directory when built and persist back when a run completes
  /// (core/cache_persist.h StudyCaches). A missing or corrupt file means a
  /// cold start; results are byte-identical warm or cold — only speed
  /// changes.
  std::string cache_dir;
  /// When set, only apps for which the filter returns true are analyzed —
  /// the incremental re-analysis hook (changed-apps-only mode). Results and
  /// exports then cover the filtered subset; merging with a prior full run's
  /// retained rows is the caller's job (core/stream_export.h MergeBase).
  std::function<bool(appmodel::Platform, std::size_t)> app_filter;
};

/// Keys per-app results by universe index. Completion order is irrelevant:
/// any permutation of `results` yields the same map (the merge invariant
/// Run() relies on). Indices must be unique.
[[nodiscard]] std::map<std::size_t, AppResult> MergeByIndex(
    std::vector<AppResult> results);

/// Runs and caches the full measurement over one generated ecosystem.
class Study {
 public:
  explicit Study(const store::Ecosystem& eco, StudyOptions options = {});

  /// Executes static + dynamic analysis for every app appearing in any
  /// dataset (each app analyzed once; dataset views share results) through
  /// the study chain of core/stream_study.h, borrowing each app from the
  /// ecosystem. The output is byte-identical at any options.threads because
  /// every app derives its RNG streams from the study seed + app identity
  /// (DESIGN.md §8). A second call analyzes only apps not yet analyzed.
  void Run();

  [[nodiscard]] const store::Ecosystem& ecosystem() const { return *eco_; }

  /// Result for one universe app (Run() must have completed).
  [[nodiscard]] const AppResult& result(appmodel::Platform p,
                                        std::size_t universe_index) const;

  /// Results for every member of a dataset.
  [[nodiscard]] std::vector<const AppResult*> DatasetResults(
      store::DatasetId id, appmodel::Platform p) const;

  /// All analyzed results for a platform.
  [[nodiscard]] std::vector<const AppResult*> AllResults(appmodel::Platform p) const;

  /// The study's scan cache (nullptr when options.scan_cache is off). Read
  /// its Stats() after Run() for hit/dedup observability.
  [[nodiscard]] const staticanalysis::ScanCache* scan_cache() const {
    return caches_.scan();
  }

  /// The study's shared simulation fixtures (nullptr when options.sim_cache
  /// is off). Read forged_cache_stats()/validation_cache_stats() after Run()
  /// for hit-rate observability.
  [[nodiscard]] const dynamicanalysis::SimFixtures* sim_fixtures() const {
    return caches_.fixtures();
  }

 private:
  [[nodiscard]] const std::map<std::size_t, AppResult>& results(
      appmodel::Platform p) const {
    return p == appmodel::Platform::kAndroid ? android_results_ : ios_results_;
  }

  const store::Ecosystem* eco_;
  EcosystemCorpusSource source_;
  StudyOptions options_;
  StudyCaches caches_;
  std::map<std::size_t, AppResult> android_results_;
  std::map<std::size_t, AppResult> ios_results_;
};

}  // namespace pinscope::core
