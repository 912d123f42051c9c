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
#include <memory>
#include <string>
#include <vector>

#include "core/cache_persist.h"
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
  /// Empty on success. Under the pipeline scheduler a stage failure is
  /// recorded here ("<stage>: <message>") instead of aborting the study; the
  /// app's remaining stages are skipped and its reports stay empty
  /// (tests/core/sched_fault_test.cc). Always empty on the normal path.
  std::string error;

  [[nodiscard]] bool failed() const { return !error.empty(); }
};

/// How Run() schedules the per-app work.
enum class SchedulerKind {
  /// Corpus-wide fan-out per platform: all of a platform's apps run through
  /// one ParallelMap barrier before the next platform starts. The original
  /// scheduler, kept as the equivalence baseline.
  kPhases,
  /// Barrier-free per-app stage chains (static → dynamic → verdict), each
  /// run to completion on one worker (util/pipeline_scheduler.h): apps
  /// overlap across workers and platforms, and results stream out as
  /// chains complete.
  kPipeline,
};

/// Study configuration.
struct StudyOptions {
  dynamicanalysis::DynamicOptions dynamic;
  /// §4.5: the Common-iOS dataset is re-run with a 2-minute settle so
  /// associated-domain verification finishes before capture.
  int common_ios_settle_seconds = 120;
  /// Worker threads for Run(): per-app work fans out across them and merges
  /// back in universe-index order, so any value produces byte-identical
  /// results (0 = hardware concurrency, 1 = serial).
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
  /// Optional observability sink for the whole study: Run() opens study- and
  /// platform-level spans, AnalyzeApp records per-app spans + phase-duration
  /// histograms, every layer below contributes counters, and the shared
  /// caches publish their hit-rates as gauges when Run() finishes. Purely
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
  /// taxonomy (lock-wait / tail-join / ramp-up),
  /// O(workers · cap) memory at any corpus size. Pipeline scheduler only —
  /// the phase-barrier path has no per-item chains to attribute (a timeline
  /// attached there records nothing). Purely observational: exports,
  /// journal, and run reports are byte-identical with a timeline attached
  /// or not (`ctest -L autopsy`).
  obs::Timeline* timeline = nullptr;
  /// Which scheduler Run() uses. Byte-identical exports, journal, and run
  /// reports either way (`ctest -L sched`); kPhases is the measurement
  /// baseline the equivalence suite compares against.
  SchedulerKind scheduler = SchedulerKind::kPipeline;
  /// Pipeline scheduler only: re-run a failed stage this many times before
  /// recording the app's error verdict. Stage bodies overwrite their slot,
  /// so a retried stage replays cleanly.
  int stage_retries = 0;
  /// Test-only fault injection for the pipeline scheduler (delays and
  /// transient failures at stage entry, keyed by work-item index; see
  /// util/pipeline_scheduler.h).
  const util::SchedulerFaultPlan* fault_plan = nullptr;
  /// Streaming hook: called once per app as its result is finalized. Under
  /// the pipeline scheduler this fires in completion order from worker
  /// threads (synchronize externally; the callback must not touch exports);
  /// under the phase scheduler it fires in universe-index order after each
  /// platform merges.
  std::function<void(const AppResult&)> on_result;
  /// When non-empty, the scan cache and validation memo warm-start from this
  /// directory at construction and persist back when Run() completes
  /// (core/cache_persist.h). A missing or corrupt file means a cold start;
  /// results are byte-identical warm or cold — only speed changes.
  std::string cache_dir;
  /// When set, only apps for which the filter returns true are analyzed —
  /// the incremental re-analysis hook (changed-apps-only mode). Results and
  /// exports then cover the filtered subset; merging with a prior full run's
  /// retained rows is the caller's job (core/stream_export.h MergeBase).
  std::function<bool(appmodel::Platform, std::size_t)> app_filter;
};

/// Keys per-app results by universe index. Completion order is irrelevant:
/// any permutation of `results` yields the same map (the merge invariant the
/// parallel Run() relies on). Indices must be unique.
[[nodiscard]] std::map<std::size_t, AppResult> MergeByIndex(
    std::vector<AppResult> results);

/// Runs and caches the full measurement over one generated ecosystem.
class Study {
 public:
  explicit Study(const store::Ecosystem& eco, StudyOptions options = {});

  /// Executes static + dynamic analysis for every app appearing in any
  /// dataset (each app analyzed once; dataset views share results). With
  /// options.threads != 1 the per-app work units run on a thread pool; the
  /// output is byte-identical to the serial run because every app derives
  /// its RNG streams from the study seed + app identity (DESIGN.md §8).
  /// options.scheduler picks between the phase-barrier fan-out and the
  /// barrier-free per-app pipeline (DESIGN.md §13) — also byte-identical.
  void Run();

  /// Analyzes one universe app, independent of any other app's state. This
  /// is the parallel work unit; it never touches the result caches.
  [[nodiscard]] AppResult AnalyzeApp(appmodel::Platform p,
                                     std::size_t index) const;

  /// The static stage of one app's chain: fills result.static_report.
  /// result.app must be set; touches nothing outside the result (plus the
  /// internally-synchronized shared caches).
  void RunStaticStage(AppResult& result) const;

  /// The dynamic stage of one app's chain: fills result.dynamic_report
  /// (including the §4.5 Common-iOS settle override). Same isolation
  /// contract as RunStaticStage.
  void RunDynamicStage(AppResult& result) const;

  /// Universe indices of every dataset member of `p` not yet analyzed, each
  /// once, in ascending order (the deterministic work list both schedulers
  /// consume).
  [[nodiscard]] std::vector<std::size_t> PendingIndices(appmodel::Platform p) const;

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
    return scan_cache_.get();
  }

  /// The study's shared simulation fixtures (nullptr when options.sim_cache
  /// is off). Read forged_cache_stats()/validation_cache_stats() after Run()
  /// for hit-rate observability.
  [[nodiscard]] const dynamicanalysis::SimFixtures* sim_fixtures() const {
    return sim_fixtures_.get();
  }

 private:
  /// The original per-platform fan-out: one ParallelMap barrier per
  /// platform.
  void RunPhased(obs::EventScope& study_log);

  /// Barrier-free per-app stage chains over util::RunPipeline (defined in
  /// core/pipeline_study.cc).
  void RunPipelined(obs::EventScope& study_log);

  /// The pipeline scheduler's "verdict" stage: per-app counters plus the
  /// on_result streaming hook. (The phase path counts inside AnalyzeApp and
  /// streams after its merge, keeping metric totals identical.)
  void FinishApp(const AppResult& result) const;

  /// Publishes the shared caches' counters as `cache.<family>.<field>`
  /// gauges on the observer's registry (no-op without one). Gauges, not
  /// counters, so calling Run() twice republishes instead of double-counts.
  void PublishCacheStats() const;

  const store::Ecosystem* eco_;
  StudyOptions options_;
  /// Shared by every AnalyzeApp worker; internally synchronized.
  std::unique_ptr<staticanalysis::ScanCache> scan_cache_;
  /// Shared by every AnalyzeApp worker; immutable or internally synchronized.
  std::unique_ptr<dynamicanalysis::SimFixtures> sim_fixtures_;
  /// Entry counts from the constructor's warm load; Run()'s save skips any
  /// cache that has not grown past this.
  StudyCacheBaseline cache_baseline_;
  std::map<std::size_t, AppResult> android_results_;
  std::map<std::size_t, AppResult> ios_results_;
};

}  // namespace pinscope::core
