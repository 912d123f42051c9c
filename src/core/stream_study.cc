#include "core/stream_study.h"

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dynamicanalysis/pipeline.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"
#include "staticanalysis/static_report.h"
#include "util/pipeline_scheduler.h"

namespace pinscope::core {

namespace {

/// Everything that exists only while one app is in flight. Heap-held so a
/// finished slot frees back to ~32 bytes; the driver's live memory is then
/// at most one payload per worker, not corpus size.
struct ChainPayload {
  /// Set only when the source keeps no resident copy of the app.
  std::optional<appmodel::App> hydrated;
  AppResult result;  ///< result.app points at the resident or hydrated app.
};

struct ChainSlot {
  appmodel::Platform platform = appmodel::Platform::kAndroid;
  std::size_t index = 0;
  std::unique_ptr<ChainPayload> payload;
};

std::unique_ptr<ChainPayload> PayloadFor(std::size_t index,
                                         const appmodel::App* app) {
  auto payload = std::make_unique<ChainPayload>();
  payload->result.universe_index = index;
  payload->result.app = app;
  return payload;
}

/// The (platform, universe index) key timeline intervals and telemetry
/// entries carry; the autopsy resolves app ids from it at report time.
std::uint64_t KeyOf(const ChainSlot& slot) {
  return obs::TelemetryKey(
      slot.platform == appmodel::Platform::kAndroid ? 0 : 1, slot.index);
}

/// The chain's one run-event subscriber: fans each scheduler event out to
/// whichever of metrics, telemetry, timeline and trace the options attach.
/// A stage's histogram sample and trace event are settled at its worker's
/// next stage begin or end, so the gap between two stages holds the claim
/// loop alone and the autopsy's unattributed residual stays the scheduler's.
class ChainEvents {
  /// Per-worker state, touched only by that worker's events.
  struct Worker {
    bool unsettled = false;  ///< A finished stage awaits Settle.
    obs::Histogram phase;    ///< Its phase.<stage>; none if it failed.
    std::chrono::steady_clock::time_point begin;
    std::chrono::steady_clock::duration elapsed{};
    obs::TraceEvent span;  ///< Named and labeled at the stage's begin.
  };

 public:
  ChainEvents(const StudyOptions& options, const std::vector<ChainSlot>& slots,
              const std::vector<util::PipelineStage>& stages)
      : slots_(slots),
        last_stage_(stages.size() - 1),
        telemetry_(options.telemetry),
        timeline_(options.timeline),
        trace_(options.observer != nullptr ? &options.observer->trace()
                                           : nullptr) {
    // A sink switched off before the run would drop every event anyway.
    if (trace_ != nullptr && !trace_->enabled()) trace_ = nullptr;
    obs::MetricsRegistry* metrics = obs::MetricsOf(options.observer);
    tasks_ = obs::CounterOrNull(metrics, "sched.tasks");
    failures_ = obs::CounterOrNull(metrics, "sched.failures");
    for (const util::PipelineStage& stage : stages) {
      phases_.push_back(obs::PhaseHistogramOrNull(metrics, "phase." + stage.name));
    }
  }

  void OnEvent(const util::RunEvent& event) {
    using Kind = util::RunEvent::Kind;
    const std::uint64_t key =
        event.kind >= Kind::kStageBegin ? KeyOf(slots_[event.item]) : 0;
    switch (event.kind) {
      case Kind::kRunBegin:
        workers_ = std::make_unique<Worker[]>(event.worker);
        break;
      case Kind::kWorkerEnd:
        Settle(workers_[event.worker]);
        if (trace_ != nullptr) {
          trace_->AddComplete(
              {.name = "sched.worker",
               .category = "sched",
               .args = {{"worker", std::to_string(event.worker)}}},
              event.time - event.elapsed, event.elapsed);
        }
        break;
      case Kind::kStageBegin:
        OnStageBegin(event, key);
        break;
      case Kind::kStageEnd:
      case Kind::kStageFailed:
        OnStageEnd(event, key);
        break;
      case Kind::kRunEnd:
      case Kind::kWorkerBegin:
        break;
    }
    if (timeline_ != nullptr) timeline_->OnEvent(event, key);
  }

 private:
  void OnStageBegin(const util::RunEvent& event, std::uint64_t key) {
    Worker& worker = workers_[event.worker];
    Settle(worker);
    if (telemetry_ == nullptr && trace_ == nullptr) return;
    // Hydrate begins before the app has an identity, so it is labeled by
    // corpus index. Only this item's chain, on this worker, touches its slot.
    const ChainSlot& slot = slots_[event.item];
    std::string app_label = slot.payload != nullptr
                                ? slot.payload->result.app->meta.app_id
                                : "app#" + std::to_string(slot.index);
    const std::string_view platform = appmodel::PlatformName(slot.platform);
    if (telemetry_ != nullptr) {
      telemetry_->OnStageStart(key, platform, app_label, event.stage_name);
    }
    if (trace_ != nullptr) {
      worker.span = {.name = std::move(app_label),
                     .category = "app",
                     .args = {{"platform", std::string(platform)},
                              {"stage", std::string(event.stage_name)}}};
    }
  }

  void OnStageEnd(const util::RunEvent& event, std::uint64_t key) {
    const bool failed = event.kind == util::RunEvent::Kind::kStageFailed;
    (failed ? failures_ : tasks_).Increment();
    if (telemetry_ != nullptr) {
      // A failed stage never completed (no OnStageEnd), but its chain is
      // done: the scheduler skips the item's later stages.
      if (!failed) telemetry_->OnStageEnd(key, event.stage_name);
      if (failed || event.stage == last_stage_) telemetry_->OnItemDone(key);
    }
    Worker& worker = workers_[event.worker];
    worker.unsettled = true;
    worker.phase = failed ? obs::Histogram() : phases_[event.stage];
    worker.begin = event.time - event.elapsed;
    worker.elapsed = event.elapsed;
    if (failed && trace_ != nullptr) {
      worker.span.args.emplace_back("error", event.message);
    }
  }

  /// Records the worker's last finished stage.
  void Settle(Worker& worker) {
    if (!worker.unsettled) return;
    worker.unsettled = false;
    worker.phase.Record(
        std::chrono::duration<double, std::micro>(worker.elapsed).count());
    if (trace_ != nullptr) {
      trace_->AddComplete(std::move(worker.span), worker.begin, worker.elapsed);
    }
  }

  const std::vector<ChainSlot>& slots_;
  std::size_t last_stage_;
  obs::Telemetry* telemetry_;
  obs::Timeline* timeline_;
  obs::TraceSink* trace_;
  obs::Counter tasks_;
  obs::Counter failures_;
  std::vector<obs::Histogram> phases_;  ///< phase.<stage>, by stage index.
  std::unique_ptr<Worker[]> workers_;  ///< Indexed by worker id.
};

}  // namespace

StreamStudyResult RunStudyChain(const CorpusSource& source,
                                const StudyOptions& options,
                                StudyCaches& caches, const ResultSink& sink) {
  obs::Observer* observer = options.observer;
  obs::MetricsRegistry* metrics = obs::MetricsOf(observer);
  const obs::Span run_span = obs::SpanFor(observer, "study.run", "study");
  obs::ScopedTimer run_timer(obs::PhaseHistogramOrNull(metrics, "phase.study"));
  // Study-level journal scope: empty platform/app sort it ahead of every
  // per-app event. Both platform_start events are emitted up front, with the
  // (possibly filtered) counts.
  obs::EventScope study_log = obs::ScopeFor(observer, "", "", "study");

  std::vector<ChainSlot> slots;
  for (const appmodel::Platform p :
       {appmodel::Platform::kAndroid, appmodel::Platform::kIos}) {
    std::vector<std::size_t> indices;
    for (const std::size_t idx : source.Indices(p)) {
      if (options.app_filter && !options.app_filter(p, idx)) continue;
      indices.push_back(idx);
    }
    study_log.Emit(obs::Severity::kInfo, "study.platform_start",
                   {{"platform", appmodel::PlatformName(p)},
                    {"apps", static_cast<std::uint64_t>(indices.size())}});
    for (const std::size_t idx : indices) {
      ChainSlot slot;
      slot.platform = p;
      slot.index = idx;
      slots.push_back(std::move(slot));
    }
  }

  // Delivers a finished (or failed) app and frees what its chain hydrated.
  auto deliver = [&](ChainSlot& slot) {
    if (options.on_result) options.on_result(slot.payload->result);
    sink(slot.platform, std::move(slot.payload->result));
    slot.payload.reset();
  };

  StreamStudyResult outcome;
  if (!slots.empty()) {
    const std::vector<util::PipelineStage> stages = {
        {"hydrate",
         [&](std::size_t i) {
           ChainSlot& slot = slots[i];
           const appmodel::App* app = source.Resident(slot.platform, slot.index);
           auto payload = PayloadFor(slot.index, app);
           if (app == nullptr) {
             payload->result.app = &payload->hydrated.emplace(
                 source.Hydrate(slot.platform, slot.index));
           }
           slot.payload = std::move(payload);
         }},
        {"static",
         [&](std::size_t i) {
           staticanalysis::StaticAnalysisOptions static_opts;
           static_opts.ct_log = &source.ct_log();
           static_opts.scan_cache = caches.scan();
           static_opts.observer = observer;
           AppResult& r = slots[i].payload->result;
           r.static_report = staticanalysis::AnalyzeStatically(*r.app, static_opts);
         }},
        {"dynamic",
         [&](std::size_t i) {
           dynamicanalysis::DynamicOptions dyn = options.dynamic;
           dyn.fixtures = caches.fixtures();
           dyn.observer = observer;
           // §4.5: the Common-iOS re-run settles 2 minutes before capture.
           if (slots[i].platform == appmodel::Platform::kIos &&
               source.NeedsCommonIosSettle(slots[i].index)) {
             dyn.settle_seconds = options.common_ios_settle_seconds;
           }
           // The pipeline derives its RNG from dyn.seed + the app id, so
           // this call cannot perturb (or race with) any other app.
           AppResult& r = slots[i].payload->result;
           r.dynamic_report =
               dynamicanalysis::RunDynamicAnalysis(*r.app, source.world(), dyn);
         }},
        {"verdict",
         [&](std::size_t i) {
           obs::CounterOrNull(metrics, "study.apps_analyzed").Increment();
           deliver(slots[i]);
         }},
    };

    util::PipelineOptions popts;
    popts.threads = options.threads;
    popts.faults = options.fault_plan;
    if (options.telemetry != nullptr) options.telemetry->AddTotal(slots.size());
    ChainEvents events(options, slots, stages);
    if (observer != nullptr || options.telemetry != nullptr ||
        options.timeline != nullptr) {
      popts.on_event = [&events](const util::RunEvent& e) { events.OnEvent(e); };
    }
    const util::PipelineResult run =
        util::RunPipeline(slots.size(), stages, popts);
    outcome.apps = slots.size() - run.failures.size();

    // A failed stage becomes the app's error verdict, with the reports it
    // had reached; siblings are untouched. An app whose hydration failed
    // still reports if the source holds it resident; otherwise it has no
    // identity to report.
    outcome.failures = run.failures.size();
    for (const util::StageFailure& f : run.failures) {
      ChainSlot& slot = slots[f.item];
      if (slot.payload == nullptr) {
        const appmodel::App* app = source.Resident(slot.platform, slot.index);
        if (app == nullptr) continue;
        slot.payload = PayloadFor(slot.index, app);
      }
      slot.payload->result.error = f.stage_name + ": " + f.message;
      deliver(slot);
      ++outcome.apps;
    }
  }

  caches.Finish();
  return outcome;
}

StreamStudyResult RunStreamingStudy(const CorpusSource& source,
                                    const StudyOptions& options,
                                    StreamExporter& exporter) {
  StudyCaches caches(options);
  return RunStudyChain(source, options, caches,
                       [&exporter](appmodel::Platform p, AppResult&& r) {
                         exporter.OnResult(p, r);
                       });
}

}  // namespace pinscope::core
