#include "core/stream_study.h"

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dynamicanalysis/pipeline.h"
#include "obs/telemetry.h"
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

std::uint64_t KeyOf(const ChainSlot& slot) {
  return obs::TelemetryKey(
      slot.platform == appmodel::Platform::kAndroid ? 0 : 1, slot.index);
}

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
    // Each analysis stage carries an app-level span (category "app"), so the
    // trace shows which stage of an app's chain a worker was in.
    auto app_span = [&](std::size_t i, const char* stage) {
      return obs::SpanFor(
          observer, slots[i].payload->result.app->meta.app_id, "app",
          {{"platform",
            std::string(appmodel::PlatformName(slots[i].platform))},
           {"stage", stage}});
    };
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
           const obs::Span span = app_span(i, "static");
           staticanalysis::StaticAnalysisOptions static_opts;
           static_opts.ct_log = &source.ct_log();
           static_opts.scan_cache = caches.scan();
           static_opts.observer = observer;
           AppResult& r = slots[i].payload->result;
           obs::ScopedTimer timer(
               obs::PhaseHistogramOrNull(metrics, "phase.static"));
           r.static_report = staticanalysis::AnalyzeStatically(*r.app, static_opts);
         }},
        {"dynamic",
         [&](std::size_t i) {
           const obs::Span span = app_span(i, "dynamic");
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
           obs::ScopedTimer timer(
               obs::PhaseHistogramOrNull(metrics, "phase.dynamic"));
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
    popts.max_stage_retries = options.stage_retries;
    popts.faults = options.fault_plan;
    popts.trace = obs::TraceOf(observer);
    popts.metrics = metrics;
    // Timeline intervals carry the telemetry's (platform, universe index)
    // key, so the autopsy resolves app ids at report time without the
    // timeline retaining O(corpus) state.
    popts.timeline = options.timeline;
    popts.timeline_key = [&slots](std::size_t item) {
      return KeyOf(slots[item]);
    };
    if (obs::Telemetry* telemetry = options.telemetry) {
      telemetry->AddTotal(slots.size());
      // The hook wraps the whole attempt loop — fault-injected delays
      // included — so the straggler table sees a stalled stage the stage
      // body never entered. The final stage's kEnd doubles as chain
      // completion; a kFailed completes too, since the scheduler skips the
      // item's remaining stages.
      popts.stage_hook = [telemetry, &slots, &stages](std::size_t item,
                                                      std::size_t stage,
                                                      util::StageEvent event) {
        const ChainSlot& slot = slots[item];
        const std::uint64_t key = KeyOf(slot);
        const std::string& name = stages[stage].name;
        switch (event) {
          case util::StageEvent::kBegin: {
            // kBegin of "hydrate" runs before the app has an identity — the
            // straggler table then shows the corpus index instead. Safe to
            // read the payload here: only this item's (sequential) chain
            // touches its slot, and the hook precedes the stage body.
            const std::string app_id =
                slot.payload != nullptr ? slot.payload->result.app->meta.app_id
                                        : "app#" + std::to_string(slot.index);
            telemetry->OnStageStart(key, appmodel::PlatformName(slot.platform),
                                    app_id, name);
            break;
          }
          case util::StageEvent::kEnd:
            telemetry->OnStageEnd(key, name);
            if (stage + 1 == stages.size()) telemetry->OnItemDone(key);
            break;
          case util::StageEvent::kFailed:
            // Not an OnStageEnd — a failed stage never completed. OnItemDone
            // clears the in-flight entry and still counts the chain.
            telemetry->OnItemDone(key);
            break;
        }
      };
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
