#include "core/pipeline_study.h"

#include <utility>

#include "core/study.h"
#include "obs/telemetry.h"
#include "util/pipeline_scheduler.h"

namespace pinscope::core {

std::vector<PipelineWorkItem> BuildPipelineWorkList(const Study& study) {
  std::vector<PipelineWorkItem> items;
  for (const appmodel::Platform p :
       {appmodel::Platform::kAndroid, appmodel::Platform::kIos}) {
    for (const std::size_t idx : study.PendingIndices(p)) {
      items.push_back({p, idx});
    }
  }
  return items;
}

void Study::RunPipelined(obs::EventScope& study_log) {
  // Same study-level journal events, in the same order, as RunPhased — the
  // journal sorts by logical keys, so emitting both platform_start events up
  // front (before any app runs) yields byte-identical JSONL.
  std::vector<PipelineWorkItem> items;
  for (const appmodel::Platform p :
       {appmodel::Platform::kAndroid, appmodel::Platform::kIos}) {
    const std::vector<std::size_t> indices = PendingIndices(p);
    study_log.Emit(obs::Severity::kInfo, "study.platform_start",
                   {{"platform", appmodel::PlatformName(p)},
                    {"apps", static_cast<std::uint64_t>(indices.size())}});
    for (const std::size_t idx : indices) items.push_back({p, idx});
  }
  if (items.empty()) return;

  // One pre-sized slot per work item: every stage writes only its own slot,
  // which is the whole determinism argument — completion order cannot matter
  // because nothing is shared. Identity is fixed before scheduling so even
  // an app whose first stage fails keeps a mergeable result.
  std::vector<AppResult> slots(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    slots[i].universe_index = items[i].universe_index;
    slots[i].app = &eco_->apps(items[i].platform)[items[i].universe_index];
  }

  // Each analysis stage carries its own app-level span (category "app", as
  // AnalyzeApp's single span does on the phases path), so the trace shows
  // which stage of an app's chain a worker was in.
  auto app_span = [this, &items, &slots](std::size_t i, const char* stage) {
    return obs::SpanFor(
        options_.observer, slots[i].app->meta.app_id, "app",
        {{"platform", std::string(appmodel::PlatformName(items[i].platform))},
         {"stage", stage}});
  };
  const std::vector<util::PipelineStage> stages = {
      {"static",
       [&](std::size_t i) {
         const obs::Span span = app_span(i, "static");
         RunStaticStage(slots[i]);
       }},
      {"dynamic",
       [&](std::size_t i) {
         const obs::Span span = app_span(i, "dynamic");
         RunDynamicStage(slots[i]);
       }},
      {"verdict", [&](std::size_t i) { FinishApp(slots[i]); }},
  };

  util::PipelineOptions popts;
  popts.threads = options_.threads;
  popts.max_stage_retries = options_.stage_retries;
  popts.faults = options_.fault_plan;
  popts.trace = obs::TraceOf(options_.observer);
  popts.metrics = obs::MetricsOf(options_.observer);
  // Timeline intervals carry the same (platform, universe index) key the
  // telemetry uses, so the autopsy can resolve app ids against the live
  // ecosystem at report time without the timeline retaining O(corpus) state.
  popts.timeline = options_.timeline;
  popts.timeline_key = [&items](std::size_t item) {
    return obs::TelemetryKey(
        items[item].platform == appmodel::Platform::kAndroid ? 0 : 1,
        items[item].universe_index);
  };
  if (obs::Telemetry* telemetry = options_.telemetry) {
    telemetry->AddTotal(items.size());
    // The hook wraps the whole attempt loop — fault-injected delays included
    // — so the straggler table sees a stalled stage the stage body never
    // entered. The final stage's kEnd doubles as chain completion; a kFailed
    // completes too, since the scheduler skips the item's remaining stages.
    popts.stage_hook = [telemetry, &items, &slots, &stages](
                           std::size_t item, std::size_t stage,
                           util::StageEvent event) {
      const std::uint64_t key = obs::TelemetryKey(
          items[item].platform == appmodel::Platform::kAndroid ? 0 : 1,
          items[item].universe_index);
      const std::string& name = stages[stage].name;
      switch (event) {
        case util::StageEvent::kBegin:
          telemetry->OnStageStart(
              key, appmodel::PlatformName(items[item].platform),
              slots[item].app->meta.app_id, name);
          break;
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
      util::RunPipeline(items.size(), stages, popts);

  // A failed stage becomes the app's error verdict; siblings are untouched.
  // At most one failure per item exists (later stages were skipped).
  for (const util::StageFailure& f : run.failures) {
    slots[f.item].error = f.stage_name + ": " + f.message;
  }

  std::vector<AppResult> android;
  std::vector<AppResult> ios;
  for (std::size_t i = 0; i < items.size(); ++i) {
    auto& side = items[i].platform == appmodel::Platform::kAndroid ? android : ios;
    side.push_back(std::move(slots[i]));
  }
  auto merged_android = MergeByIndex(std::move(android));
  android_results_.merge(merged_android);
  auto merged_ios = MergeByIndex(std::move(ios));
  ios_results_.merge(merged_ios);
}

}  // namespace pinscope::core
