// Fault-injection suite for the study chain (DESIGN.md §13): a slow
// or failing app must never stall its siblings, stage failures surface as
// per-app error verdicts instead of aborted studies, and transient failures
// recovered by retries leave no trace — exports and journal stay
// byte-identical to a fault-free run (faults inject at stage *entry*, before
// the stage body writes anything).
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/export.h"
#include "core/corpus_source.h"
#include "core/study.h"
#include "obs/obs.h"
#include "report/run_report.h"
#include "testing/fixtures.h"
#include "util/pipeline_scheduler.h"

namespace pinscope::core {
namespace {

using namespace std::chrono_literals;

/// The chain's stage indices, as SchedulerFaultPlan::Set takes them.
constexpr std::size_t kHydrate = 0;
constexpr std::size_t kStatic = 1;
constexpr std::size_t kDynamic = 2;

/// One work item of the chain: (platform, universe index).
using WorkItem = std::pair<appmodel::Platform, std::size_t>;

/// The chain's work list in item order: every Android index, then every
/// iOS index, each ascending.
std::vector<WorkItem> WorkList(const store::Ecosystem& eco) {
  const EcosystemCorpusSource source(eco);
  std::vector<WorkItem> items;
  for (const appmodel::Platform p :
       {appmodel::Platform::kAndroid, appmodel::Platform::kIos}) {
    for (const std::size_t idx : source.Indices(p)) items.emplace_back(p, idx);
  }
  return items;
}

/// One run plus everything it externalized.
struct FaultRun {
  Study study;
  std::string json;
  std::string csv;
  std::string journal;
  /// platform/app_id of every result with failed() set, sorted.
  std::vector<std::string> failed_apps;
};

FaultRun RunWithFaults(const store::Ecosystem& eco,
                      const util::SchedulerFaultPlan* plan, int retries,
                      std::function<void(const AppResult&)> on_result = {},
                      obs::Observer* external_observer = nullptr) {
  obs::Observer local_observer;
  obs::Observer& observer =
      external_observer != nullptr ? *external_observer : local_observer;
  obs::EventLog log(obs::Severity::kDebug);
  observer.set_log(&log);

  StudyOptions opts;
  opts.threads = 4;
  opts.fault_plan = plan;
  opts.stage_retries = retries;
  opts.observer = &observer;
  opts.on_result = std::move(on_result);

  FaultRun run{Study(eco, opts), {}, {}, {}, {}};
  run.study.Run();
  run.json = ExportStudyJson(run.study);
  run.csv = ExportStudyCsv(run.study);
  run.journal = log.ToJsonl();
  for (const appmodel::Platform p :
       {appmodel::Platform::kAndroid, appmodel::Platform::kIos}) {
    for (const AppResult* r : run.study.AllResults(p)) {
      if (r->failed()) {
        run.failed_apps.push_back(std::string(appmodel::PlatformName(p)) +
                                  "/" + r->app->meta.app_id);
      }
    }
  }
  observer.set_log(nullptr);
  return run;
}

/// platform/app_id → rendered verdict line, for per-app comparison between a
/// faulty run and a clean one.
std::map<std::string, std::string> VerdictsByApp(const Study& study) {
  std::map<std::string, std::string> verdicts;
  for (const report::AppVerdict& v : CollectAppVerdicts(study)) {
    std::string line = std::string(v.pins_at_runtime ? "runtime " : "") +
                       (v.potential_pinning ? "potential " : "") +
                       (v.config_pinning ? "config " : "");
    for (const std::string& host : v.pinned_hosts) line += host + " ";
    verdicts[v.platform + "/" + v.app_id] = line;
  }
  return verdicts;
}

TEST(SchedFaultTest, SlowAppNeverStallsSiblings) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(7);
  const std::vector<WorkItem> work = WorkList(eco);
  ASSERT_GT(work.size(), 8u);

  // Work item 0's static stage sleeps. With a barrier after each stage no
  // app could finish before the slow one cleared static; barrier-free, the
  // siblings' whole chains stream out during the sleep and the slow app
  // lands in the back half of the completion order.
  util::SchedulerFaultPlan plan;
  plan.Set(kStatic, /*item=*/0, {.delay = 750ms, .fail_times = 0});

  std::mutex mu;
  std::vector<std::pair<appmodel::Platform, std::size_t>> completion_order;
  const FaultRun slow =
      RunWithFaults(eco, &plan, /*retries=*/0, [&](const AppResult& r) {
        std::lock_guard<std::mutex> lock(mu);
        completion_order.emplace_back(r.app->meta.platform, r.universe_index);
      });
  EXPECT_TRUE(slow.failed_apps.empty());
  ASSERT_EQ(completion_order.size(), work.size());

  const WorkItem slow_app = work[0];
  std::size_t position = completion_order.size();
  for (std::size_t i = 0; i < completion_order.size(); ++i) {
    if (completion_order[i] == slow_app) position = i;
  }
  ASSERT_LT(position, completion_order.size());  // it did complete
  EXPECT_GE(position, completion_order.size() / 2)
      << "siblings waited for the slow app";

  // The delay was pure schedule perturbation: results match a clean run.
  const FaultRun clean = RunWithFaults(eco, nullptr, 0);
  EXPECT_EQ(clean.json, slow.json);
  EXPECT_EQ(clean.csv, slow.csv);
  EXPECT_EQ(clean.journal, slow.journal);
}

TEST(SchedFaultTest, FailingAppSurfacesAsErrorVerdictNotAbortedStudy) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(7);
  util::SchedulerFaultPlan plan;
  // More failures than the retry budget: item 2's static stage and item 4's
  // hydrate stage are terminal.
  plan.Set(kStatic, /*item=*/2, {.delay = 0ms, .fail_times = 1000000});
  plan.Set(kHydrate, /*item=*/4, {.delay = 0ms, .fail_times = 1000000});

  const FaultRun out = RunWithFaults(eco, &plan, /*retries=*/1);
  ASSERT_EQ(out.failed_apps.size(), 2u);

  for (const auto& [index, stage] :
       {std::pair<std::size_t, std::string>{2, "static:"}, {4, "hydrate:"}}) {
    const WorkItem item = WorkList(eco)[index];
    // Even an app whose hydration failed has a result: the study holds it
    // resident, so it keeps its identity.
    const AppResult& failed = out.study.result(item.first, item.second);
    ASSERT_TRUE(failed.failed());
    EXPECT_EQ(failed.error.rfind(stage, 0), 0u) << failed.error;
    EXPECT_EQ(failed.app, &eco.apps(item.first)[item.second]);
    // The fault fired before the stage body: the report was never written.
    EXPECT_TRUE(failed.static_report.app_id.empty());
  }

  // Every sibling's verdicts are untouched by the failure.
  const FaultRun clean = RunWithFaults(eco, nullptr, 0);
  EXPECT_TRUE(clean.failed_apps.empty());
  const std::map<std::string, std::string> clean_verdicts =
      VerdictsByApp(clean.study);
  const std::map<std::string, std::string> faulty_verdicts =
      VerdictsByApp(out.study);
  ASSERT_EQ(clean_verdicts.size(), faulty_verdicts.size());
  for (const auto& [app, verdict] : clean_verdicts) {
    if (app == out.failed_apps[0] || app == out.failed_apps[1]) continue;
    EXPECT_EQ(faulty_verdicts.at(app), verdict) << app;
  }
  // And the study as a whole completed: exports and journal exist.
  EXPECT_FALSE(out.json.empty());
  EXPECT_FALSE(out.journal.empty());
}

TEST(SchedFaultTest, TransientFailureRecoversWithRetriesByteIdentically) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(7);
  const FaultRun clean = RunWithFaults(eco, nullptr, 0);

  util::SchedulerFaultPlan plan;
  plan.Set(kStatic, /*item=*/1, {.delay = 5ms, .fail_times = 2});
  plan.Set(kDynamic, /*item=*/3, {.delay = 0ms, .fail_times = 1});
  const FaultRun retried = RunWithFaults(eco, &plan, /*retries=*/2);

  // Both faults were transient and the budget covered them: no error
  // verdicts, and — because injection precedes the stage body — the retried
  // stages replayed cleanly. Byte-identical everything.
  EXPECT_TRUE(retried.failed_apps.empty());
  EXPECT_EQ(clean.json, retried.json);
  EXPECT_EQ(clean.csv, retried.csv);
  EXPECT_EQ(clean.journal, retried.journal);
}

TEST(SchedFaultTest, DynamicStageFaultIsAttributedToTheDynamicStage) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(23);
  util::SchedulerFaultPlan plan;
  plan.Set(kDynamic, /*item=*/0, {.delay = 0ms, .fail_times = 1000000});

  obs::Observer observer;
  const FaultRun out = RunWithFaults(eco, &plan, /*retries=*/0, {}, &observer);
  ASSERT_EQ(out.failed_apps.size(), 1u);

  const WorkItem item = WorkList(eco)[0];
  const AppResult& failed = out.study.result(item.first, item.second);
  ASSERT_TRUE(failed.failed());
  EXPECT_NE(failed.error.find("dynamic:"), std::string::npos) << failed.error;
  // The chain ran front to back: static completed before the dynamic fault.
  EXPECT_EQ(failed.static_report.app_id, failed.app->meta.app_id);

  // sched.* metrics recorded the failure.
  const obs::MetricsSnapshot snap = observer.metrics().Snapshot();
  ASSERT_TRUE(snap.counters.count("sched.failures"));
  EXPECT_EQ(snap.counters.at("sched.failures"), 1u);
}

}  // namespace
}  // namespace pinscope::core
