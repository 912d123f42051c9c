// Scheduler-equivalence suite (DESIGN.md §13): running the study chain on
// more workers is a pure execution-order change. For every cell of the grid
//   seeds {7, 23} × threads {1, 4, hardware_concurrency} × caches {on, off}
// the study must reproduce its serial (threads = 1) run's
//   (a) JSON and CSV dataset exports,
//   (b) decision-journal JSONL (full kDebug fidelity), and
//   (c) run-report Markdown + JSON (built from verdicts + journal — the
//       wall-clock metrics section describes the run, not the results, so
//       it is excluded by construction),
// byte for byte. The sched.* metrics are also checked to be real (tasks
// counted, no failures, no scheduler lock to contend) without ever touching
// an exported byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/export.h"
#include "core/study.h"
#include "obs/obs.h"
#include "report/run_report.h"
#include "testing/fixtures.h"
#include "testing/thread_grid.h"

namespace pinscope::core {
namespace {

/// Everything a study run externalizes, captured as bytes.
struct RunOutput {
  std::string json;
  std::string csv;
  std::string journal;
  std::string report_md;
  std::string report_json;
};

struct RunConfig {
  int threads = 1;
  bool caches = true;
};

RunOutput RunStudy(const store::Ecosystem& eco, const RunConfig& config,
                   obs::Observer* external_observer = nullptr) {
  obs::Observer local_observer;
  obs::Observer& observer =
      external_observer != nullptr ? *external_observer : local_observer;
  obs::EventLog log(obs::Severity::kDebug);
  observer.set_log(&log);

  StudyOptions opts;
  opts.threads = config.threads;
  opts.scan_cache = config.caches;
  opts.sim_cache = config.caches;
  opts.observer = &observer;
  Study study(eco, opts);
  study.Run();

  RunOutput out;
  out.json = ExportStudyJson(study);
  out.csv = ExportStudyCsv(study);
  out.journal = log.ToJsonl();

  // Report from the deterministic sources only: verdicts + journal events.
  report::RunReportInput input;
  input.verdicts = CollectAppVerdicts(study);
  const std::vector<obs::LogEvent> events = log.SortedEvents();
  input.events = &events;
  out.report_md = report::WriteRunReportMarkdown(input);
  out.report_json = report::WriteRunReportJson(input);

  observer.set_log(nullptr);
  return out;
}

void ExpectSameBytes(const RunOutput& a, const RunOutput& b) {
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.report_md, b.report_md);
  EXPECT_EQ(a.report_json, b.report_json);
}

class SchedEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedEquivalenceTest, ThreadsMatchSerialAcrossTheFullGrid) {
  const store::Ecosystem& eco =
      pinscope::testing::MakeStudyCorpus(GetParam());

  for (const bool caches : {true, false}) {
    // The serial run is the reference for this cache setting.
    const RunOutput reference =
        RunStudy(eco, {.threads = 1, .caches = caches});
    ASSERT_FALSE(reference.json.empty());
    ASSERT_FALSE(reference.journal.empty());

    for (const int threads : pinscope::testing::ThreadGrid()) {
      SCOPED_TRACE("caches=" + std::to_string(caches) +
                   " threads=" + std::to_string(threads));
      ExpectSameBytes(reference,
                      RunStudy(eco, {.threads = threads, .caches = caches}));
    }
  }
}

TEST_P(SchedEquivalenceTest, SchedMetricsAreRealAndPurelyObservational) {
  const store::Ecosystem& eco =
      pinscope::testing::MakeStudyCorpus(GetParam());
  obs::Observer observer;
  const RunOutput out = RunStudy(eco, {.threads = 4}, &observer);
  ASSERT_FALSE(out.json.empty());

  const obs::MetricsSnapshot snap = observer.metrics().Snapshot();
  // Four stages per app (hydrate, static, dynamic, verdict): the task
  // counter must cover the whole corpus.
  ASSERT_TRUE(snap.counters.count("sched.tasks"));
  EXPECT_EQ(snap.counters.at("sched.tasks"),
            4 * snap.counters.at("study.apps_analyzed"));
  EXPECT_EQ(snap.counters.at("sched.failures"), 0u);  // clean run
  // Workers claim items from one atomic cursor: no scheduler lock exists.
  EXPECT_EQ(snap.counters.count("lock.sched.queue.contended"), 0u);
}

TEST_P(SchedEquivalenceTest, StreamedResultsMatchExportedVerdictSet) {
  // on_result streams in completion order; collected and re-sorted it must
  // be exactly the exported verdict set.
  const store::Ecosystem& eco =
      pinscope::testing::MakeStudyCorpus(GetParam());
  std::mutex mu;
  std::vector<std::string> streamed;
  StudyOptions opts;
  opts.threads = 4;
  opts.on_result = [&](const AppResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    streamed.push_back(r.app->meta.app_id);
  };
  Study study(eco, opts);
  study.Run();

  std::vector<std::string> exported;
  for (const report::AppVerdict& v : CollectAppVerdicts(study)) {
    exported.push_back(v.app_id);
  }
  std::sort(streamed.begin(), streamed.end());
  std::sort(exported.begin(), exported.end());
  EXPECT_EQ(streamed, exported);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedEquivalenceTest,
                         ::testing::Values(7u, 23u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pinscope::core
