// Streaming-study equivalence suite (DESIGN.md §15). Three contracts:
//
//  1. Streamed == materialized: a streaming run over an EcosystemCorpusSource
//     (whose apps the chain borrows) and over a source that keeps nothing
//     resident (so the chain copies every app through Hydrate) exports
//     byte-identical JSON/CSV, verdicts, debug journal and run report to the
//     batch Study over the same ecosystem, for every cell of
//     seeds {7, 23} × threads {1, 4, hardware}.
//  2. Warm == cold: re-running with a persisted --cache-dir changes no
//     exported byte, and a damaged cache file silently degrades to a cold
//     start with — again — identical bytes.
//  3. Incremental == full: after one snapshot of store churn, re-analyzing
//     only the changed apps and merging over the previous run's rows equals
//     re-analyzing everything.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/cache_persist.h"
#include "core/corpus_source.h"
#include "core/export.h"
#include "core/stream_export.h"
#include "core/stream_study.h"
#include "core/study.h"
#include "obs/obs.h"
#include "report/run_report.h"
#include "store/generator.h"
#include "testing/fixtures.h"
#include "testing/thread_grid.h"

namespace pinscope::core {
namespace {

/// Everything a run externalizes, with verdicts rendered to text so the
/// comparison is a straight byte equality.
struct RunBytes {
  std::string json;
  std::string csv;
  std::string verdicts;
  /// Debug journal and run report (Markdown + JSON, from verdicts and
  /// journal only); filled by RunStreamed and RunMaterialized.
  std::string journal;
  std::string report;
};

/// The same ecosystem with nothing resident: Resident() stays nullptr, so
/// the study chain copies every app through Hydrate.
class CopyingSource final : public CorpusSource {
 public:
  explicit CopyingSource(const store::Ecosystem& eco) : inner_(eco) {}

  [[nodiscard]] const appmodel::ServerWorld& world() const override {
    return inner_.world();
  }
  [[nodiscard]] const x509::CtLog& ct_log() const override {
    return inner_.ct_log();
  }
  [[nodiscard]] std::vector<std::size_t> Indices(
      appmodel::Platform p) const override {
    return inner_.Indices(p);
  }
  [[nodiscard]] appmodel::App Hydrate(appmodel::Platform p,
                                      std::size_t index) const override {
    return inner_.Hydrate(p, index);
  }
  [[nodiscard]] bool NeedsCommonIosSettle(std::size_t index) const override {
    return inner_.NeedsCommonIosSettle(index);
  }

 private:
  EcosystemCorpusSource inner_;
};

/// Captures a run's debug journal, then renders it with `verdicts`.
class JournalCapture {
 public:
  JournalCapture() { observer_.set_log(&log_); }
  [[nodiscard]] obs::Observer* observer() { return &observer_; }

  void Render(const std::vector<report::AppVerdict>& verdicts, RunBytes& out) {
    out.journal = log_.ToJsonl();
    report::RunReportInput input;
    input.verdicts = verdicts;
    const std::vector<obs::LogEvent> events = log_.SortedEvents();
    input.events = &events;
    out.report = report::WriteRunReportMarkdown(input) +
                 report::WriteRunReportJson(input);
  }

 private:
  obs::Observer observer_;
  obs::EventLog log_{obs::Severity::kDebug};
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

struct StreamConfig {
  int threads = 1;
  std::string cache_dir;
  std::function<bool(appmodel::Platform, std::size_t)> app_filter;
  /// Stream through CopyingSource instead of EcosystemCorpusSource.
  bool copy_apps = false;
};

RunBytes RunStreamed(const store::Ecosystem& eco, const StreamConfig& config,
                     StreamExporter* exporter_out = nullptr) {
  const EcosystemCorpusSource resident(eco);
  const CopyingSource copying(eco);
  const CorpusSource& source =
      config.copy_apps ? static_cast<const CorpusSource&>(copying) : resident;
  JournalCapture capture;
  StudyOptions opts;
  opts.threads = config.threads;
  opts.cache_dir = config.cache_dir;
  opts.app_filter = config.app_filter;
  opts.observer = capture.observer();
  StreamExporter local;
  StreamExporter& exporter =
      exporter_out != nullptr ? *exporter_out : local;
  (void)RunStreamingStudy(source, opts, exporter);
  RunBytes out{exporter.FinishJson(), exporter.FinishCsv(),
               RenderVerdicts(exporter.FinishVerdicts()), {}, {}};
  capture.Render(exporter.FinishVerdicts(), out);
  return out;
}

RunBytes RunMaterialized(const store::Ecosystem& eco, int threads) {
  JournalCapture capture;
  StudyOptions opts;
  opts.threads = threads;
  opts.observer = capture.observer();
  Study study(eco, opts);
  study.Run();
  RunBytes out{ExportStudyJson(study), ExportStudyCsv(study),
               RenderVerdicts(CollectAppVerdicts(study)), {}, {}};
  capture.Render(CollectAppVerdicts(study), out);
  return out;
}

void ExpectSameBytes(const RunBytes& a, const RunBytes& b) {
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.verdicts, b.verdicts);
}

class StreamEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(StreamEquivalenceTest, StreamedMatchesMaterializedAcrossTheGrid) {
  const store::Ecosystem& eco =
      pinscope::testing::MakeStudyCorpus(GetParam());
  const RunBytes reference = RunMaterialized(eco, /*threads=*/1);
  ASSERT_FALSE(reference.json.empty());
  ASSERT_FALSE(reference.journal.empty());

  for (const int threads : pinscope::testing::ThreadGrid()) {
    for (const bool copy_apps : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " copy_apps=" + std::to_string(copy_apps));
      StreamConfig config;
      config.threads = threads;
      config.copy_apps = copy_apps;
      const RunBytes streamed = RunStreamed(eco, config);
      ExpectSameBytes(reference, streamed);
      EXPECT_EQ(reference.journal, streamed.journal);
      EXPECT_EQ(reference.report, streamed.report);
    }
  }
}

TEST_P(StreamEquivalenceTest, WarmStartAndDamagedCachesNeverChangeAByte) {
  const store::Ecosystem& eco =
      pinscope::testing::MakeStudyCorpus(GetParam());
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("pinscope_stream_warm_test_" + std::to_string(GetParam()));
  std::filesystem::remove_all(dir);

  StreamConfig cached;
  cached.threads = 4;
  cached.cache_dir = dir.string();
  const RunBytes cold = RunStreamed(eco, cached);
  ASSERT_FALSE(cold.json.empty());
  ASSERT_TRUE(std::filesystem::exists(ScanCachePathFor(dir.string())));
  ASSERT_TRUE(std::filesystem::exists(ValidationCachePathFor(dir.string())));

  const RunBytes warm = RunStreamed(eco, cached);
  ExpectSameBytes(cold, warm);

  // Damage both files differently: a flipped byte in one, free-form junk in
  // the other. The next run must fall back to a cold start — same bytes.
  {
    const std::string scan_path = ScanCachePathFor(dir.string());
    std::fstream f(scan_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    char last = 0;
    f.seekg(-1, std::ios::end);
    f.read(&last, 1);
    f.seekp(-1, std::ios::end);
    last = static_cast<char>(last ^ 0x01);
    f.write(&last, 1);
  }
  {
    std::ofstream f(ValidationCachePathFor(dir.string()),
                    std::ios::binary | std::ios::trunc);
    f << "this is not a cache file";
  }
  const RunBytes recovered = RunStreamed(eco, cached);
  ExpectSameBytes(cold, recovered);

  std::filesystem::remove_all(dir);
}

TEST_P(StreamEquivalenceTest, IncrementalReanalysisMatchesFullReanalysis) {
  store::EcosystemConfig config;
  config.seed = GetParam();
  config.scale = 24.0 / 5333.0;
  // Aggressive churn so even the mini corpus has changed apps to re-analyze.
  store::ChurnConfig churn_config;
  churn_config.host_renewal_rate = 0.5;
  churn_config.app_update_rate = 0.5;

  StreamConfig full_config;
  full_config.threads = 4;

  // Reference: churn, then re-analyze everything.
  store::Ecosystem full_eco = store::Ecosystem::Generate(config);
  (void)full_eco.AdvanceSnapshot(churn_config);
  const RunBytes reference = RunStreamed(full_eco, full_config);

  // Incremental: analyze snapshot 0, churn, re-analyze only changed apps,
  // merge this run's rows over the baseline's.
  store::Ecosystem inc_eco = store::Ecosystem::Generate(config);
  StreamExporter baseline;
  (void)RunStreamed(inc_eco, full_config, &baseline);
  const store::SnapshotChurn churn = inc_eco.AdvanceSnapshot(churn_config);
  ASSERT_FALSE(churn.changed_apps.empty())
      << "vacuous churn — raise the rates";

  std::set<std::pair<appmodel::Platform, std::size_t>> changed(
      churn.changed_apps.begin(), churn.changed_apps.end());
  StreamConfig delta_config;
  delta_config.threads = 4;
  delta_config.app_filter = [&changed](appmodel::Platform p,
                                       std::size_t idx) {
    return changed.contains({p, idx});
  };
  StreamExporter merged;
  (void)RunStreamed(inc_eco, delta_config, &merged);
  // The filter must actually have excluded unchanged apps, or this test
  // proves nothing.
  ASSERT_LT(merged.results(), baseline.results());

  merged.MergeBase(baseline);
  ExpectSameBytes(reference,
                  {merged.FinishJson(), merged.FinishCsv(),
                   RenderVerdicts(merged.FinishVerdicts()), {}, {}});
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamEquivalenceTest,
                         ::testing::Values(7u, 23u),
                         [](const ::testing::TestParamInfo<std::uint64_t>&
                                info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pinscope::core
