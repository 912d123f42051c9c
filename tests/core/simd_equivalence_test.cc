// SIMD-equivalence suite (ISSUE 7 acceptance): the multi-literal prefilter's
// vector kernels are a pure throughput change. For every cell of the grid
//   seeds {7, 23} × threads {1, 4, hardware_concurrency}
// a full study scanned with the best available SIMD level must reproduce the
// forced-portable study's
//   (a) JSON and CSV dataset exports,
//   (b) decision-journal JSONL (full kDebug fidelity), and
//   (c) run-report Markdown + JSON,
// byte for byte. The PINSCOPE_NO_SIMD / PINSCOPE_NO_PREFILTER knobs are read
// at scanner construction, so each study builds fresh scanners under the
// scoped environment; a level assertion guards against a vacuous comparison
// (both sides silently portable).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/export.h"
#include "core/study.h"
#include "crypto/cpu.h"
#include "obs/obs.h"
#include "report/run_report.h"
#include "staticanalysis/prefilter.h"
#include "testing/fixtures.h"
#include "testing/thread_grid.h"

namespace pinscope::core {
namespace {

/// Scoped setenv/unsetenv so a failing assertion cannot leak a knob into
/// later tests in this binary.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    ::setenv(name, "1", /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

/// Everything a study run externalizes, captured as bytes.
struct RunOutput {
  std::string json;
  std::string csv;
  std::string journal;
  std::string report_md;
  std::string report_json;
};

RunOutput RunStudy(const store::Ecosystem& eco, int threads) {
  obs::Observer observer;
  obs::EventLog log(obs::Severity::kDebug);
  observer.set_log(&log);

  StudyOptions opts;
  opts.threads = threads;
  opts.observer = &observer;
  Study study(eco, opts);
  study.Run();

  RunOutput out;
  out.json = ExportStudyJson(study);
  out.csv = ExportStudyCsv(study);
  out.journal = log.ToJsonl();

  report::RunReportInput input;
  input.verdicts = CollectAppVerdicts(study);
  const std::vector<obs::LogEvent> events = log.SortedEvents();
  input.events = &events;
  out.report_md = report::WriteRunReportMarkdown(input);
  out.report_json = report::WriteRunReportJson(input);

  observer.set_log(nullptr);
  return out;
}

class SimdEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimdEquivalenceTest, SimdAndPortableScansExportIdenticalBytes) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());

  for (const int threads : pinscope::testing::ThreadGrid()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RunOutput simd = RunStudy(eco, threads);
    ASSERT_FALSE(simd.json.empty());
    ASSERT_FALSE(simd.journal.empty());

    {
      const ScopedEnv no_simd("PINSCOPE_NO_SIMD");
      // Not vacuous: forcing the knob really changes the kernel in play.
      const staticanalysis::MultiLiteralPrefilter probe({"sha"});
      ASSERT_EQ(probe.level(), crypto::cpu::SimdLevel::kPortable);

      const RunOutput portable = RunStudy(eco, threads);
      EXPECT_EQ(simd.json, portable.json);
      EXPECT_EQ(simd.csv, portable.csv);
      EXPECT_EQ(simd.journal, portable.journal);
      EXPECT_EQ(simd.report_md, portable.report_md);
      EXPECT_EQ(simd.report_json, portable.report_json);
    }
  }
}

TEST_P(SimdEquivalenceTest, DisablingThePrefilterEntirelyChangesNoByte) {
  // Stronger than kernel equivalence: the legacy per-pattern anchor sweep
  // (no prefilter at all) must agree with the prefiltered scan too.
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const RunOutput with_prefilter = RunStudy(eco, 1);
  const ScopedEnv no_prefilter("PINSCOPE_NO_PREFILTER");
  const RunOutput legacy = RunStudy(eco, 1);
  EXPECT_EQ(with_prefilter.json, legacy.json);
  EXPECT_EQ(with_prefilter.csv, legacy.csv);
  EXPECT_EQ(with_prefilter.journal, legacy.journal);
  EXPECT_EQ(with_prefilter.report_md, legacy.report_md);
  EXPECT_EQ(with_prefilter.report_json, legacy.report_json);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdEquivalenceTest,
                         ::testing::Values(std::uint64_t{7},
                                           std::uint64_t{23}));

}  // namespace
}  // namespace pinscope::core
