// SIMD-equivalence suite (ISSUE 7 acceptance): the multi-literal prefilter's
// vector kernels are a pure throughput change. For every cell of the grid
//   seeds {7, 23} × threads {1, 4, hardware_concurrency}
// a full study scanned with the best available SIMD level must reproduce the
// forced-portable study's
//   (a) JSON and CSV dataset exports,
//   (b) decision-journal JSONL (full kDebug fidelity), and
//   (c) run-report Markdown + JSON,
// byte for byte. The PINSCOPE_NO_SIMD knob is read when a prefilter is
// built, and AnalyzeStatically builds its Scanner (and so its prefilter) per
// call, so the forced-portable study really scans with the portable kernel;
// a level assertion checks that the knob takes effect. A second test scans
// every tree of the same corpora with and without any prefilter.
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
#include "staticanalysis/ios_decrypt.h"
#include "staticanalysis/prefilter.h"
#include "staticanalysis/scanner.h"
#include "testing/fixtures.h"
#include "testing/legacy_scan.h"
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
  // Stronger than kernel equivalence: on every tree the study scans, the
  // prefiltered scan agrees with the two-sweep oracle, which runs no
  // prefilter at all (PemDecodeAll plus std::regex over kPinPattern).
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const staticanalysis::Scanner scanner;
  std::size_t certificates = 0;
  std::size_t pins = 0;
  for (const appmodel::Platform platform :
       {appmodel::Platform::kAndroid, appmodel::Platform::kIos}) {
    for (const appmodel::App& app : eco.apps(platform)) {
      SCOPED_TRACE(app.meta.app_id);
      std::vector<const appmodel::PackageFiles*> trees = {&app.package};
      staticanalysis::DecryptResult dec;
      if (platform == appmodel::Platform::kIos) {
        dec = staticanalysis::DecryptIpa(app.package, app.meta.app_id,
                                         staticanalysis::DecryptionDevice{});
        if (dec.ok) trees.push_back(&dec.files);
      }
      for (const appmodel::PackageFiles* tree : trees) {
        const staticanalysis::ScanResult prefiltered = scanner.Scan(*tree);
        pinscope::testing::ExpectSameScan(prefiltered,
                                          pinscope::testing::LegacyScan(*tree));
        certificates += prefiltered.certificates.size();
        pins += prefiltered.pins.size();
      }
    }
  }
  // Not vacuous: the corpus embeds certificates and pins.
  EXPECT_GT(certificates, 0u);
  EXPECT_GT(pins, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdEquivalenceTest,
                         ::testing::Values(std::uint64_t{7},
                                           std::uint64_t{23}));

}  // namespace
}  // namespace pinscope::core
