// Cache-equivalence suite: the corpus-wide scan cache must be unobservable
// in results. For several generation seeds, the same ecosystem is analyzed
// with the cache off (serial reference) and with the cache on at threads ∈
// {1, 4, hardware_concurrency}; the JSON/CSV dataset exports must be byte
// for byte identical in every configuration — mirroring the PR 1
// determinism-equivalence suite, with the cache knob as the variable.
#include <gtest/gtest.h>

#include "core/export.h"
#include "core/study.h"
#include "testing/fixtures.h"
#include "testing/thread_grid.h"

namespace pinscope::core {
namespace {

Study RunStudy(const store::Ecosystem& eco, int threads, bool scan_cache) {
  StudyOptions opts;
  opts.threads = threads;
  opts.scan_cache = scan_cache;
  Study study(eco, opts);
  study.Run();
  return study;
}

class ScanCacheEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScanCacheEquivalenceTest, CacheNeverChangesAnyExportByte) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());

  const Study reference = RunStudy(eco, 1, /*scan_cache=*/false);
  EXPECT_EQ(reference.scan_cache(), nullptr);
  const std::string json = ExportStudyJson(reference);
  const std::string csv = ExportStudyCsv(reference);
  ASSERT_FALSE(json.empty());
  ASSERT_FALSE(csv.empty());

  for (const int threads : pinscope::testing::ThreadGrid()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Study cached = RunStudy(eco, threads, /*scan_cache=*/true);
    EXPECT_EQ(json, ExportStudyJson(cached));
    EXPECT_EQ(csv, ExportStudyCsv(cached));

    // The cache must actually have been exercised, and its books must
    // balance; the per-configuration hit counts may differ (scheduling
    // decides who takes each miss), which is exactly why they are not part
    // of any export.
    ASSERT_NE(cached.scan_cache(), nullptr);
    const staticanalysis::ScanCacheStats stats = cached.scan_cache()->Stats();
    EXPECT_GT(stats.lookups, 0u);
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
    EXPECT_LE(stats.entries, stats.misses);
    EXPECT_GT(stats.hits, 0u);  // The study corpus apps share SDK artifacts
  }
}

TEST_P(ScanCacheEquivalenceTest, CacheOffIsAlsoThreadCountInvariant) {
  // Closes the square: the parallel suite proves threads don't matter with
  // the default (cached) study; this proves the uncached study is equally
  // schedule-free, so the two knobs are independent.
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const Study serial = RunStudy(eco, 1, /*scan_cache=*/false);
  const Study parallel = RunStudy(eco, 4, /*scan_cache=*/false);
  EXPECT_EQ(ExportStudyJson(serial), ExportStudyJson(parallel));
  EXPECT_EQ(ExportStudyCsv(serial), ExportStudyCsv(parallel));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanCacheEquivalenceTest,
                         ::testing::Values(3u, 11u, 42u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pinscope::core
