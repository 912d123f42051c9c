// Cache-equivalence suite for the connection-simulation fixtures: the shared
// proxy + root stores + forged-leaf cache + chain-validation memo must be
// unobservable in results. For several generation seeds, the same ecosystem
// is analyzed with the fixtures off (serial reference) and with them on at
// threads ∈ {1, 4, hardware_concurrency}; the JSON/CSV dataset exports must
// be byte for byte identical in every configuration — the same contract the
// scan-cache suite proves for the static layer.
#include <gtest/gtest.h>

#include "core/export.h"
#include "core/study.h"
#include "testing/fixtures.h"
#include "testing/thread_grid.h"

namespace pinscope::core {
namespace {

Study RunStudy(const store::Ecosystem& eco, int threads, bool sim_cache) {
  StudyOptions opts;
  opts.threads = threads;
  opts.sim_cache = sim_cache;
  Study study(eco, opts);
  study.Run();
  return study;
}

class SimCacheEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimCacheEquivalenceTest, FixturesNeverChangeAnyExportByte) {
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());

  const Study reference = RunStudy(eco, 1, /*sim_cache=*/false);
  EXPECT_EQ(reference.sim_fixtures(), nullptr);
  const std::string json = ExportStudyJson(reference);
  const std::string csv = ExportStudyCsv(reference);
  ASSERT_FALSE(json.empty());
  ASSERT_FALSE(csv.empty());

  for (const int threads : pinscope::testing::ThreadGrid()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Study cached = RunStudy(eco, threads, /*sim_cache=*/true);
    EXPECT_EQ(json, ExportStudyJson(cached));
    EXPECT_EQ(csv, ExportStudyCsv(cached));

    // Both shared caches must actually have been exercised, and their books
    // must balance; hit attribution may vary with scheduling, which is
    // exactly why counters are not part of any export.
    ASSERT_NE(cached.sim_fixtures(), nullptr);
    const net::ForgedLeafCacheStats forged =
        cached.sim_fixtures()->forged_cache_stats();
    EXPECT_GT(forged.lookups, 0u);
    EXPECT_EQ(forged.hits + forged.misses, forged.lookups);
    EXPECT_LE(forged.entries, forged.misses);
    EXPECT_GT(forged.hits, 0u);  // The study corpus apps share destinations

    const x509::ValidationCacheStats val =
        cached.sim_fixtures()->validation_cache_stats();
    EXPECT_GT(val.lookups, 0u);
    EXPECT_EQ(val.hits + val.misses, val.lookups);
    EXPECT_LE(val.entries, val.misses);
    EXPECT_GT(val.hits, 0u);  // shared chains revalidate across apps
  }
}

TEST_P(SimCacheEquivalenceTest, FixturesOffIsAlsoThreadCountInvariant) {
  // Closes the square with the parallel suite: without fixtures the study is
  // equally schedule-free, so the two knobs are independent.
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());
  const Study serial = RunStudy(eco, 1, /*sim_cache=*/false);
  const Study parallel = RunStudy(eco, 4, /*sim_cache=*/false);
  EXPECT_EQ(ExportStudyJson(serial), ExportStudyJson(parallel));
  EXPECT_EQ(ExportStudyCsv(serial), ExportStudyCsv(parallel));
}

TEST_P(SimCacheEquivalenceTest, BothCacheLayersComposeCleanly) {
  // Scan cache off + sim cache on, and vice versa, all match the all-off
  // reference: the two memo layers are orthogonal.
  const store::Ecosystem& eco = pinscope::testing::MakeStudyCorpus(GetParam());

  StudyOptions all_off;
  all_off.threads = 1;
  all_off.scan_cache = false;
  all_off.sim_cache = false;
  Study reference(eco, all_off);
  reference.Run();
  const std::string json = ExportStudyJson(reference);
  const std::string csv = ExportStudyCsv(reference);

  for (const bool scan : {false, true}) {
    for (const bool sim : {false, true}) {
      SCOPED_TRACE("scan=" + std::to_string(scan) + " sim=" + std::to_string(sim));
      StudyOptions opts;
      opts.threads = 4;
      opts.scan_cache = scan;
      opts.sim_cache = sim;
      Study study(eco, opts);
      study.Run();
      EXPECT_EQ(json, ExportStudyJson(study));
      EXPECT_EQ(csv, ExportStudyCsv(study));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimCacheEquivalenceTest,
                         ::testing::Values(3u, 11u, 42u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pinscope::core
