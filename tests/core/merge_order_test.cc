// Property test for the result-merge step: whatever order per-app chains
// complete in, merging yields the same aggregated study state. This is the
// invariant that lets Study::Run() ignore scheduling entirely.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/export.h"
#include "core/study.h"
#include "testing/fixtures.h"
#include "util/rng.h"

namespace pinscope::core {
namespace {

using appmodel::Platform;

// A stable digest of everything a merged result map contains that downstream
// analyses can observe.
std::string Fingerprint(const std::map<std::size_t, AppResult>& merged) {
  std::string out;
  for (const auto& [index, r] : merged) {
    out += std::to_string(index) + "|" + r.app->meta.app_id + "|" +
           (r.static_report.PotentialPinning() ? "S" : "-") +
           (r.static_report.ConfigPinning() ? "C" : "-") + "|";
    for (const auto& dest : r.dynamic_report.destinations) {
      out += dest.hostname + (dest.pinned ? "+p" : "-p") +
             (dest.circumvented ? "+c" : "-c") +
             (dest.weak_cipher ? "+w" : "-w") + ";";
    }
    out += "\n";
  }
  return out;
}

/// Copies of every result a finished study holds for `p`, in index order.
std::vector<AppResult> CopyResults(const Study& study, Platform p) {
  std::vector<AppResult> results;
  for (const AppResult* r : study.AllResults(p)) results.push_back(*r);
  return results;
}

TEST(MergeOrderTest, AnyCompletionPermutationYieldsIdenticalResults) {
  Study study(pinscope::testing::MakeStudyCorpus(11));
  study.Run();

  for (const Platform p : {Platform::kAndroid, Platform::kIos}) {
    SCOPED_TRACE(PlatformName(p));
    std::vector<AppResult> results = CopyResults(study, p);
    ASSERT_GT(results.size(), 1u);

    const std::string reference = Fingerprint(MergeByIndex(results));

    util::Rng rng(0xfeedface);
    for (int round = 0; round < 10; ++round) {
      std::vector<AppResult> permuted = results;  // AppResult is copyable
      rng.Shuffle(permuted);
      EXPECT_EQ(Fingerprint(MergeByIndex(std::move(permuted))), reference)
          << "permutation round " << round;
    }
  }
}

TEST(MergeOrderTest, MergedKeysAreSortedUniverseIndices) {
  Study study(pinscope::testing::MakeStudyCorpus(11));
  study.Run();
  std::vector<AppResult> results = CopyResults(study, Platform::kAndroid);
  const auto merged = MergeByIndex(std::move(results));
  std::size_t prev = 0;
  bool first = true;
  for (const auto& [index, r] : merged) {
    EXPECT_EQ(index, r.universe_index);
    if (!first) {
      EXPECT_GT(index, prev);
    }
    prev = index;
    first = false;
  }
}

TEST(MergeOrderTest, DuplicateIndexIsRejected) {
  Study study(pinscope::testing::MakeStudyCorpus(11));
  study.Run();
  std::vector<AppResult> results = CopyResults(study, Platform::kAndroid);
  ASSERT_FALSE(results.empty());
  results.push_back(results.front());
  EXPECT_THROW((void)MergeByIndex(std::move(results)), util::Error);
}

}  // namespace
}  // namespace pinscope::core
