// Unit tests for obs::ShardedMemo, the first-insert-wins map behind
// ScanCache, ValidationCache and ForgedLeafCache (the per-cache suites cover
// their key semantics). The suite carries the `dynamic` ctest label and runs
// under ThreadSanitizer.
#include "obs/sharded_memo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace pinscope::obs {
namespace {

/// Picks the shard from bits the bucket hash does not lean on, as the
/// study caches do.
struct HighBits {
  std::size_t operator()(std::uint64_t k) const { return k >> 4; }
};

using IdMemo = ShardedMemo<std::uint64_t, std::shared_ptr<const std::uint64_t>,
                           std::hash<std::uint64_t>, HighBits>;

TEST(ShardedMemoTest, RacingInsertsAllGetTheResidentValue) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 200;
  IdMemo memo;
  // resident[t][k]: the value thread t continued with for key k.
  std::vector<std::vector<std::shared_ptr<const std::uint64_t>>> resident(
      kThreads, std::vector<std::shared_ptr<const std::uint64_t>>(kKeys));
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Every thread walks the same keys in the same order and inserts a
      // value of its own for each, so first inserts race on every key.
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        (void)memo.Find(k);
        resident[t][k] =
            memo.Insert(k, std::make_shared<const std::uint64_t>(k));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (std::uint64_t k = 0; k < kKeys; ++k) {
    SCOPED_TRACE("key " + std::to_string(k));
    const auto found = memo.Find(k);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(**found, k);
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(resident[t][k], *found);
  }
  const MemoStats stats = memo.Stats();
  EXPECT_EQ(stats.entries, kKeys);
  EXPECT_EQ(memo.EntryCount(), kKeys);
  EXPECT_EQ(stats.lookups, kThreads * kKeys + kKeys);
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  // The first insert of each key follows a Find that missed.
  EXPECT_GE(stats.misses, kKeys);
}

TEST(ShardedMemoTest, SortedSnapshotIsIndependentOfInsertOrder) {
  using Memo = ShardedMemo<std::uint64_t, std::uint64_t,
                           std::hash<std::uint64_t>, HighBits>;
  constexpr std::uint64_t kKeys = 307;  // spans every shard
  Memo ascending;
  for (std::uint64_t k = 0; k < kKeys; ++k) ascending.Insert(k, k * k);
  Memo strided;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::uint64_t k = (i * 31) % kKeys;  // 307 is prime
    strided.Insert(k, k * k);
    strided.Insert(k, 0);  // a losing second insert changes nothing
  }

  auto sorted = [](std::vector<std::pair<std::uint64_t, std::uint64_t>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const auto a = sorted(ascending.Snapshot());
  const auto b = sorted(strided.Snapshot());
  ASSERT_EQ(a.size(), kKeys);
  EXPECT_EQ(a, b);
  EXPECT_EQ(strided.Stats().entries, strided.EntryCount());
}

/// ForgedLeafCache's hash: transparent, and the shard choice too.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

TEST(ShardedMemoTest, TransparentHashFindsStringKeysByView) {
  ShardedMemo<std::string, int, StringHash, StringHash> memo;
  EXPECT_EQ(memo.Insert("api.example.com", 1), 1);
  EXPECT_EQ(memo.Insert("api.example.com", 2), 1);
  const std::string_view view = "api.example.com";
  EXPECT_EQ(memo.Find(view).value_or(0), 1);
  EXPECT_FALSE(memo.Find(std::string_view("cdn.example.com")).has_value());
  const MemoStats stats = memo.Stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

}  // namespace
}  // namespace pinscope::obs
