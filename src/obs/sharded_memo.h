// The concurrent first-insert-wins memo behind the study caches
// (DESIGN.md §9-§10).
//
// ScanCache (content digest → scan outcome), ValidationCache (validation
// tuple → result) and ForgedLeafCache (hostname → forged chain) all memoize
// a pure function of their key across every worker of a study. They share
// this one map: 16 shards, each an unordered_map under its own TrackedMutex,
// with the shard chosen by `ShardOf` and the bucket by `Hash`. Each cache
// supplies both so that shard choice and within-shard bucketing stay
// independent (they read different key bytes).
//
// Inserts are first-wins: a racing worker that computed the same key
// deposits an identical value (the function is pure), so which insert lands
// is unobservable and every caller continues with the resident value.
// Entries are never erased or replaced.
//
// The lookups/hits/entries counters are relaxed atomics: approximate while
// workers are running, exact once they have joined.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/mutex.h"

namespace pinscope::obs {

/// Counter snapshot of one memo.
struct MemoStats {
  std::size_t lookups = 0;  ///< Find calls.
  std::size_t hits = 0;     ///< Finds served a resident value.
  std::size_t misses = 0;   ///< lookups - hits.
  std::size_t entries = 0;  ///< Distinct keys stored (winning inserts).

  [[nodiscard]] double HitRate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

/// Thread-safe Key → Value memo. `Hash` buckets keys within a shard (mark it
/// `is_transparent` to look up by a key view, e.g. string_view for string
/// keys); `ShardOf` maps a key (or view) to an integer whose residue picks
/// the shard.
template <class Key, class Value, class Hash, class ShardOf>
class ShardedMemo {
 public:
  static constexpr std::size_t kShards = 16;

  /// Looks up `key`. Counts one lookup, and one hit when found.
  template <class K>
  [[nodiscard]] std::optional<Value> Find(const K& key) {
    lookups_.fetch_add(1, std::memory_order_relaxed);
    Shard& shard = ShardFor(key);
    std::optional<Value> found;
    {
      std::lock_guard<TrackedMutex> lock(shard.mu);
      const auto it = shard.map.find(key);
      if (it != shard.map.end()) found = it->second;
    }
    if (found.has_value()) hits_.fetch_add(1, std::memory_order_relaxed);
    return found;
  }

  /// Deposits `value` unless `key` is already resident (first insert wins)
  /// and returns the resident value, so racing callers all continue with one
  /// canonical entry.
  Value Insert(Key key, Value value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<TrackedMutex> lock(shard.mu);
    const auto [it, inserted] =
        shard.map.try_emplace(std::move(key), std::move(value));
    if (inserted) entries_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  /// Resident entry count, measured by walking the shards (equal to
  /// Stats().entries once the inserting workers have joined).
  [[nodiscard]] std::size_t EntryCount() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<TrackedMutex> lock(shard.mu);
      n += shard.map.size();
    }
    return n;
  }

  /// Copies every entry out, in shard order (unsorted; savers sort by key).
  [[nodiscard]] std::vector<std::pair<Key, Value>> Snapshot() const {
    std::vector<std::pair<Key, Value>> entries;
    for (const Shard& shard : shards_) {
      std::lock_guard<TrackedMutex> lock(shard.mu);
      entries.insert(entries.end(), shard.map.begin(), shard.map.end());
    }
    return entries;
  }

  [[nodiscard]] MemoStats Stats() const {
    MemoStats stats;
    stats.lookups = lookups_.load(std::memory_order_relaxed);
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = stats.lookups - stats.hits;
    stats.entries = entries_.load(std::memory_order_relaxed);
    return stats;
  }

  /// Binds every shard's lock to the `lock.<name>.contended` /
  /// `lock.<name>.wait_us` family (obs/mutex.h) so the run autopsy's
  /// idle-time attribution covers the memo. Null-safe; call before the memo
  /// is shared across workers.
  void AttachMetrics(MetricsRegistry* metrics, std::string_view name) {
    for (Shard& shard : shards_) shard.mu.Attach(metrics, name);
  }

 private:
  struct Shard {
    /// mutable so the read-only EntryCount/Snapshot walks can lock.
    mutable TrackedMutex mu;
    std::unordered_map<Key, Value, Hash, std::equal_to<>> map;
  };

  template <class K>
  Shard& ShardFor(const K& key) {
    return shards_[ShardOf{}(key) % kShards];
  }

  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> lookups_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> entries_{0};
};

}  // namespace pinscope::obs
