// The append-only event buffer behind EventLog and TraceSink.
//
// Each calling thread appends to one of 16 vectors (chosen by thread id),
// each under its own mutex, so concurrent workers rarely share a lock.
// Nothing is ordered at append time: readers collect every shard and sort by
// their own keys.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace pinscope::obs {

template <class T>
class ThreadBuffer {
 public:
  void Add(T item) {
    Shard& shard =
        shards_[std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.items.push_back(std::move(item));
  }

  /// Items appended so far (approximate while writers are running).
  [[nodiscard]] std::size_t Count() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      n += shard.items.size();
    }
    return n;
  }

  /// Copies every item out, in shard order (unsorted).
  [[nodiscard]] std::vector<T> Collect() const {
    std::vector<T> items;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      items.insert(items.end(), shard.items.begin(), shard.items.end());
    }
    return items;
  }

 private:
  static constexpr std::size_t kShards = 16;

  struct Shard {
    mutable std::mutex mu;
    std::vector<T> items;
  };

  std::array<Shard, kShards> shards_;
};

}  // namespace pinscope::obs
