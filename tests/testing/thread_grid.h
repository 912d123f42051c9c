// The worker-count grid every determinism suite sweeps: one worker, four
// workers, and the host's hardware concurrency — deduplicated, so a 4-core
// (or 1-core) host runs each distinct count once, and named by role so
// parameterized test names stay unique on every host shape.
#pragma once

#include <string>
#include <thread>
#include <vector>

namespace pinscope::testing {

/// {1, 4, hw} in that order with duplicates dropped. `hw` is
/// std::thread::hardware_concurrency(), or 2 when the host does not say.
inline std::vector<int> ThreadGrid() {
  const unsigned reported = std::thread::hardware_concurrency();
  const int hw = reported > 0 ? static_cast<int>(reported) : 2;
  std::vector<int> grid = {1, 4};
  if (hw != 1 && hw != 4) grid.push_back(hw);
  return grid;
}

/// The role of a ThreadGrid() entry: "serial" (1), "four" (4), or "hw".
inline std::string ThreadGridName(int threads) {
  if (threads == 1) return "serial";
  if (threads == 4) return "four";
  return "hw";
}

}  // namespace pinscope::testing
