// Post-hoc causal run profiler (DESIGN §17).
//
// The autopsy answers "why was this run slow?" from a finished Timeline:
//
//  * Critical path — the chain of stage intervals that gated the wall
//    clock. The run-to-completion scheduler (util/pipeline_scheduler.h)
//    runs every chain start to finish on one worker and no worker waits on
//    another, so the run ends when the worker whose last stage ended latest
//    runs out of work: that worker's lane is the critical path. The lane is
//    picked, and the path's length taken, from the exact per-lane totals,
//    so neither depends on how the interval reservoir sampled.
//  * Idle attribution — per worker, where non-busy time went: lock-wait /
//    tail-join / ramp-up (exact accumulator buckets, never sampled), plus
//    the unattributed residual.
//  * Folded stacks — `platform;app;stage weight_us` lines for standard
//    flamegraph tooling (--folded-out).
//
// All inputs are observational; running an autopsy never changes a byte of
// any export (tests/core/autopsy_equivalence_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeline.h"

namespace pinscope::obs {

/// Resolves a stage interval's 64-bit item key to human labels. The study
/// drivers key intervals by TelemetryKey (platform rank << 48 | universe
/// index); the CLI resolves those against the live ecosystem. A null
/// resolver falls back to "item" / the decimal key.
struct ItemLabel {
  std::string platform;  ///< "android" / "ios" / "item".
  std::string app;       ///< App id, or the decimal key.
};
using ItemResolver = std::function<ItemLabel(std::uint64_t key)>;

/// One segment of the critical path, in run order.
struct CriticalSegment {
  std::uint64_t key = 0;      ///< Item identity (see ItemResolver).
  std::string stage;          ///< Stage name.
  std::uint32_t worker = 0;   ///< Worker that ran it.
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;

  [[nodiscard]] std::int64_t duration_us() const { return end_us - start_us; }
};

/// Where one worker's wall-clock went, all in microseconds. busy excludes
/// the lock waits recorded inside stages so the buckets partition the wall
/// (lock_wait counts them once, on their own row). queue_starved and
/// backpressure are always 0: the scheduler has no queue to starve on or
/// push back from, and the fields remain only for existing readers.
struct WorkerBreakdown {
  std::uint32_t worker = 0;
  double busy_us = 0;
  double queue_starved_us = 0;
  double backpressure_us = 0;
  double lock_wait_us = 0;
  double tail_join_us = 0;
  double ramp_up_us = 0;
  double other_us = 0;  ///< wall − everything above (claim-loop overhead).
  std::uint64_t stage_count = 0;

  [[nodiscard]] double attributed_us() const {
    return busy_us + lock_wait_us + tail_join_us + ramp_up_us;
  }
};

/// One `lock.<name>` family joined from the metrics snapshot.
struct LockProfile {
  std::string name;
  std::uint64_t contended = 0;
  double total_wait_us = 0;
  double p99_wait_us = 0;
};

/// One slow item: stage-time sum over the sampled intervals.
struct SlowItem {
  std::uint64_t key = 0;
  double total_us = 0;
  /// (stage name, µs) pairs in stage order.
  std::vector<std::pair<std::string, double>> stages;
};

/// Critical-path segments and slow items the reports list.
inline constexpr std::size_t kAutopsyTopK = 10;

/// The full post-mortem. `sampled` warns that interval-derived sections
/// (critical-path segments, slow items, folded stacks) saw a uniform
/// sample, not every interval; the critical path's length and the
/// per-worker buckets are exact regardless.
struct Autopsy {
  double wall_us = 0;
  std::size_t workers = 0;
  std::uint64_t intervals_seen = 0;
  std::size_t intervals_sampled = 0;
  bool sampled = false;

  /// The critical lane's sampled stage intervals, in run order.
  std::vector<CriticalSegment> critical_path;
  /// The critical lane's exact stage time (its TimelineWorkerTotals
  /// busy_us, in-stage lock waits included): the sum of every segment's
  /// duration, sampled or not.
  double critical_path_us = 0;
  /// The critical lane's exact stage count; critical_path holds all of
  /// them unless the lane was sampled.
  std::uint64_t critical_path_stages = 0;

  std::vector<WorkerBreakdown> worker_breakdown;  ///< By worker id.
  std::vector<SlowItem> slowest;                  ///< Descending total_us.
  std::vector<LockProfile> locks;                 ///< Descending wait time.
};

/// Analyzes a finished timeline. `metrics` (optional) supplies the
/// `lock.*` families for the contention table. Thread-compatible: call
/// after the run's workers have quiesced.
[[nodiscard]] Autopsy Analyze(const Timeline& timeline,
                              const MetricsSnapshot* metrics = nullptr);

/// Folded-stack lines (`platform;app;stage weight_us\n`, sorted) aggregated
/// over the timeline's sampled stage intervals — feed to flamegraph.pl or
/// speedscope. Null resolver = decimal keys.
[[nodiscard]] std::string WriteFoldedStacks(const Timeline& timeline,
                                            const ItemResolver& resolver = {});

/// The fallback labeling WriteFoldedStacks and the reports use without a
/// resolver: {"item", "<key>"}.
[[nodiscard]] ItemLabel FallbackLabel(std::uint64_t key);

}  // namespace pinscope::obs
