// Autopsy unit suite over synthetic timelines: the critical path (the lane
// of the worker that finished last, exact under reservoir sampling), the
// idle-attribution breakdown, slow-item aggregation, the lock-contention
// join, and folded-stack output.
#include "obs/autopsy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeline.h"
#include "util/pipeline_scheduler.h"

namespace pinscope::obs {
namespace {

TEST(AutopsyTest, SingleWorkerCriticalPathCoversTheWholeRun) {
  Timeline timeline;
  const std::uint32_t s0 = timeline.InternStage("static");
  const std::uint32_t s1 = timeline.InternStage("dynamic");
  // One worker, back-to-back: A.static, A.dynamic, B.static.
  timeline.RecordStage(0, /*key=*/1, s0, 0, 100);
  timeline.RecordStage(0, 1, s1, 100, 250);
  timeline.RecordStage(0, 2, s0, 250, 300);

  const Autopsy autopsy = Analyze(timeline);
  EXPECT_FALSE(autopsy.sampled);
  EXPECT_EQ(autopsy.workers, 1u);
  ASSERT_EQ(autopsy.critical_path.size(), 3u);
  EXPECT_EQ(autopsy.critical_path[0].key, 1u);
  EXPECT_EQ(autopsy.critical_path[0].stage, "static");
  EXPECT_EQ(autopsy.critical_path[1].stage, "dynamic");
  EXPECT_EQ(autopsy.critical_path[2].key, 2u);
  EXPECT_DOUBLE_EQ(autopsy.critical_path_us, 300.0);
  EXPECT_DOUBLE_EQ(autopsy.wall_us, 300.0);
}

TEST(AutopsyTest, CriticalPathIsTheLaneThatFinishedLast) {
  Timeline timeline;
  const std::uint32_t s0 = timeline.InternStage("static");
  // Worker 0 is busier (250 µs) but worker 1's last stage ends later, so
  // worker 1's lane gated the run.
  timeline.RecordStage(0, 1, s0, 0, 250);
  timeline.RecordStage(1, 2, s0, 10, 60);
  timeline.RecordStage(1, 3, s0, 200, 300);

  const Autopsy autopsy = Analyze(timeline);
  ASSERT_EQ(autopsy.critical_path.size(), 2u);
  EXPECT_EQ(autopsy.critical_path[0].key, 2u);
  EXPECT_EQ(autopsy.critical_path[1].key, 3u);
  EXPECT_EQ(autopsy.critical_path[1].worker, 1u);
  EXPECT_EQ(autopsy.critical_path_stages, 2u);
  EXPECT_DOUBLE_EQ(autopsy.critical_path_us, 150.0);
}

/// Feeds `timeline` a scripted two-worker run of `items[w]` two-stage
/// chains per worker, every time scripted from `t0`: worker w ramps up for
/// w + 3 µs, runs its chains back to back with stage lengths drawn from a
/// fixed pattern, and joins at the run end. Returns each worker's stage
/// time in µs.
std::vector<double> FeedScriptedRun(Timeline& timeline,
                                    const std::vector<int>& items,
                                    std::chrono::steady_clock::time_point t0) {
  using Kind = util::RunEvent::Kind;
  using std::chrono::microseconds;
  const std::string_view stage_names[] = {"static", "dynamic"};
  auto feed = [&](Kind kind, std::uint32_t worker, std::size_t item,
                  std::size_t stage, int at_us, int elapsed_us = 0) {
    util::RunEvent event;
    event.kind = kind;
    event.worker = worker;
    event.time = t0 + microseconds(at_us);
    event.item = item;
    event.stage = stage;
    event.stage_name = stage_names[stage];
    event.elapsed = microseconds(elapsed_us);
    timeline.OnEvent(event, /*key=*/1000 * worker + item);
  };
  const auto workers = static_cast<std::uint32_t>(items.size());
  std::vector<double> busy(items.size(), 0.0);
  int run_end = 0;
  feed(Kind::kRunBegin, workers, 0, 0, 0);
  for (std::uint32_t w = 0; w < workers; ++w) {
    int now = static_cast<int>(w) + 3;
    const int begin = now;
    feed(Kind::kWorkerBegin, w, 0, 0, now);
    for (int item = 0; item < items[w]; ++item) {
      for (std::size_t stage = 0; stage < 2; ++stage) {
        const int length =
            5 + (item * 37 + static_cast<int>(stage) * 11 + static_cast<int>(w)) % 50;
        feed(Kind::kStageBegin, w, item, stage, now);
        feed(Kind::kStageEnd, w, item, stage, now + length, length);
        now += length;
        busy[w] += length;
      }
      now += 1;  // claiming the next chain
    }
    feed(Kind::kWorkerEnd, w, 0, 0, now, now - begin);
    run_end = std::max(run_end, now + 2);
  }
  feed(Kind::kRunEnd, workers, 0, 0, run_end, run_end);
  return busy;
}

TEST(AutopsyTest, CriticalPathLengthIsExactUnderReservoirSampling) {
  // Worker 0 runs 150 chains (300 stages) and worker 1 runs 200 (400
  // stages), so worker 1 finishes last. A 64-interval reservoir keeps a
  // small sample of either lane, yet the critical path's length comes from
  // the exact lane totals and does not change.
  const std::vector<int> items = {150, 200};
  Timeline uncapped;
  TimelineOptions small;
  small.per_worker_cap = 64;
  Timeline capped(small);
  // After both timelines exist, so every scripted time is on or after
  // their epochs.
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<double> busy = FeedScriptedRun(uncapped, items, t0);
  ASSERT_EQ(FeedScriptedRun(capped, items, t0), busy);

  const Autopsy full = Analyze(uncapped);
  const Autopsy sampled = Analyze(capped);
  EXPECT_FALSE(full.sampled);
  EXPECT_TRUE(sampled.sampled);
  ASSERT_GT(uncapped.TotalsFor(1).last_stage_end_us,
            uncapped.TotalsFor(0).last_stage_end_us);
  EXPECT_DOUBLE_EQ(full.critical_path_us, busy[1]);
  EXPECT_DOUBLE_EQ(full.critical_path_us, uncapped.TotalsFor(1).busy_us);
  EXPECT_DOUBLE_EQ(sampled.critical_path_us, full.critical_path_us);
  EXPECT_EQ(full.critical_path_stages, 400u);
  EXPECT_EQ(sampled.critical_path_stages, 400u);

  // Unsampled, the path is every stage of the lane in run order; sampled,
  // it is the lane's surviving stages, still in run order.
  ASSERT_EQ(full.critical_path.size(), 400u);
  double sum_us = 0;
  for (const CriticalSegment& segment : full.critical_path) {
    sum_us += static_cast<double>(segment.duration_us());
  }
  EXPECT_DOUBLE_EQ(sum_us, full.critical_path_us);
  EXPECT_LE(sampled.critical_path.size(), 64u);
  EXPECT_FALSE(sampled.critical_path.empty());
  for (std::size_t i = 0; i < sampled.critical_path.size(); ++i) {
    EXPECT_EQ(sampled.critical_path[i].worker, 1u);
    if (i > 0) {
      EXPECT_LE(sampled.critical_path[i - 1].end_us,
                sampled.critical_path[i].start_us);
    }
  }
}

TEST(AutopsyTest, WorkerBreakdownPartitionsWallAndExcludesLockWaitFromBusy) {
  Timeline timeline;
  const std::uint32_t stage = timeline.InternStage("s");
  // RecordLockWait stamps [now - wait, now] on the real timeline clock; let
  // the clock pass the wait so the interval is exactly 100 µs, and keep the
  // synthetic stage/idle timestamps far beyond any plausible real `now` so
  // the run extrema stay deterministic.
  while (timeline.NowUs() < 200) {
  }
  timeline.RecordLockWait(0, "scan_cache", 100);  // waited inside the stage
  timeline.RecordStage(0, 1, stage, 0, 600'000);
  timeline.RecordIdle(0, IntervalKind::kTailJoin, 600'000, 1'000'000);

  const Autopsy autopsy = Analyze(timeline);
  ASSERT_EQ(autopsy.worker_breakdown.size(), 1u);
  const WorkerBreakdown& w = autopsy.worker_breakdown[0];
  EXPECT_DOUBLE_EQ(w.busy_us, 599'900.0);  // stage time minus the lock wait
  EXPECT_DOUBLE_EQ(w.lock_wait_us, 100.0);
  EXPECT_DOUBLE_EQ(w.tail_join_us, 400'000.0);
  EXPECT_EQ(w.stage_count, 1u);
  // attributed + other == wall exactly, by construction.
  EXPECT_DOUBLE_EQ(w.attributed_us() + w.other_us, autopsy.wall_us);
}

TEST(AutopsyTest, SlowestItemsAggregateStagesAndSortDescending) {
  Timeline timeline;
  const std::uint32_t s0 = timeline.InternStage("static");
  const std::uint32_t s1 = timeline.InternStage("dynamic");
  timeline.RecordStage(0, 1, s0, 0, 10);
  timeline.RecordStage(0, 1, s1, 10, 400);
  timeline.RecordStage(0, 2, s0, 400, 420);
  timeline.RecordStage(0, 2, s1, 420, 470);
  // Ten more one-stage items, shorter than item 1 but longer than item 2's
  // 70 µs: the top-K cut keeps item 1 first and drops item 2.
  for (std::uint64_t key = 3; key < 13; ++key) {
    const auto start = static_cast<std::int64_t>(500 + 100 * key);
    timeline.RecordStage(1, key, s0, start, start + 80);
  }

  const Autopsy autopsy = Analyze(timeline);
  ASSERT_EQ(autopsy.slowest.size(), kAutopsyTopK);
  for (const SlowItem& item : autopsy.slowest) EXPECT_NE(item.key, 2u);
  EXPECT_EQ(autopsy.slowest[0].key, 1u);
  EXPECT_DOUBLE_EQ(autopsy.slowest[0].total_us, 400.0);
  ASSERT_EQ(autopsy.slowest[0].stages.size(), 2u);
  EXPECT_EQ(autopsy.slowest[0].stages[0].first, "static");
  EXPECT_DOUBLE_EQ(autopsy.slowest[0].stages[1].second, 390.0);
}

TEST(AutopsyTest, LockProfilesJoinFromTheMetricsSnapshot) {
  Timeline timeline;
  const std::uint32_t stage = timeline.InternStage("s");
  timeline.RecordStage(0, 1, stage, 0, 10);

  MetricsRegistry metrics;
  metrics.counter("lock.scan_cache.contended").Add(3);
  metrics.histogram("lock.scan_cache.wait_us").Record(50.0);
  metrics.histogram("lock.scan_cache.wait_us").Record(150.0);
  // An uncontended lock family must not clutter the table.
  (void)metrics.counter("lock.idle_lock.contended");
  (void)metrics.histogram("lock.idle_lock.wait_us");
  const MetricsSnapshot snapshot = metrics.Snapshot();

  const Autopsy autopsy = Analyze(timeline, &snapshot);
  ASSERT_EQ(autopsy.locks.size(), 1u);
  EXPECT_EQ(autopsy.locks[0].name, "scan_cache");
  EXPECT_EQ(autopsy.locks[0].contended, 3u);
  EXPECT_DOUBLE_EQ(autopsy.locks[0].total_wait_us, 200.0);
  EXPECT_GT(autopsy.locks[0].p99_wait_us, 0.0);
}

TEST(AutopsyTest, FoldedStacksAggregateByFrameAndSort) {
  Timeline timeline;
  const std::uint32_t s0 = timeline.InternStage("static");
  const std::uint32_t s1 = timeline.InternStage("dynamic");
  timeline.RecordStage(0, 1, s0, 0, 10);
  timeline.RecordStage(1, 1, s0, 20, 25);  // same frame, second worker
  timeline.RecordStage(0, 2, s1, 10, 40);

  const ItemResolver resolver = [](std::uint64_t key) {
    return ItemLabel{"android", "app" + std::to_string(key)};
  };
  const std::string folded = WriteFoldedStacks(timeline, resolver);
  EXPECT_EQ(folded,
            "android;app1;static 15\n"
            "android;app2;dynamic 30\n");

  // Without a resolver the fallback labels keys in decimal.
  const std::string fallback = WriteFoldedStacks(timeline);
  EXPECT_NE(fallback.find("item;1;static 15\n"), std::string::npos);
}

TEST(AutopsyTest, EmptyTimelineYieldsAnEmptyAutopsy) {
  Timeline timeline;
  const Autopsy autopsy = Analyze(timeline);
  EXPECT_TRUE(autopsy.critical_path.empty());
  EXPECT_TRUE(autopsy.worker_breakdown.empty());
  EXPECT_TRUE(autopsy.slowest.empty());
  EXPECT_DOUBLE_EQ(autopsy.critical_path_us, 0.0);
  EXPECT_EQ(WriteFoldedStacks(timeline), "");
}

TEST(AutopsyTest, FallbackLabelUsesDecimalKeys) {
  const ItemLabel label = FallbackLabel(42);
  EXPECT_EQ(label.platform, "item");
  EXPECT_EQ(label.app, "42");
}

}  // namespace
}  // namespace pinscope::obs
