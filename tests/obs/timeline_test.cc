// Timeline unit suite: exact per-worker accumulators, the bounded interval
// reservoir, run bounds, the ambient TrackedMutex lock-wait hook, and the
// run-event feed that turns a scripted run into exact buckets.
#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/autopsy.h"
#include "obs/metrics.h"
#include "obs/mutex.h"
#include "util/pipeline_scheduler.h"

namespace pinscope::obs {
namespace {

/// A run event of `kind` on `worker` (the worker count for run events).
util::RunEvent MakeEvent(util::RunEvent::Kind kind, std::uint32_t worker,
                         std::chrono::steady_clock::time_point time) {
  util::RunEvent event;
  event.kind = kind;
  event.worker = worker;
  event.time = time;
  return event;
}

TEST(TimelineTest, IntervalKindNamesAreStable) {
  EXPECT_EQ(IntervalKindName(IntervalKind::kStage), "stage");
  EXPECT_EQ(IntervalKindName(IntervalKind::kQueueStarved), "queue_starved");
  EXPECT_EQ(IntervalKindName(IntervalKind::kBackpressure), "backpressure");
  EXPECT_EQ(IntervalKindName(IntervalKind::kLockWait), "lock_wait");
  EXPECT_EQ(IntervalKindName(IntervalKind::kTailJoin), "tail_join");
  EXPECT_EQ(IntervalKindName(IntervalKind::kRampUp), "ramp_up");
}

TEST(TimelineTest, TotalsAccumulateExactlyPerKindAndWorker) {
  Timeline timeline;
  const std::uint32_t stage = timeline.InternStage("static");
  timeline.RecordIdle(/*worker=*/0, IntervalKind::kRampUp, 4, 10);
  timeline.RecordStage(/*worker=*/0, /*key=*/7, stage, 10, 110);
  timeline.RecordStage(0, 8, stage, 110, 160);
  timeline.RecordIdle(0, IntervalKind::kQueueStarved, 160, 200);
  timeline.RecordIdle(1, IntervalKind::kBackpressure, 0, 25);
  timeline.RecordIdle(1, IntervalKind::kTailJoin, 25, 30);
  // RecordLockWait stamps [now - wait, now] against the real timeline
  // clock; let it advance past the wait so nothing clamps at zero.
  while (timeline.NowUs() < 100) {
  }
  timeline.RecordLockWait(1, "scan_cache", 12);

  const TimelineWorkerTotals w0 = timeline.TotalsFor(0);
  EXPECT_DOUBLE_EQ(w0.busy_us, 150.0);
  EXPECT_DOUBLE_EQ(w0.queue_starved_us, 40.0);
  EXPECT_DOUBLE_EQ(w0.lock_wait_us, 0.0);
  EXPECT_DOUBLE_EQ(w0.ramp_up_us, 6.0);
  EXPECT_EQ(w0.stage_count, 2u);
  EXPECT_EQ(w0.intervals_seen, 4u);
  EXPECT_EQ(w0.first_us, 4);
  EXPECT_EQ(w0.last_us, 200);

  const TimelineWorkerTotals w1 = timeline.TotalsFor(1);
  EXPECT_DOUBLE_EQ(w1.busy_us, 0.0);
  EXPECT_DOUBLE_EQ(w1.backpressure_us, 25.0);
  EXPECT_DOUBLE_EQ(w1.tail_join_us, 5.0);
  EXPECT_DOUBLE_EQ(w1.lock_wait_us, 12.0);
  EXPECT_EQ(w1.stage_count, 0u);

  EXPECT_EQ(timeline.WorkerCount(), 2u);
  EXPECT_EQ(timeline.IntervalsSeen(), 7u);
}

TEST(TimelineTest, SamplesAreSortedAndCarryInternedLabels) {
  Timeline timeline;
  const std::uint32_t s0 = timeline.InternStage("static");
  const std::uint32_t s1 = timeline.InternStage("dynamic");
  EXPECT_EQ(timeline.InternStage("static"), s0);  // idempotent
  timeline.RecordStage(0, 2, s1, 50, 90);
  timeline.RecordStage(0, 1, s0, 0, 40);

  const std::vector<TimelineInterval> samples = timeline.SamplesFor(0);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].start_us, 0);
  EXPECT_EQ(samples[1].start_us, 50);
  EXPECT_EQ(timeline.StageName(samples[0].label), "static");
  EXPECT_EQ(timeline.StageName(samples[1].label), "dynamic");
  EXPECT_EQ(samples[0].key, 1u);
  EXPECT_EQ(samples[1].kind, IntervalKind::kStage);
}

TEST(TimelineTest, ReservoirIsBoundedWhileTotalsStayExact) {
  TimelineOptions options;
  options.per_worker_cap = 64;
  Timeline timeline(options);
  const std::uint32_t stage = timeline.InternStage("static");
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    timeline.RecordStage(0, static_cast<std::uint64_t>(i), stage, i * 10,
                         i * 10 + 5);
  }
  EXPECT_EQ(timeline.SamplesFor(0).size(), 64u);
  EXPECT_EQ(timeline.SampleCount(), 64u);
  EXPECT_EQ(timeline.IntervalsSeen(), static_cast<std::uint64_t>(n));
  const TimelineWorkerTotals totals = timeline.TotalsFor(0);
  EXPECT_DOUBLE_EQ(totals.busy_us, 5.0 * n);  // exact despite sampling
  EXPECT_EQ(totals.stage_count, static_cast<std::uint64_t>(n));

  // Capacity is a function of (lanes, cap) only: a timeline that saw 10x
  // the intervals on the same lane reports the identical bound.
  Timeline bigger(options);
  const std::uint32_t stage2 = bigger.InternStage("static");
  for (int i = 0; i < 10 * n; ++i) {
    bigger.RecordStage(0, static_cast<std::uint64_t>(i), stage2, i, i + 1);
  }
  EXPECT_EQ(bigger.ReservoirCapacityBytes(), timeline.ReservoirCapacityBytes());
}

TEST(TimelineTest, RunBoundsFallBackToIntervalExtrema) {
  Timeline timeline;
  const std::uint32_t stage = timeline.InternStage("s");
  timeline.RecordStage(0, 1, stage, 30, 70);
  timeline.RecordStage(1, 2, stage, 10, 50);
  EXPECT_EQ(timeline.RunStartUs(), 10);
  EXPECT_EQ(timeline.RunEndUs(), 70);
}

TEST(TimelineTest, MarkedRunBoundsWinOverExtrema) {
  using Kind = util::RunEvent::Kind;
  using Clock = std::chrono::steady_clock;
  Timeline timeline;
  timeline.OnEvent(MakeEvent(Kind::kRunBegin, 1, Clock::now()));
  const std::uint32_t stage = timeline.InternStage("s");
  // An interval far in the synthetic future: the bounds the run events
  // marked (real clock) must win over the recorded extrema, not be dragged
  // out to 2e6 µs.
  timeline.RecordStage(0, 1, stage, 1'000'000, 2'000'000);
  timeline.OnEvent(MakeEvent(Kind::kRunEnd, 1, Clock::now()));
  EXPECT_LE(timeline.RunStartUs(), timeline.RunEndUs());
  EXPECT_LT(timeline.RunEndUs(), 1'000'000);
}

TEST(TimelineTest, ContendedTrackedMutexLandsInTheAmbientWorkerLane) {
  using Kind = util::RunEvent::Kind;
  using Clock = std::chrono::steady_clock;
  Timeline timeline;
  MetricsRegistry metrics;
  TrackedMutex mu(&metrics, "test_lock");

  timeline.OnEvent(MakeEvent(Kind::kRunBegin, 4, Clock::now()));
  mu.lock();
  std::atomic<bool> thread_blocked{false};
  std::thread contender([&] {
    // Between its begin and end events, worker 3's thread is ambient.
    timeline.OnEvent(MakeEvent(Kind::kWorkerBegin, 3, Clock::now()));
    thread_blocked.store(true);
    mu.lock();  // contended: waits until the main thread unlocks
    mu.unlock();
    timeline.OnEvent(MakeEvent(Kind::kWorkerEnd, 3, Clock::now()));
  });
  while (!thread_blocked.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mu.unlock();
  contender.join();

  const TimelineWorkerTotals totals = timeline.TotalsFor(3);
  EXPECT_GT(totals.lock_wait_us, 0.0);
  std::vector<TimelineInterval> waits;
  for (const TimelineInterval& interval : timeline.SamplesFor(3)) {
    if (interval.kind == IntervalKind::kLockWait) waits.push_back(interval);
  }
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(timeline.LockName(waits[0].label), "test_lock");
}

TEST(TimelineTest, NoAmbientScopeMeansContentionRecordsNothing) {
  Timeline timeline;
  TrackedMutex mu;
  mu.Attach(nullptr, "unscoped");
  mu.lock();
  std::thread contender([&] {
    mu.lock();  // no recorded worker on this thread
    mu.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  mu.unlock();
  contender.join();
  EXPECT_EQ(timeline.IntervalsSeen(), 0u);
}

TEST(TimelineTest, ParallelRecordersStayExactAcrossLanes) {
  Timeline timeline;
  const std::uint32_t stage = timeline.InternStage("s");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        timeline.RecordStage(static_cast<std::uint32_t>(t),
                             static_cast<std::uint64_t>(i), stage, i, i + 2);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(timeline.IntervalsSeen(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(timeline.TotalsFor(static_cast<std::size_t>(t)).busy_us,
                     2.0 * kPerThread);
  }
}

TEST(TimelineTest, ScriptedRunEventsAccountForEveryMicrosecond) {
  // Two workers over a 100 µs run, every time scripted. Worker 0 ramps up
  // for 5 µs, runs item 0's two stages (35 + 30 µs) and waits 30 µs for
  // the join. Worker 1 ramps up for 12 µs, fails item 1's first stage
  // (38 µs), runs item 2 (10 + 30 µs) and waits 10 µs. The timeline
  // reads no clock, so the buckets are exact and nothing is unattributed.
  using Kind = util::RunEvent::Kind;
  using std::chrono::microseconds;
  Timeline timeline;
  const std::string_view stage_names[] = {"a", "b"};
  const auto t0 = std::chrono::steady_clock::now();
  auto feed = [&](Kind kind, std::uint32_t worker, std::size_t item,
                  std::size_t stage, int at_us, int elapsed_us = 0) {
    util::RunEvent event = MakeEvent(kind, worker, t0 + microseconds(at_us));
    event.item = item;
    event.stage = stage;
    event.stage_name = stage_names[stage];
    event.elapsed = microseconds(elapsed_us);
    timeline.OnEvent(event, /*key=*/100 + item);
  };

  feed(Kind::kRunBegin, /*worker=*/2, 0, 0, 0);
  // Each worker's events arrive on its own thread, as in a real run.
  std::thread worker0([&] {
    feed(Kind::kWorkerBegin, 0, 0, 0, 5);
    feed(Kind::kStageBegin, 0, 0, 0, 5);
    feed(Kind::kStageEnd, 0, 0, 0, 40, 35);
    feed(Kind::kStageBegin, 0, 0, 1, 40);
    feed(Kind::kStageEnd, 0, 0, 1, 70, 30);
    feed(Kind::kWorkerEnd, 0, 0, 0, 70, 65);
  });
  worker0.join();
  std::thread worker1([&] {
    feed(Kind::kWorkerBegin, 1, 0, 0, 12);
    feed(Kind::kStageBegin, 1, 1, 0, 12);
    feed(Kind::kStageFailed, 1, 1, 0, 50, 38);
    feed(Kind::kStageBegin, 1, 2, 0, 50);
    feed(Kind::kStageEnd, 1, 2, 0, 60, 10);
    feed(Kind::kStageBegin, 1, 2, 1, 60);
    feed(Kind::kStageEnd, 1, 2, 1, 90, 30);
    feed(Kind::kWorkerEnd, 1, 0, 0, 90, 78);
  });
  worker1.join();
  feed(Kind::kRunEnd, 2, 0, 0, 100, 100);

  EXPECT_EQ(timeline.RunEndUs() - timeline.RunStartUs(), 100);
  ASSERT_EQ(timeline.WorkerCount(), 2u);
  const TimelineWorkerTotals w0 = timeline.TotalsFor(0);
  EXPECT_DOUBLE_EQ(w0.ramp_up_us, 5.0);
  EXPECT_DOUBLE_EQ(w0.busy_us, 65.0);
  EXPECT_DOUBLE_EQ(w0.tail_join_us, 30.0);
  EXPECT_DOUBLE_EQ(w0.lock_wait_us, 0.0);
  EXPECT_EQ(w0.stage_count, 2u);
  EXPECT_EQ(w0.first_us, timeline.RunStartUs());
  EXPECT_EQ(w0.last_us, timeline.RunEndUs());
  const TimelineWorkerTotals w1 = timeline.TotalsFor(1);
  EXPECT_DOUBLE_EQ(w1.ramp_up_us, 12.0);
  EXPECT_DOUBLE_EQ(w1.busy_us, 78.0);
  EXPECT_DOUBLE_EQ(w1.tail_join_us, 10.0);
  EXPECT_EQ(w1.stage_count, 3u);  // the failed stage counts as busy time
  EXPECT_EQ(w1.first_us, timeline.RunStartUs());
  EXPECT_EQ(w1.last_us, timeline.RunEndUs());

  // The failed stage is an interval of its item and stage like any other.
  const std::vector<TimelineInterval> samples = timeline.SamplesFor(1);
  ASSERT_EQ(samples.size(), 5u);  // ramp-up, 3 stages, tail join
  EXPECT_EQ(samples[1].key, 101u);
  EXPECT_EQ(timeline.StageName(samples[1].label), "a");
  EXPECT_EQ(samples[1].duration_us(), 38);

  const Autopsy autopsy = Analyze(timeline);
  EXPECT_DOUBLE_EQ(autopsy.wall_us, 100.0);
  ASSERT_EQ(autopsy.worker_breakdown.size(), 2u);
  for (const WorkerBreakdown& row : autopsy.worker_breakdown) {
    SCOPED_TRACE("worker=" + std::to_string(row.worker));
    EXPECT_DOUBLE_EQ(row.other_us, 0.0);
  }
}

}  // namespace
}  // namespace pinscope::obs
