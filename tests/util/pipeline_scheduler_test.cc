// Unit + property tests for the run-to-completion pipeline scheduler
// (util/pipeline_scheduler.h): no task lost or duplicated across worker
// counts, every stage of an item on one thread in chain order, at most
// `workers` items in flight, clean shutdown with in-flight work, failure
// isolation (a throwing body runs once; failures collected in item order,
// non-std exceptions included), a 10k-item stress run, per-item dependency
// ordering under a seeded random perturbation of stage timings,
// worker-count resolution, the run-event stream, and idle attribution on a
// timeline subscribed to it.
#include "util/pipeline_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/timeline.h"
#include "testing/thread_grid.h"
#include "util/error.h"
#include "util/rng.h"

namespace pinscope::util {
namespace {

using namespace std::chrono_literals;

// --- RunPipeline ---------------------------------------------------------

/// Per-(item, stage) execution counter matrix.
struct ExecutionMatrix {
  explicit ExecutionMatrix(std::size_t n, std::size_t stages)
      : counts(n * stages), n_stages(stages) {}
  std::vector<std::atomic<int>> counts;
  std::size_t n_stages;

  std::atomic<int>& at(std::size_t item, std::size_t stage) {
    return counts[item * n_stages + stage];
  }
};

std::vector<PipelineStage> CountingStages(ExecutionMatrix& matrix,
                                          std::size_t n_stages) {
  std::vector<PipelineStage> stages;
  for (std::size_t s = 0; s < n_stages; ++s) {
    stages.push_back({"stage" + std::to_string(s),
                      [&matrix, s](std::size_t i) { matrix.at(i, s)++; }});
  }
  return stages;
}

class PipelineThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineThreadsTest, NoTaskLostOrDuplicated) {
  constexpr std::size_t kItems = 200;
  constexpr std::size_t kStages = 3;
  ExecutionMatrix matrix(kItems, kStages);
  PipelineOptions options;
  options.threads = GetParam();
  const PipelineResult result =
      RunPipeline(kItems, CountingStages(matrix, kStages), options);
  EXPECT_TRUE(result.failures.empty());
  for (std::size_t i = 0; i < kItems; ++i) {
    for (std::size_t s = 0; s < kStages; ++s) {
      EXPECT_EQ(matrix.at(i, s).load(), 1) << "item " << i << " stage " << s;
    }
  }
}

TEST_P(PipelineThreadsTest, EveryStageOfAnItemRunsOnOneThreadInOrder) {
  constexpr std::size_t kItems = 64;
  constexpr std::size_t kStages = 4;
  std::vector<std::thread::id> owner(kItems);
  std::vector<std::size_t> next_stage(kItems, 0);
  std::atomic<int> violations{0};
  std::vector<PipelineStage> stages;
  for (std::size_t s = 0; s < kStages; ++s) {
    stages.push_back({"stage" + std::to_string(s), [&, s](std::size_t i) {
                        // Each item's slots are touched only by its owning
                        // thread, so plain (unsynchronized) state suffices —
                        // and a second thread would show up under tsan.
                        if (s == 0) owner[i] = std::this_thread::get_id();
                        if (owner[i] != std::this_thread::get_id() ||
                            next_stage[i] != s) {
                          violations.fetch_add(1);
                        }
                        next_stage[i] = s + 1;
                        std::this_thread::sleep_for(20us);
                      }});
  }
  PipelineOptions options;
  options.threads = GetParam();
  const PipelineResult result = RunPipeline(kItems, stages, options);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(violations.load(), 0);
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(next_stage[i], kStages) << "item " << i;
  }
}

TEST_P(PipelineThreadsTest, AtMostWorkersItemsAreEverInFlight) {
  // An item is in flight from its first stage's begin to its last stage's
  // end; the streaming study's memory bound is exactly this count.
  constexpr std::size_t kItems = 96;
  const int workers = ResolveThreads(GetParam(), kItems);
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  const std::vector<PipelineStage> stages = {
      {"first", [&](std::size_t) {
         const int now = in_flight.fetch_add(1) + 1;
         int seen = peak.load();
         while (now > seen && !peak.compare_exchange_weak(seen, now)) {
         }
         std::this_thread::sleep_for(50us);
       }},
      {"middle", [](std::size_t) { std::this_thread::sleep_for(50us); }},
      {"last", [&](std::size_t) { in_flight.fetch_sub(1); }},
  };
  PipelineOptions options;
  options.threads = GetParam();
  const PipelineResult result = RunPipeline(kItems, stages, options);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(in_flight.load(), 0);
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), workers);
}

TEST_P(PipelineThreadsTest, DependencyOrderHoldsUnderSeededRandomDelays) {
  // Every stage of every item sleeps a seeded-random sliver, scrambling
  // completion order across items — but each item's own chain must still
  // execute stage 0 → 1 → 2 in order. The global tick counter captures the
  // observed order.
  const int threads = GetParam();
  constexpr std::size_t kItems = 48;
  constexpr std::size_t kStages = 3;
  Rng rng(1234);
  std::vector<int> delay_us(kItems * kStages);
  for (int& d : delay_us) d = rng.UniformInt(0, 300);

  std::atomic<std::uint64_t> ticks{0};
  std::vector<std::atomic<std::uint64_t>> started(kItems * kStages);
  std::vector<PipelineStage> stages;
  for (std::size_t s = 0; s < kStages; ++s) {
    stages.push_back({"stage" + std::to_string(s), [&, s](std::size_t i) {
                        started[i * kStages + s] = ticks.fetch_add(1) + 1;
                        std::this_thread::sleep_for(std::chrono::microseconds(
                            delay_us[i * kStages + s]));
                      }});
  }
  PipelineOptions options;
  options.threads = threads;
  const PipelineResult result = RunPipeline(kItems, stages, options);
  EXPECT_TRUE(result.failures.empty());
  for (std::size_t i = 0; i < kItems; ++i) {
    for (std::size_t s = 1; s < kStages; ++s) {
      EXPECT_LT(started[i * kStages + s - 1].load(),
                started[i * kStages + s].load())
          << "item " << i << ": stage " << s << " ran before stage " << s - 1;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PipelineThreadsTest,
                         ::testing::ValuesIn(pinscope::testing::ThreadGrid()),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return pinscope::testing::ThreadGridName(info.param);
                         });

TEST(PipelineSchedulerTest, CleanShutdownWithInFlightWork) {
  // Slow stages keep work in flight right up to the end; RunPipeline must
  // not return until every chain has fully drained, and join all workers.
  constexpr std::size_t kItems = 16;
  std::atomic<int> completed{0};
  std::vector<PipelineStage> stages = {
      {"slow", [&](std::size_t) { std::this_thread::sleep_for(2ms); }},
      {"finish", [&](std::size_t) {
         std::this_thread::sleep_for(1ms);
         completed.fetch_add(1);
       }},
  };
  PipelineOptions options;
  options.threads = 4;
  const PipelineResult result = RunPipeline(kItems, stages, options);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(completed.load(), static_cast<int>(kItems));
}

TEST(PipelineSchedulerTest, StageFailureSkipsLaterStagesOfThatItemOnly) {
  constexpr std::size_t kItems = 20;
  ExecutionMatrix matrix(kItems, 2);
  std::vector<PipelineStage> stages = {
      {"flaky", [&](std::size_t i) {
         matrix.at(i, 0)++;
         if (i == 3 || i == 11) throw Error("boom " + std::to_string(i));
       }},
      {"after", [&](std::size_t i) { matrix.at(i, 1)++; }},
  };
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto& c : matrix.counts) c.store(0);
    PipelineOptions options;
    options.threads = threads;
    const PipelineResult result = RunPipeline(kItems, stages, options);
    ASSERT_EQ(result.failures.size(), 2u);
    // Failures come back sorted by item regardless of completion order.
    EXPECT_EQ(result.failures[0].item, 3u);
    EXPECT_EQ(result.failures[0].stage_name, "flaky");
    EXPECT_EQ(result.failures[0].message, "boom 3");
    EXPECT_EQ(result.failures[1].item, 11u);
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(matrix.at(i, 0).load(), 1);
      EXPECT_EQ(matrix.at(i, 1).load(), (i == 3 || i == 11) ? 0 : 1) << i;
    }
  }
}

TEST(PipelineSchedulerTest, ThrowingStageBodyRunsExactlyOnce) {
  // A stage is a pure function of its item, so a failure is final: the
  // body is called once, and its events are a begin and a failed, nothing
  // in between.
  using Kind = RunEvent::Kind;
  std::atomic<int> calls{0};
  const std::vector<PipelineStage> stages = {
      {"doomed", [&](std::size_t) {
         calls.fetch_add(1);
         throw Error("permanent");
       }},
  };
  std::vector<Kind> stage_events;
  PipelineOptions options;
  options.threads = 1;
  options.on_event = [&stage_events](const RunEvent& e) {
    if (e.kind >= Kind::kStageBegin) stage_events.push_back(e.kind);
  };
  const PipelineResult result = RunPipeline(1, stages, options);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].message, "permanent");
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(stage_events,
            (std::vector<Kind>{Kind::kStageBegin, Kind::kStageFailed}));
}

TEST(PipelineSchedulerTest, FaultPlanInjectsAtStageEntry) {
  SchedulerFaultPlan plan;
  plan.Set(/*stage=*/0, /*item=*/2, {.delay = 0ms, .fail = true});
  std::atomic<int> ran{0};
  std::vector<PipelineStage> stages = {
      {"only", [&](std::size_t) { ran.fetch_add(1); }},
  };
  PipelineOptions options;
  options.threads = 1;
  options.faults = &plan;
  const PipelineResult result = RunPipeline(4, stages, options);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].item, 2u);
  // The faulted item's body never ran: injection precedes the stage.
  EXPECT_EQ(ran.load(), 3);
}

TEST(PipelineSchedulerTest, StressTenThousandTinyItems) {
  constexpr std::size_t kItems = 10'000;
  std::atomic<std::size_t> sum{0};
  ExecutionMatrix matrix(kItems, 1);
  const std::vector<PipelineStage> stages = {
      {"tiny", [&](std::size_t i) {
         matrix.at(i, 0)++;
         sum.fetch_add(i);
       }},
  };
  PipelineOptions options;
  options.threads = 16;
  EXPECT_TRUE(RunPipeline(kItems, stages, options).failures.empty());
  EXPECT_EQ(sum.load(), kItems * (kItems - 1) / 2);
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(matrix.at(i, 0).load(), 1);
}

TEST(PipelineSchedulerTest, NonStdExceptionIsCollected) {
  const std::vector<PipelineStage> stages = {
      {"odd", [](std::size_t i) {
         if (i == 1) throw 42;
       }},
  };
  PipelineOptions options;
  options.threads = 2;
  const PipelineResult result = RunPipeline(2, stages, options);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].item, 1u);
  EXPECT_EQ(result.failures[0].message, "unknown exception");
}

TEST(ResolveThreadsTest, ClampsAndDefaults) {
  EXPECT_EQ(ResolveThreads(4, 0), 0);    // empty range needs no workers
  EXPECT_EQ(ResolveThreads(4, 2), 2);    // never more workers than items
  EXPECT_EQ(ResolveThreads(4, 100), 4);  // explicit request honored
  EXPECT_EQ(ResolveThreads(1, 100), 1);
  EXPECT_GE(ResolveThreads(0, 100), 1);  // 0 = hardware concurrency, >= 1
}

TEST(PipelineSchedulerTest, EmptyInputsAreNoOps) {
  std::vector<PipelineStage> stages = {
      {"stage", [](std::size_t) { FAIL() << "must not run"; }},
  };
  EXPECT_TRUE(RunPipeline(0, stages, {}).failures.empty());
  EXPECT_TRUE(RunPipeline(5, {}, {}).failures.empty());
}

TEST(PipelineSchedulerTest, EventsOfOneItemFollowItsChain) {
  // One item: the first stage succeeds, the second fails, and the third
  // never runs. The events say so in order: begin → end, then
  // begin → failed.
  using Kind = RunEvent::Kind;
  const std::vector<PipelineStage> stages = {
      {"fine", [](std::size_t) {}},
      {"doomed", [](std::size_t) { throw Error("permanent"); }},
      {"never", [](std::size_t) { FAIL() << "runs after a failed stage"; }},
  };
  struct Seen {
    Kind kind;
    std::uint32_t worker;
    std::size_t stage;
    std::string stage_name;
    std::string message;
  };
  std::vector<Seen> seen;
  std::vector<std::chrono::steady_clock::time_point> times;
  PipelineOptions options;
  options.threads = 1;
  options.on_event = [&](const RunEvent& e) {
    seen.push_back({e.kind, e.worker, e.stage, std::string(e.stage_name),
                    std::string(e.message)});
    times.push_back(e.time);
    EXPECT_GE(e.elapsed.count(), 0);
  };
  const PipelineResult result = RunPipeline(1, stages, options);
  ASSERT_EQ(result.failures.size(), 1u);

  const std::vector<Seen> expected = {
      {Kind::kRunBegin, 1, 0, "", ""},
      {Kind::kWorkerBegin, 0, 0, "", ""},
      {Kind::kStageBegin, 0, 0, "fine", ""},
      {Kind::kStageEnd, 0, 0, "fine", ""},
      {Kind::kStageBegin, 0, 1, "doomed", ""},
      {Kind::kStageFailed, 0, 1, "doomed", "permanent"},
      {Kind::kWorkerEnd, 0, 0, "", ""},
      {Kind::kRunEnd, 1, 0, "", ""},
  };
  ASSERT_EQ(seen.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(seen[i].kind, expected[i].kind);
    EXPECT_EQ(seen[i].worker, expected[i].worker);
    EXPECT_EQ(seen[i].stage, expected[i].stage);
    EXPECT_EQ(seen[i].stage_name, expected[i].stage_name);
    EXPECT_EQ(seen[i].message, expected[i].message);
    if (i > 0) {
      EXPECT_LE(times[i - 1], times[i]);
    }
  }
}

TEST(PipelineSchedulerTest, TimelineAttributesRampUpAndTailJoinPerWorker) {
  // A timeline subscribed to the event stream: every worker's lane opens
  // with a ramp-up interval starting at the marked run start and closes
  // with a tail-join interval ending at the marked run end, so its buckets
  // cover the run's whole wall clock. The tail join starts no earlier than
  // the lane's last stage end.
  constexpr int kThreads = 4;
  obs::Timeline timeline;
  const std::vector<PipelineStage> stages = {
      {"a", [](std::size_t) { std::this_thread::sleep_for(100us); }},
      {"b", [](std::size_t) {}},
  };
  PipelineOptions options;
  options.threads = kThreads;
  options.on_event = [&timeline](const RunEvent& e) {
    timeline.OnEvent(e, e.item);
  };
  const PipelineResult result = RunPipeline(32, stages, options);
  EXPECT_TRUE(result.failures.empty());

  ASSERT_EQ(timeline.WorkerCount(), static_cast<std::size_t>(kThreads));
  std::uint64_t stage_count = 0;
  for (std::size_t w = 0; w < timeline.WorkerCount(); ++w) {
    SCOPED_TRACE("worker=" + std::to_string(w));
    const obs::TimelineWorkerTotals totals = timeline.TotalsFor(w);
    stage_count += totals.stage_count;
    EXPECT_EQ(totals.first_us, timeline.RunStartUs());
    EXPECT_EQ(totals.last_us, timeline.RunEndUs());
    int ramp_ups = 0;
    int tail_joins = 0;
    for (const obs::TimelineInterval& interval : timeline.SamplesFor(w)) {
      if (interval.kind == obs::IntervalKind::kRampUp) {
        ++ramp_ups;
        EXPECT_EQ(interval.start_us, timeline.RunStartUs());
      } else if (interval.kind == obs::IntervalKind::kTailJoin) {
        ++tail_joins;
        EXPECT_EQ(interval.end_us, timeline.RunEndUs());
        EXPECT_GE(interval.start_us, totals.last_stage_end_us);
      }
    }
    EXPECT_EQ(ramp_ups, 1);
    EXPECT_EQ(tail_joins, 1);
  }
  EXPECT_EQ(stage_count, 64u);
}

}  // namespace
}  // namespace pinscope::util
