#include "util/pipeline_scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "util/error.h"

namespace pinscope::util {

void SchedulerFaultPlan::Set(std::size_t stage, std::size_t item, Fault fault) {
  faults_[{stage, item}] = fault;
}

void SchedulerFaultPlan::MaybeInject(std::size_t stage, std::size_t item) const {
  const auto it = faults_.find({stage, item});
  if (it == faults_.end()) return;
  const Fault& fault = it->second;
  if (fault.delay.count() > 0) std::this_thread::sleep_for(fault.delay);
  if (fault.fail) {
    throw Error("injected fault: stage " + std::to_string(stage) + ", item " +
                std::to_string(item));
  }
}

namespace {

using Clock = std::chrono::steady_clock;

/// Everything one run's workers share.
struct Run {
  const std::vector<PipelineStage>* stages = nullptr;
  const PipelineOptions* options = nullptr;
  std::size_t n = 0;

  /// The next unclaimed item. Claims carry no data between workers (each
  /// item writes only its own state), so relaxed ordering suffices; the
  /// joins publish every worker's writes to the caller.
  std::atomic<std::size_t> next_item{0};

  /// Delivers `event` as a `kind` happening now; without a subscriber, does
  /// nothing and reads no clock. An end kind's `event` is still stamped with
  /// its begin, which `elapsed` is measured from.
  void Emit(RunEvent& event, RunEvent::Kind kind, bool end = false) const {
    if (!options->on_event) return;
    const Clock::time_point now = Clock::now();
    if (end) event.elapsed = now - event.time;
    event.kind = kind;
    event.time = now;
    options->on_event(event);
  }
};

/// Runs one stage of an item once; returns true when it succeeded, false
/// when it threw (failure recorded in `sink`). A stage is a pure function of
/// the study seed and the item, so running it again would throw again.
bool RunStageGuarded(const Run& run, std::size_t item, std::size_t stage_index,
                     std::uint32_t worker, std::vector<StageFailure>& sink) {
  const PipelineStage& stage = (*run.stages)[stage_index];
  RunEvent event;
  if (run.options->on_event) {
    event = {.worker = worker, .item = item, .stage = stage_index,
             .stage_name = stage.name};
  }
  run.Emit(event, RunEvent::Kind::kStageBegin);
  std::string message;
  try {
    if (run.options->faults != nullptr) {
      run.options->faults->MaybeInject(stage_index, item);
    }
    stage.body(item);
    run.Emit(event, RunEvent::Kind::kStageEnd, true);
    return true;
  } catch (const std::exception& e) {
    message = e.what();
  } catch (...) {
    message = "unknown exception";
  }
  sink.push_back({item, stage_index, stage.name, std::move(message)});
  event.message = sink.back().message;
  run.Emit(event, RunEvent::Kind::kStageFailed, true);
  return false;
}

/// Claims items until the cursor passes n, running each claimed item's
/// whole chain in order; a failed stage skips the rest of that chain.
void WorkerLoop(Run& run, std::uint32_t worker,
                std::vector<StageFailure>& failures) {
  RunEvent event{.worker = worker};
  run.Emit(event, RunEvent::Kind::kWorkerBegin);
  const std::size_t n_stages = run.stages->size();
  for (;;) {
    const std::size_t item =
        run.next_item.fetch_add(1, std::memory_order_relaxed);
    if (item >= run.n) break;
    for (std::size_t s = 0; s < n_stages; ++s) {
      if (!RunStageGuarded(run, item, s, worker, failures)) break;
    }
  }
  run.Emit(event, RunEvent::Kind::kWorkerEnd, true);
}

}  // namespace

int ResolveThreads(int requested, std::size_t n) {
  if (n == 0) return 0;
  std::size_t t;
  if (requested <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    t = hw == 0 ? 1 : hw;
  } else {
    t = static_cast<std::size_t>(requested);
  }
  return static_cast<int>(std::min(t, n));
}

PipelineResult RunPipeline(std::size_t n,
                           const std::vector<PipelineStage>& stages,
                           const PipelineOptions& options) {
  PipelineResult result;
  if (n == 0 || stages.empty()) return result;

  const int workers = ResolveThreads(options.threads, n);
  Run run;
  run.stages = &stages;
  run.options = &options;
  run.n = n;
  RunEvent event{.worker = static_cast<std::uint32_t>(workers)};
  run.Emit(event, RunEvent::Kind::kRunBegin);

  // The caller is worker 0; one worker means no thread is spawned at all.
  std::vector<std::vector<StageFailure>> failures(
      static_cast<std::size_t>(workers));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) {
    pool.emplace_back([&run, &failures, w] {
      WorkerLoop(run, static_cast<std::uint32_t>(w),
                 failures[static_cast<std::size_t>(w)]);
    });
  }
  WorkerLoop(run, 0, failures[0]);
  for (std::thread& t : pool) t.join();
  run.Emit(event, RunEvent::Kind::kRunEnd, true);

  // Failures were collected per worker; merged and sorted here so the
  // reported failure set is independent of scheduling.
  for (std::vector<StageFailure>& worker_failures : failures) {
    result.failures.insert(result.failures.end(),
                           std::make_move_iterator(worker_failures.begin()),
                           std::make_move_iterator(worker_failures.end()));
  }
  std::sort(result.failures.begin(), result.failures.end(),
            [](const StageFailure& a, const StageFailure& b) {
              return a.item != b.item ? a.item < b.item : a.stage < b.stage;
            });
  return result;
}

}  // namespace pinscope::util
