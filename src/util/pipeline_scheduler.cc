#include "util/pipeline_scheduler.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "util/error.h"

namespace pinscope::util {

void SchedulerFaultPlan::Set(std::size_t stage, std::size_t item, Fault fault) {
  Cell& cell = faults_[{stage, item}];
  cell.delay = fault.delay;
  cell.remaining_failures.store(fault.fail_times, std::memory_order_relaxed);
}

void SchedulerFaultPlan::MaybeInject(std::size_t stage, std::size_t item) const {
  const auto it = faults_.find({stage, item});
  if (it == faults_.end()) return;
  const Cell& cell = it->second;
  if (cell.delay.count() > 0) std::this_thread::sleep_for(cell.delay);
  // fetch_sub admits exactly fail_times throws even when attempts race.
  if (cell.remaining_failures.load(std::memory_order_relaxed) > 0 &&
      cell.remaining_failures.fetch_sub(1, std::memory_order_relaxed) > 0) {
    throw Error("injected fault: stage " + std::to_string(stage) + ", item " +
                std::to_string(item));
  }
}

namespace {

/// Everything one run's workers share.
struct Run {
  const std::vector<PipelineStage>* stages = nullptr;
  const PipelineOptions* options = nullptr;
  std::size_t n = 0;

  /// The next unclaimed item. Claims carry no data between workers (each
  /// item writes only its own state), so relaxed ordering suffices; the
  /// joins publish every worker's writes to the caller.
  std::atomic<std::size_t> next_item{0};
  std::atomic<std::uint64_t> retries{0};

  /// Cached metric handles (null-safe no-ops without a registry).
  obs::Counter tasks_counter;
  obs::Counter retries_counter;
  obs::Counter failures_counter;

  /// Timeline label ids, one per stage (empty without a timeline).
  std::vector<std::uint32_t> stage_labels;

  [[nodiscard]] obs::Timeline* timeline() const { return options->timeline; }

  [[nodiscard]] std::uint64_t KeyFor(std::size_t item) const {
    return options->timeline_key ? options->timeline_key(item)
                                 : static_cast<std::uint64_t>(item);
  }
};

/// What one worker leaves behind for the caller to merge after the join.
struct WorkerState {
  std::vector<StageFailure> failures;
  /// Timeline clock at the worker's last chain end (its tail-join start).
  std::int64_t idle_since_us = 0;
};

/// Interns every stage name once so workers record labels, not strings,
/// and allocates every worker's lane up front so recording never allocates.
void PrepareTimeline(Run& run, int workers) {
  obs::Timeline* timeline = run.timeline();
  if (timeline == nullptr) return;
  run.stage_labels.reserve(run.stages->size());
  for (const PipelineStage& stage : *run.stages) {
    run.stage_labels.push_back(timeline->InternStage(stage.name));
  }
  timeline->ReserveLanes(static_cast<std::size_t>(workers));
  timeline->MarkRunStart();
}

/// Records the whole attempt loop of (item, stage) as one kStage interval
/// on `worker` when a timeline rides along. Mirrors StageHook semantics:
/// injected delays and retries count as time inside the stage.
class StageIntervalScope {
 public:
  StageIntervalScope(Run& run, std::size_t item, std::size_t stage,
                     int worker)
      : timeline_(run.timeline()) {
    if (timeline_ == nullptr) return;
    worker_ = static_cast<std::uint32_t>(worker);
    key_ = run.KeyFor(item);
    label_ = run.stage_labels[stage];
    start_us_ = timeline_->NowUs();
  }
  StageIntervalScope(const StageIntervalScope&) = delete;
  StageIntervalScope& operator=(const StageIntervalScope&) = delete;
  ~StageIntervalScope() {
    if (timeline_ == nullptr) return;
    timeline_->RecordStage(worker_, key_, label_, start_us_,
                           timeline_->NowUs());
  }

 private:
  obs::Timeline* timeline_;
  std::uint32_t worker_ = 0;
  std::uint64_t key_ = 0;
  std::uint32_t label_ = 0;
  std::int64_t start_us_ = 0;
};

/// Runs one stage's attempt loop for an item; returns true when the stage
/// (eventually) succeeded, false when it failed after retries (failure
/// recorded in `sink`).
bool RunStageGuarded(Run& run, std::size_t item, std::size_t stage_index,
                     int worker, std::vector<StageFailure>& sink) {
  const PipelineStage& stage = (*run.stages)[stage_index];
  const int max_retries = std::max(run.options->max_stage_retries, 0);
  const StageHook& hook = run.options->stage_hook;
  const StageIntervalScope interval(run, item, stage_index, worker);
  if (hook) hook(item, stage_index, StageEvent::kBegin);
  std::string message;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    if (attempt > 0) {
      run.retries.fetch_add(1, std::memory_order_relaxed);
      run.retries_counter.Increment();
    }
    try {
      if (run.options->faults != nullptr) {
        run.options->faults->MaybeInject(stage_index, item);
      }
      const obs::Span span =
          run.options->trace == nullptr
              ? obs::Span()
              : obs::Span(run.options->trace,
                          std::string(run.options->trace_label) + "." +
                              stage.name,
                          "sched", {{"item", std::to_string(item)}});
      stage.body(item);
      run.tasks_counter.Increment();
      if (hook) hook(item, stage_index, StageEvent::kEnd);
      return true;
    } catch (const std::exception& e) {
      message = e.what();
    } catch (...) {
      message = "unknown exception";
    }
  }
  sink.push_back({item, stage_index, stage.name, std::move(message)});
  run.failures_counter.Increment();
  if (hook) hook(item, stage_index, StageEvent::kFailed);
  return false;
}

/// Claims items until the cursor passes n, running each claimed item's
/// whole chain in order; a failed stage skips the rest of that chain. With
/// a timeline, the time from the run start to the first claim is recorded
/// as the worker's ramp-up (thread spawn and start-up).
void WorkerLoop(Run& run, int worker, WorkerState& state) {
  obs::Timeline* timeline = run.timeline();
  const auto lane = static_cast<std::uint32_t>(worker);
  const obs::TimelineWorkerScope ambient(timeline, lane);
  const obs::Span span =
      run.options->trace == nullptr
          ? obs::Span()
          : obs::Span(run.options->trace,
                      std::string(run.options->trace_label) + ".worker",
                      "sched", {{"worker", std::to_string(worker)}});
  if (timeline != nullptr) {
    timeline->RecordIdle(lane, obs::IntervalKind::kRampUp,
                         timeline->RunStartUs(), timeline->NowUs());
  }
  const std::size_t n_stages = run.stages->size();
  for (;;) {
    const std::size_t item =
        run.next_item.fetch_add(1, std::memory_order_relaxed);
    if (item >= run.n) break;
    for (std::size_t s = 0; s < n_stages; ++s) {
      if (!RunStageGuarded(run, item, s, worker, state.failures)) break;
    }
  }
  if (timeline != nullptr) state.idle_since_us = timeline->NowUs();
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
  if (options.metrics != nullptr) {
    run.tasks_counter = options.metrics->counter("sched.tasks");
    run.retries_counter = options.metrics->counter("sched.retries");
    run.failures_counter = options.metrics->counter("sched.failures");
  }
  PrepareTimeline(run, workers);

  // The caller is worker 0; one worker means no thread is spawned at all.
  std::vector<WorkerState> states(static_cast<std::size_t>(workers));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) {
    pool.emplace_back([&run, &states, w] {
      WorkerLoop(run, w, states[static_cast<std::size_t>(w)]);
    });
  }
  WorkerLoop(run, 0, states[0]);
  for (std::thread& t : pool) t.join();

  // Each worker idled from its last chain end until the last worker
  // finished and the caller returned from the joins: its tail join.
  if (obs::Timeline* timeline = options.timeline) {
    timeline->MarkRunEnd();
    const std::int64_t end_us = timeline->RunEndUs();
    for (std::size_t w = 0; w < states.size(); ++w) {
      timeline->RecordIdle(static_cast<std::uint32_t>(w),
                           obs::IntervalKind::kTailJoin,
                           states[w].idle_since_us, end_us);
    }
  }

  // Failures were collected per worker; merged and sorted here so the
  // reported failure set is independent of scheduling.
  for (WorkerState& state : states) {
    result.failures.insert(result.failures.end(),
                           std::make_move_iterator(state.failures.begin()),
                           std::make_move_iterator(state.failures.end()));
  }
  std::sort(result.failures.begin(), result.failures.end(),
            [](const StageFailure& a, const StageFailure& b) {
              return a.item != b.item ? a.item < b.item : a.stage < b.stage;
            });
  result.retries = run.retries.load(std::memory_order_relaxed);
  return result;
}

}  // namespace pinscope::util
