// Run-to-completion scheduling for per-item stage chains.
//
// `RunPipeline(n, stages, options)` runs every item of [0, n) through an
// ordered chain of stages (stage k+1 of an item depends on stage k of the
// same item, and on nothing else). Every worker — the calling thread
// included — claims the next unclaimed item from one atomic cursor and runs
// that item's whole chain before it claims another. There is no ready queue
// and no hand-off between workers: no corpus-wide barrier separates stages,
// no worker ever blocks on another, and at most `workers` items are between
// their first stage's begin and their last stage's end at any instant (the
// streaming memory bound core/stream_study relies on).
//
// Determinism contract: a stage body must write only per-item state and
// derive any RNG from the study seed plus the item identity (never from
// shared stream position). Under that contract the results are invariant to
// worker count and completion order, so the worker count is a pure
// throughput knob (tests/core/sched_equivalence_test.cc proves the study's
// exports, journal, and run reports are byte-identical to the serial run).
//
// Observability: one stream of plain RunEvents through one callback
// (PipelineOptions::on_event). Every view of a run is derived from it by the
// subscriber in core/stream_study.cc; this module knows none of them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pinscope::util {

/// One stage of the per-item chain.
struct PipelineStage {
  /// Short name used for span labels, metric families, and failure messages
  /// ("static", "dynamic", "verdict", ...).
  std::string name;
  /// Runs the stage for one item. Must only touch per-item state.
  std::function<void(std::size_t item)> body;
};

/// Test-only fault injection for the scheduler (tests/core/sched_fault_test).
/// Faults fire at stage *entry* — before the stage body runs — so an
/// injected failure never leaves partial per-item state (journal events,
/// half-written reports) behind, and a retried stage replays from scratch.
/// Configure with Set() before the run (not thread-safe); MaybeInject is
/// called concurrently by workers and is safe.
class SchedulerFaultPlan {
 public:
  struct Fault {
    /// Sleep this long at stage entry (a "slow app").
    std::chrono::milliseconds delay{0};
    /// Throw for this many attempts before letting the stage run (a
    /// "transiently failing app"; make it huge for a permanent failure).
    int fail_times = 0;
  };

  /// Arms a fault for stage `stage` of item `item`.
  void Set(std::size_t stage, std::size_t item, Fault fault);

  /// Applies any armed fault for (stage, item): sleeps, then throws
  /// util::Error("injected fault ...") while failures remain.
  void MaybeInject(std::size_t stage, std::size_t item) const;

 private:
  struct Cell {
    std::chrono::milliseconds delay{0};
    mutable std::atomic<int> remaining_failures{0};
  };
  std::map<std::pair<std::size_t, std::size_t>, Cell> faults_;
};

/// One thing that happened in a run, as the scheduler reports it through
/// PipelineOptions::on_event. A plain value: the views are valid only for
/// the duration of the callback, so emitting an event allocates nothing.
struct RunEvent {
  /// The kinds from kStageBegin on are about one item's stage.
  enum class Kind : std::uint8_t {
    kRunBegin,     ///< On the caller, before any worker starts.
    kRunEnd,       ///< On the caller, after every worker has joined.
    kWorkerBegin,  ///< On the worker, before its first claim.
    kWorkerEnd,    ///< On the worker, after its last chain ended.
    kStageBegin,   ///< Entering a stage's attempt loop (before any fault).
    kStageEnd,     ///< The stage succeeded (possibly after retries).
    kStageFailed,  ///< Retries exhausted; the item's later stages are skipped.
    kRetry,        ///< A failed attempt is about to be re-run.
  };

  Kind kind = Kind::kRunBegin;
  /// The worker it happened on; for run events, the run's worker count.
  std::uint32_t worker = 0;
  std::size_t item = 0;   ///< Stage and retry events.
  std::size_t stage = 0;  ///< Stage and retry events.
  std::chrono::steady_clock::time_point time{};
  /// End and failed events: the time since the matching begin (for a stage,
  /// its whole attempt loop, injected delays and retries included).
  std::chrono::steady_clock::duration elapsed{};
  std::string_view stage_name{};  ///< Stage and retry events.
  std::string_view message{};     ///< kStageFailed, kRetry: the error.
};

/// Knobs for one pipelined run.
struct PipelineOptions {
  /// Worker threads: 0 = hardware concurrency, 1 = run inline on the caller
  /// (no threads spawned), N = at most N workers (the caller is one of them).
  int threads = 0;
  /// Re-run a stage this many times after it throws before recording the
  /// failure. Retries replay the whole stage, so bodies must be idempotent
  /// per attempt (the study stages are: they overwrite their slot).
  int max_stage_retries = 0;
  /// Test-only fault injection (see SchedulerFaultPlan).
  const SchedulerFaultPlan* faults = nullptr;
  /// Optional subscriber to every RunEvent of the run, called concurrently
  /// from all workers: must be thread-safe and cheap. Purely observational,
  /// never consulted by the scheduler. When empty the scheduler builds no
  /// event and reads no clock.
  std::function<void(const RunEvent&)> on_event;
};

/// One failed stage of one item. Later stages of that item do not run.
struct StageFailure {
  std::size_t item = 0;
  std::size_t stage = 0;
  std::string stage_name;
  std::string message;
};

/// What a pipelined run observed. Failures are sorted by (item, stage), so
/// the error surface is as deterministic as the results.
struct PipelineResult {
  std::vector<StageFailure> failures;
};

/// Number of workers a run over `n` items will actually use: `requested`,
/// or the hardware concurrency when `requested` <= 0, but never more than
/// `n` and never 0 for a non-empty run (even if the hardware concurrency is
/// unknown).
[[nodiscard]] int ResolveThreads(int requested, std::size_t n);

/// Runs every item of [0, n) through `stages` in order, one whole chain per
/// claim, with items overlapping across workers. Exceptions escaping a stage
/// (after retries) are collected per item — never thrown — so one failing
/// item cannot abort its siblings; the item's remaining stages are skipped.
[[nodiscard]] PipelineResult RunPipeline(std::size_t n,
                                         const std::vector<PipelineStage>& stages,
                                         const PipelineOptions& options = {});

}  // namespace pinscope::util
