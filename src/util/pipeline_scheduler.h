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
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

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

/// What a StageHook observes about one (item, stage) execution.
enum class StageEvent {
  kBegin,   ///< Entering the attempt loop (before fault injection / body).
  kEnd,     ///< The stage succeeded (possibly after retries).
  kFailed,  ///< Retries exhausted; the item's remaining stages are skipped.
};

/// Optional observability callback around each stage's whole attempt loop.
/// Wraps fault injection too — an injected delay counts as time inside the
/// stage, which is exactly what a straggler watchdog must see. Called
/// concurrently by workers; must be thread-safe and cheap. Purely
/// observational: never consulted by the scheduler.
using StageHook =
    std::function<void(std::size_t item, std::size_t stage, StageEvent event)>;

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
  /// Optional trace sink: one "<label>.worker" span per worker plus one
  /// "<label>.<stage>" span per stage execution. Purely observational.
  obs::TraceSink* trace = nullptr;
  /// Span/metric prefix.
  const char* trace_label = "sched";
  /// Optional metrics: `sched.tasks` / `sched.retries` / `sched.failures`
  /// counters. Purely observational (never consulted by the scheduler).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional per-stage observability hook (see StageHook).
  StageHook stage_hook;
  /// Optional bounded interval timeline (obs/timeline.h): one kStage
  /// interval per stage attempt loop, a kRampUp interval from run start to
  /// each worker's first claim, a kTailJoin interval from each worker's last
  /// chain end to the join, and ambient lock-wait attribution while a worker
  /// runs. Purely observational — never consulted by the scheduler — and
  /// O(workers · cap) memory regardless of n.
  obs::Timeline* timeline = nullptr;
  /// Maps an item index to the stable 64-bit identity stage intervals carry
  /// (the study drivers pass TelemetryKey: platform rank in the top bits,
  /// universe index below). Defaults to the item index itself.
  std::function<std::uint64_t(std::size_t item)> timeline_key;
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
  /// Stage attempts beyond the first (only with max_stage_retries > 0).
  std::uint64_t retries = 0;
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
