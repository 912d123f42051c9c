// Bounded, streaming-safe interval timeline (ROADMAP item 3 · DESIGN §17).
//
// The run autopsy (obs/autopsy.h) needs *intervals* — who ran what, when,
// on which worker — which the flat metrics layer cannot answer and the
// O(corpus) TraceSink cannot afford on a 10⁵-app stream. The Timeline is
// the middle ground: every interval updates exact per-worker accumulators
// (busy/idle bucket totals — O(workers) memory, never sampled away), and a
// per-worker reservoir keeps at most `per_worker_cap` whole intervals for
// structural analysis (critical path, folded stacks). Memory is therefore
// O(workers · cap) no matter how many apps stream through; below the cap
// the sample is exhaustive, above it it is a uniform reservoir (algorithm
// R with a per-lane deterministic LCG).
//
// Determinism contract: identical to the rest of obs — the timeline is
// fed from the scheduler but never consulted by it; attaching one must not
// change a single exported byte (tests/core/autopsy_equivalence_test.cc).
//
// Feeding: OnEvent turns the scheduler's run events into intervals, taking
// every time from the events, so a scripted run yields exact totals.
//
// Lock-wait attribution: between a worker's begin and end events, OnEvent
// makes (timeline, worker) the thread's ambient lane; any TrackedMutex
// that loses a race on that thread reports its wait here via
// RecordAmbientLockWait (declared in obs/mutex.h, defined in timeline.cc),
// which is how per-worker lock-wait time lands in the idle breakdown
// without the caches knowing anything about workers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pinscope::util {
struct RunEvent;
}  // namespace pinscope::util

namespace pinscope::obs {

/// What one recorded interval was spent on. kStage is busy time; the rest
/// are the idle-attribution taxonomy (DESIGN §17).
enum class IntervalKind : std::uint8_t {
  kStage,     ///< Running a stage body.
  kLockWait,  ///< Waiting on a contended TrackedMutex.
  kTailJoin,  ///< From a worker's last chain end to the run's join.
  kRampUp,    ///< From the run start to a worker's first claim.
};

/// Short lower-case label ("stage", "lock_wait", ...).
[[nodiscard]] std::string_view IntervalKindName(IntervalKind kind);

/// One sampled interval. `key` is the caller-defined 64-bit item identity
/// for kStage intervals (the study drivers use TelemetryKey: platform rank
/// in the top bits, universe index below); `label` indexes the timeline's
/// interned stage names (kStage) or lock names (kLockWait), 0 elsewhere.
struct TimelineInterval {
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  std::uint64_t key = 0;
  std::uint32_t label = 0;
  std::uint32_t worker = 0;
  IntervalKind kind = IntervalKind::kStage;

  [[nodiscard]] std::int64_t duration_us() const { return end_us - start_us; }
};

/// Exact (never sampled) per-worker totals, all in microseconds.
struct TimelineWorkerTotals {
  double busy_us = 0;       ///< kStage time (includes in-stage lock waits).
  double lock_wait_us = 0;  ///< kLockWait time (ambient TrackedMutex).
  double tail_join_us = 0;  ///< kTailJoin time.
  double ramp_up_us = 0;    ///< kRampUp time.
  std::uint64_t stage_count = 0;      ///< kStage intervals offered.
  std::uint64_t intervals_seen = 0;   ///< All intervals offered (reservoir n).
  std::int64_t first_us = 0;          ///< Earliest interval start (0 if none).
  std::int64_t last_us = 0;           ///< Latest interval end.
  std::int64_t last_stage_end_us = 0; ///< Latest kStage end (0 if none).
};

struct TimelineOptions {
  /// Reservoir capacity per worker lane. The default comfortably holds every
  /// interval of paper-scale runs (≈5.3k apps × 3-4 stages spread over many
  /// workers) while capping a 10⁵-app stream at ~256 KiB per worker.
  std::size_t per_worker_cap = 8192;
};

/// See file comment. Recording methods are thread-safe (per-lane locking);
/// registration (InternStage) and snapshotting are expected from the
/// run-owning thread before/after the workers exist.
class Timeline {
 public:
  explicit Timeline(TimelineOptions options = {});
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;
  ~Timeline();

  /// Interns a stage name; returns the label id RecordStage expects.
  /// Idempotent per name. Call before the workers start.
  std::uint32_t InternStage(std::string_view name);

  /// Allocates the lanes of workers [0, workers) and reserves each
  /// reservoir up to the cap, so a worker's recordings never allocate: an
  /// allocation between two intervals (a fresh thread's first malloc maps
  /// memory) would otherwise be unattributed time. Call before the workers
  /// start; idempotent.
  void ReserveLanes(std::size_t workers);

  /// Records one stage-body execution on `worker`.
  void RecordStage(std::uint32_t worker, std::uint64_t key, std::uint32_t label,
                   std::int64_t start_us, std::int64_t end_us);

  /// Records one idle interval (any kind but kStage / kLockWait).
  void RecordIdle(std::uint32_t worker, IntervalKind kind, std::int64_t start_us,
                  std::int64_t end_us);

  /// Records a contended-lock wait ending now on `worker` (interning
  /// `lock_name` on first use; safe from any thread).
  void RecordLockWait(std::uint32_t worker, std::string_view lock_name,
                      std::int64_t wait_us);

  /// Records one util::RunPipeline event, on the thread it happened on. A
  /// stage end or failure becomes a kStage interval carrying `key`; from the
  /// run begin to a worker's begin is its kRampUp, from its end to the run
  /// end its kTailJoin, and in between its thread is the ambient lane
  /// TrackedMutex waits land in. Reads no clock: every time is the event's.
  void OnEvent(const util::RunEvent& event, std::uint64_t key = 0);

  /// Microseconds since construction — the clock every interval is on.
  [[nodiscard]] std::int64_t NowUs() const;

  // --- Post-run inspection (call after workers quiesce). -------------------

  /// Run bounds: [start, end] in timeline microseconds. Falls back to the
  /// interval extrema when no run begin/end event was recorded.
  [[nodiscard]] std::int64_t RunStartUs() const;
  [[nodiscard]] std::int64_t RunEndUs() const;

  /// Workers that recorded anything (lane indices are worker ids, dense
  /// from 0).
  [[nodiscard]] std::size_t WorkerCount() const;

  /// Exact totals for `worker` (zeroes for an idle lane).
  [[nodiscard]] TimelineWorkerTotals TotalsFor(std::size_t worker) const;

  /// Sampled intervals of `worker`, sorted by (start, end). Exhaustive when
  /// the lane saw at most `per_worker_cap` intervals.
  [[nodiscard]] std::vector<TimelineInterval> SamplesFor(
      std::size_t worker) const;

  /// Total sampled intervals across lanes (≤ WorkerCount() · cap).
  [[nodiscard]] std::size_t SampleCount() const;

  /// Total intervals offered across lanes.
  [[nodiscard]] std::uint64_t IntervalsSeen() const;

  /// Interned stage/lock name for a label id ("?" when out of range).
  [[nodiscard]] std::string_view StageName(std::uint32_t label) const;
  [[nodiscard]] std::string_view LockName(std::uint32_t label) const;

  /// Upper bound of bytes the interval reservoirs can ever hold for the
  /// lanes allocated so far — constant in corpus size (the ring-bound test
  /// asserts it is identical for a 10× larger stream).
  [[nodiscard]] std::size_t ReservoirCapacityBytes() const;

  [[nodiscard]] std::size_t per_worker_cap() const {
    return options_.per_worker_cap;
  }

 private:
  struct Lane;

  /// Worker ids at or above this clamp into the last lane (far beyond any
  /// real pool; keeps the lane table a fixed array of atomic pointers so
  /// the record path never takes a shared lock).
  static constexpr std::size_t kMaxLanes = 512;

  Lane& LaneFor(std::uint32_t worker);
  /// `time` on the NowUs() clock.
  [[nodiscard]] std::int64_t UsAt(std::chrono::steady_clock::time_point time) const;
  /// Calls `fn(lane)` for every allocated lane, under its lock.
  template <typename Fn>
  void ForEachLane(Fn fn) const;

  TimelineOptions options_;

  std::atomic<Lane*> lanes_[kMaxLanes] = {};
  mutable std::mutex grow_mu_;  ///< Guards lane allocation + name tables.
  std::vector<std::string> stage_names_;
  std::vector<std::string> lock_names_;

  std::atomic<std::int64_t> run_start_us_{-1};
  std::atomic<std::int64_t> run_end_us_{-1};
  std::chrono::steady_clock::time_point epoch_;  ///< Construction time.
};

}  // namespace pinscope::obs
