#include "obs/timeline.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "util/pipeline_scheduler.h"

namespace pinscope::obs {

namespace {

/// The ambient (timeline, worker) binding TrackedMutex waits report into.
/// One per thread; Timeline::OnEvent sets it for a worker's lifetime.
struct Ambient {
  Timeline* timeline = nullptr;
  std::uint32_t worker = 0;
};

thread_local Ambient g_ambient;

/// Index of `name` in `names`, appended if new. Call under the names' lock.
std::uint32_t Intern(std::vector<std::string>& names, std::string_view name) {
  const auto it = std::find(names.begin(), names.end(), name);
  const auto index = static_cast<std::uint32_t>(it - names.begin());
  if (it == names.end()) names.emplace_back(name);
  return index;
}

}  // namespace

std::string_view IntervalKindName(IntervalKind kind) {
  switch (kind) {
    case IntervalKind::kStage:
      return "stage";
    case IntervalKind::kQueueStarved:
      return "queue_starved";
    case IntervalKind::kBackpressure:
      return "backpressure";
    case IntervalKind::kLockWait:
      return "lock_wait";
    case IntervalKind::kTailJoin:
      return "tail_join";
    case IntervalKind::kRampUp:
      return "ramp_up";
  }
  return "?";
}

/// One worker's half of the timeline: exact totals plus the sampled
/// reservoir. The lane mutex only ever contends with post-run readers —
/// each worker thread owns its lane during the run (lock waits from other
/// threads' ambient recording target their own lanes).
struct Timeline::Lane {
  std::mutex mu;
  TimelineWorkerTotals totals;
  std::vector<TimelineInterval> samples;
  std::uint64_t rng;
  // Run-event state: only the lane's worker (then the run's caller) uses it.
  std::uint32_t open_stage = 0;  ///< Label of the stage the worker is in.
  std::int64_t end_us = 0;       ///< The worker's end: its tail join's start.

  explicit Lane(std::uint64_t seed) : rng(seed | 1) {}

  /// Offers one interval: exact accumulation always, reservoir keep/replace
  /// per algorithm R with a per-lane LCG (deterministic, allocation-free
  /// once the reservoir is full).
  void Offer(const TimelineInterval& interval, std::size_t cap) {
    std::lock_guard<std::mutex> lock(mu);
    const double us = static_cast<double>(interval.duration_us());
    switch (interval.kind) {
      case IntervalKind::kStage:
        totals.busy_us += us;
        ++totals.stage_count;
        break;
      case IntervalKind::kQueueStarved:
        totals.queue_starved_us += us;
        break;
      case IntervalKind::kBackpressure:
        totals.backpressure_us += us;
        break;
      case IntervalKind::kLockWait:
        totals.lock_wait_us += us;
        break;
      case IntervalKind::kTailJoin:
        totals.tail_join_us += us;
        break;
      case IntervalKind::kRampUp:
        totals.ramp_up_us += us;
        break;
    }
    if (totals.intervals_seen == 0 || interval.start_us < totals.first_us) {
      totals.first_us = interval.start_us;
    }
    totals.last_us = std::max(totals.last_us, interval.end_us);
    ++totals.intervals_seen;
    if (cap == 0) return;
    if (samples.size() < cap) {
      samples.push_back(interval);
      return;
    }
    // Reservoir: keep with probability cap/n, replacing a uniform slot.
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t r = (rng >> 16) % totals.intervals_seen;
    if (r < cap) samples[static_cast<std::size_t>(r)] = interval;
  }
};

Timeline::Timeline(TimelineOptions options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {}

Timeline::~Timeline() {
  for (std::atomic<Lane*>& slot : lanes_) {
    delete slot.load(std::memory_order_acquire);
  }
}

Timeline::Lane& Timeline::LaneFor(std::uint32_t worker) {
  const std::size_t index = std::min<std::size_t>(worker, kMaxLanes - 1);
  Lane* lane = lanes_[index].load(std::memory_order_acquire);
  if (lane != nullptr) return *lane;
  std::lock_guard<std::mutex> lock(grow_mu_);
  lane = lanes_[index].load(std::memory_order_relaxed);
  if (lane == nullptr) {
    // Seed the lane's reservoir LCG from its index only: deterministic
    // given the same interval sequence, distinct across lanes.
    lane = new Lane(0x9e3779b97f4a7c15ULL ^ (index * 0xff51afd7ed558ccdULL));
    lanes_[index].store(lane, std::memory_order_release);
  }
  return *lane;
}

std::uint32_t Timeline::InternStage(std::string_view name) {
  std::lock_guard<std::mutex> lock(grow_mu_);
  return Intern(stage_names_, name);
}

void Timeline::ReserveLanes(std::size_t workers) {
  for (std::size_t w = 0; w < std::min(workers, kMaxLanes); ++w) {
    Lane& lane = LaneFor(static_cast<std::uint32_t>(w));
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.samples.reserve(options_.per_worker_cap);
  }
}

void Timeline::RecordStage(std::uint32_t worker, std::uint64_t key,
                           std::uint32_t label, std::int64_t start_us,
                           std::int64_t end_us) {
  LaneFor(worker).Offer({start_us, std::max(end_us, start_us), key, label,
                         worker, IntervalKind::kStage},
                        options_.per_worker_cap);
}

void Timeline::RecordIdle(std::uint32_t worker, IntervalKind kind,
                          std::int64_t start_us, std::int64_t end_us) {
  LaneFor(worker).Offer(
      {start_us, std::max(end_us, start_us), 0, 0, worker, kind},
      options_.per_worker_cap);
}

void Timeline::RecordLockWait(std::uint32_t worker, std::string_view lock_name,
                              std::int64_t wait_us) {
  std::uint32_t label = 0;
  {
    std::lock_guard<std::mutex> lock(grow_mu_);
    label = Intern(lock_names_, lock_name);
  }
  const std::int64_t end = NowUs();
  const std::int64_t start =
      std::max<std::int64_t>(end - std::max<std::int64_t>(wait_us, 0), 0);
  LaneFor(worker).Offer(
      {start, end, 0, label, worker, IntervalKind::kLockWait},
      options_.per_worker_cap);
}

std::int64_t Timeline::NowUs() const {
  return UsAt(std::chrono::steady_clock::now());
}

std::int64_t Timeline::UsAt(std::chrono::steady_clock::time_point time) const {
  return std::chrono::duration_cast<std::chrono::microseconds>(time - epoch_)
      .count();
}

template <typename Fn>
void Timeline::ForEachLane(Fn fn) const {
  for (const std::atomic<Lane*>& slot : lanes_) {
    Lane* lane = slot.load(std::memory_order_acquire);
    if (lane == nullptr) continue;
    std::lock_guard<std::mutex> lock(lane->mu);
    fn(*lane);
  }
}

std::int64_t Timeline::RunStartUs() const {
  const std::int64_t marked = run_start_us_.load(std::memory_order_acquire);
  if (marked >= 0) return marked;
  std::optional<std::int64_t> first;
  ForEachLane([&first](const Lane& lane) {
    if (lane.totals.intervals_seen == 0) return;
    first = std::min(first.value_or(lane.totals.first_us), lane.totals.first_us);
  });
  return first.value_or(0);
}

std::int64_t Timeline::RunEndUs() const {
  const std::int64_t marked = run_end_us_.load(std::memory_order_acquire);
  if (marked >= 0) return marked;
  std::int64_t last = 0;
  ForEachLane([&last](const Lane& lane) {
    last = std::max(last, lane.totals.last_us);
  });
  return last;
}

std::size_t Timeline::WorkerCount() const {
  std::size_t count = 0;
  for (std::size_t w = 0; w < kMaxLanes; ++w) {
    if (lanes_[w].load(std::memory_order_acquire) != nullptr) count = w + 1;
  }
  return count;
}

TimelineWorkerTotals Timeline::TotalsFor(std::size_t worker) const {
  if (worker >= kMaxLanes) return {};
  Lane* lane = lanes_[worker].load(std::memory_order_acquire);
  if (lane == nullptr) return {};
  std::lock_guard<std::mutex> lock(lane->mu);
  return lane->totals;
}

std::vector<TimelineInterval> Timeline::SamplesFor(std::size_t worker) const {
  if (worker >= kMaxLanes) return {};
  Lane* lane = lanes_[worker].load(std::memory_order_acquire);
  if (lane == nullptr) return {};
  std::vector<TimelineInterval> out;
  {
    std::lock_guard<std::mutex> lock(lane->mu);
    out = lane->samples;
  }
  std::sort(out.begin(), out.end(),
            [](const TimelineInterval& a, const TimelineInterval& b) {
              return a.start_us != b.start_us ? a.start_us < b.start_us
                                              : a.end_us < b.end_us;
            });
  return out;
}

std::size_t Timeline::SampleCount() const {
  std::size_t count = 0;
  ForEachLane([&count](const Lane& lane) { count += lane.samples.size(); });
  return count;
}

std::uint64_t Timeline::IntervalsSeen() const {
  std::uint64_t count = 0;
  ForEachLane(
      [&count](const Lane& lane) { count += lane.totals.intervals_seen; });
  return count;
}

std::string_view Timeline::StageName(std::uint32_t label) const {
  std::lock_guard<std::mutex> lock(grow_mu_);
  if (label >= stage_names_.size()) return "?";
  return stage_names_[label];
}

std::string_view Timeline::LockName(std::uint32_t label) const {
  std::lock_guard<std::mutex> lock(grow_mu_);
  if (label >= lock_names_.size()) return "?";
  return lock_names_[label];
}

std::size_t Timeline::ReservoirCapacityBytes() const {
  std::size_t lanes = 0;
  ForEachLane([&lanes](const Lane&) { ++lanes; });
  return lanes * options_.per_worker_cap * sizeof(TimelineInterval);
}

void Timeline::OnEvent(const util::RunEvent& event, std::uint64_t key) {
  using Kind = util::RunEvent::Kind;
  const std::int64_t us = UsAt(event.time);
  switch (event.kind) {
    case Kind::kRunBegin:
      ReserveLanes(event.worker);
      run_start_us_.store(us, std::memory_order_release);
      break;
    case Kind::kWorkerBegin:
      g_ambient = {this, event.worker};
      RecordIdle(event.worker, IntervalKind::kRampUp, RunStartUs(), us);
      break;
    case Kind::kStageBegin:
      // Interned inside the stage's own interval. A worker begins stage k
      // only after its stage k-1, so labels number stages in chain order.
      LaneFor(event.worker).open_stage = InternStage(event.stage_name);
      break;
    case Kind::kStageEnd:
    case Kind::kStageFailed:
      RecordStage(event.worker, key, LaneFor(event.worker).open_stage,
                  UsAt(event.time - event.elapsed), us);
      break;
    case Kind::kWorkerEnd:
      g_ambient = {};
      LaneFor(event.worker).end_us = us;
      break;
    case Kind::kRunEnd:
      // Each worker idled from its end until the last worker finished and
      // the caller returned from the joins: its tail join.
      run_end_us_.store(us, std::memory_order_release);
      for (std::uint32_t w = 0; w < event.worker; ++w) {
        RecordIdle(w, IntervalKind::kTailJoin, LaneFor(w).end_us, us);
      }
      break;
  }
}

// Declared in obs/mutex.h: routes a contended TrackedMutex wait to the
// thread's ambient timeline lane, if any.
void RecordAmbientLockWait(std::string_view lock_name, std::int64_t wait_us) {
  if (g_ambient.timeline == nullptr) return;
  g_ambient.timeline->RecordLockWait(g_ambient.worker, lock_name, wait_us);
}

}  // namespace pinscope::obs
