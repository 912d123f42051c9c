#include "obs/timeline.h"

#include <algorithm>
#include <chrono>

namespace pinscope::obs {

namespace {

/// The ambient (timeline, worker) binding TrackedMutex waits report into.
/// One per thread; TimelineWorkerScope saves and restores it.
struct Ambient {
  Timeline* timeline = nullptr;
  std::uint32_t worker = 0;
};

thread_local Ambient g_ambient;

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
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
    : options_(options), epoch_ns_(SteadyNowNs()) {}

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
  for (std::size_t i = 0; i < stage_names_.size(); ++i) {
    if (stage_names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  stage_names_.emplace_back(name);
  return static_cast<std::uint32_t>(stage_names_.size() - 1);
}

void Timeline::ReserveLanes(std::size_t workers) {
  for (std::size_t w = 0; w < std::min(workers, kMaxLanes); ++w) {
    Lane& lane = LaneFor(static_cast<std::uint32_t>(w));
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.samples.reserve(options_.per_worker_cap);
  }
}

void Timeline::MarkRunStart() {
  run_start_us_.store(NowUs(), std::memory_order_release);
}

void Timeline::MarkRunEnd() {
  run_end_us_.store(NowUs(), std::memory_order_release);
}

void Timeline::RecordStage(std::uint32_t worker, std::uint64_t key,
                           std::uint32_t label, std::int64_t start_us,
                           std::int64_t end_us) {
  TimelineInterval interval;
  interval.start_us = start_us;
  interval.end_us = std::max(end_us, start_us);
  interval.key = key;
  interval.label = label;
  interval.worker = worker;
  interval.kind = IntervalKind::kStage;
  LaneFor(worker).Offer(interval, options_.per_worker_cap);
}

void Timeline::RecordIdle(std::uint32_t worker, IntervalKind kind,
                          std::int64_t start_us, std::int64_t end_us) {
  TimelineInterval interval;
  interval.start_us = start_us;
  interval.end_us = std::max(end_us, start_us);
  interval.worker = worker;
  interval.kind = kind;
  LaneFor(worker).Offer(interval, options_.per_worker_cap);
}

void Timeline::RecordLockWait(std::uint32_t worker, std::string_view lock_name,
                              std::int64_t wait_us) {
  std::uint32_t label = 0;
  {
    std::lock_guard<std::mutex> lock(grow_mu_);
    std::size_t i = 0;
    for (; i < lock_names_.size(); ++i) {
      if (lock_names_[i] == lock_name) break;
    }
    if (i == lock_names_.size()) lock_names_.emplace_back(lock_name);
    label = static_cast<std::uint32_t>(i);
  }
  const std::int64_t end = NowUs();
  TimelineInterval interval;
  interval.start_us = std::max<std::int64_t>(end - std::max<std::int64_t>(wait_us, 0), 0);
  interval.end_us = end;
  interval.label = label;
  interval.worker = worker;
  interval.kind = IntervalKind::kLockWait;
  LaneFor(worker).Offer(interval, options_.per_worker_cap);
}

std::int64_t Timeline::NowUs() const {
  return (SteadyNowNs() - epoch_ns_) / 1000;
}

std::int64_t Timeline::RunStartUs() const {
  const std::int64_t marked = run_start_us_.load(std::memory_order_acquire);
  if (marked >= 0) return marked;
  std::int64_t first = 0;
  bool any = false;
  for (std::size_t w = 0; w < kMaxLanes; ++w) {
    Lane* lane = lanes_[w].load(std::memory_order_acquire);
    if (lane == nullptr) continue;
    std::lock_guard<std::mutex> lock(lane->mu);
    if (lane->totals.intervals_seen == 0) continue;
    if (!any || lane->totals.first_us < first) first = lane->totals.first_us;
    any = true;
  }
  return first;
}

std::int64_t Timeline::RunEndUs() const {
  const std::int64_t marked = run_end_us_.load(std::memory_order_acquire);
  if (marked >= 0) return marked;
  std::int64_t last = 0;
  for (std::size_t w = 0; w < kMaxLanes; ++w) {
    Lane* lane = lanes_[w].load(std::memory_order_acquire);
    if (lane == nullptr) continue;
    std::lock_guard<std::mutex> lock(lane->mu);
    last = std::max(last, lane->totals.last_us);
  }
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
  for (std::size_t w = 0; w < kMaxLanes; ++w) {
    Lane* lane = lanes_[w].load(std::memory_order_acquire);
    if (lane == nullptr) continue;
    std::lock_guard<std::mutex> lock(lane->mu);
    count += lane->samples.size();
  }
  return count;
}

std::uint64_t Timeline::IntervalsSeen() const {
  std::uint64_t count = 0;
  for (std::size_t w = 0; w < kMaxLanes; ++w) {
    Lane* lane = lanes_[w].load(std::memory_order_acquire);
    if (lane == nullptr) continue;
    std::lock_guard<std::mutex> lock(lane->mu);
    count += lane->totals.intervals_seen;
  }
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

std::size_t Timeline::StageCount() const {
  std::lock_guard<std::mutex> lock(grow_mu_);
  return stage_names_.size();
}

std::size_t Timeline::LockNameCount() const {
  std::lock_guard<std::mutex> lock(grow_mu_);
  return lock_names_.size();
}

std::size_t Timeline::ReservoirCapacityBytes() const {
  std::size_t lanes = 0;
  for (std::size_t w = 0; w < kMaxLanes; ++w) {
    if (lanes_[w].load(std::memory_order_acquire) != nullptr) ++lanes;
  }
  return lanes * options_.per_worker_cap * sizeof(TimelineInterval);
}

TimelineWorkerScope::TimelineWorkerScope(Timeline* timeline,
                                         std::uint32_t worker)
    : prev_timeline_(g_ambient.timeline), prev_worker_(g_ambient.worker) {
  g_ambient.timeline = timeline;
  g_ambient.worker = worker;
}

TimelineWorkerScope::~TimelineWorkerScope() {
  g_ambient.timeline = prev_timeline_;
  g_ambient.worker = prev_worker_;
}

// Declared in obs/mutex.h: routes a contended TrackedMutex wait to the
// thread's ambient timeline lane, if any.
void RecordAmbientLockWait(std::string_view lock_name, std::int64_t wait_us) {
  if (g_ambient.timeline == nullptr) return;
  g_ambient.timeline->RecordLockWait(g_ambient.worker, lock_name, wait_us);
}

}  // namespace pinscope::obs
