#include "obs/autopsy.h"

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>

namespace pinscope::obs {

namespace {

/// Fills the critical path: the lane whose last stage ended latest (ties
/// go to the lower worker id). Its exact totals give the path's length and
/// stage count; its sampled stage intervals, in run order, the segments.
void FillCriticalPath(const Timeline& timeline, Autopsy& autopsy) {
  std::size_t lane = 0;
  TimelineWorkerTotals critical;
  for (std::size_t w = 0; w < timeline.WorkerCount(); ++w) {
    const TimelineWorkerTotals totals = timeline.TotalsFor(w);
    if (totals.stage_count == 0) continue;
    if (critical.stage_count == 0 ||
        totals.last_stage_end_us > critical.last_stage_end_us) {
      lane = w;
      critical = totals;
    }
  }
  if (critical.stage_count == 0) return;
  autopsy.critical_path_us = critical.busy_us;
  autopsy.critical_path_stages = critical.stage_count;
  for (const TimelineInterval& interval : timeline.SamplesFor(lane)) {
    if (interval.kind != IntervalKind::kStage) continue;
    autopsy.critical_path.push_back(
        {interval.key, std::string(timeline.StageName(interval.label)),
         interval.worker, interval.start_us, interval.end_us});
  }
}

std::vector<WorkerBreakdown> BreakdownWorkers(const Timeline& timeline,
                                              double wall_us) {
  std::vector<WorkerBreakdown> out;
  for (std::size_t w = 0; w < timeline.WorkerCount(); ++w) {
    const TimelineWorkerTotals totals = timeline.TotalsFor(w);
    if (totals.intervals_seen == 0) continue;
    WorkerBreakdown row;
    row.worker = static_cast<std::uint32_t>(w);
    // Stage time includes any in-stage lock waits; moving them to their own
    // bucket keeps the rows a partition of the wall clock.
    row.busy_us = std::max(0.0, totals.busy_us - totals.lock_wait_us);
    row.lock_wait_us = totals.lock_wait_us;
    row.tail_join_us = totals.tail_join_us;
    row.ramp_up_us = totals.ramp_up_us;
    row.stage_count = totals.stage_count;
    row.other_us = wall_us - row.attributed_us();
    out.push_back(row);
  }
  return out;
}

std::vector<SlowItem> SlowestItems(const Timeline& timeline) {
  struct Acc {
    double total_us = 0;
    std::map<std::uint32_t, double> by_label;
  };
  std::unordered_map<std::uint64_t, Acc> acc;
  for (std::size_t w = 0; w < timeline.WorkerCount(); ++w) {
    for (const TimelineInterval& interval : timeline.SamplesFor(w)) {
      if (interval.kind != IntervalKind::kStage) continue;
      Acc& a = acc[interval.key];
      const double us = static_cast<double>(interval.duration_us());
      a.total_us += us;
      a.by_label[interval.label] += us;
    }
  }
  std::vector<SlowItem> out;
  out.reserve(acc.size());
  for (const auto& [key, a] : acc) {
    SlowItem item;
    item.key = key;
    item.total_us = a.total_us;
    for (const auto& [label, us] : a.by_label) {
      item.stages.emplace_back(std::string(timeline.StageName(label)), us);
    }
    out.push_back(std::move(item));
  }
  std::sort(out.begin(), out.end(), [](const SlowItem& a, const SlowItem& b) {
    return a.total_us != b.total_us ? a.total_us > b.total_us : a.key < b.key;
  });
  if (out.size() > kAutopsyTopK) out.resize(kAutopsyTopK);
  return out;
}

std::vector<LockProfile> JoinLocks(const MetricsSnapshot* metrics) {
  std::vector<LockProfile> out;
  if (metrics == nullptr) return out;
  constexpr std::string_view kPrefix = "lock.";
  constexpr std::string_view kWait = ".wait_us";
  for (const auto& [name, h] : metrics->histograms) {
    if (name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    if (name.size() < kWait.size() ||
        name.compare(name.size() - kWait.size(), kWait.size(), kWait) != 0) {
      continue;
    }
    LockProfile profile;
    profile.name =
        name.substr(kPrefix.size(), name.size() - kPrefix.size() - kWait.size());
    profile.total_wait_us = h.sum;
    profile.p99_wait_us = h.Quantile(0.99);
    const auto counter =
        metrics->counters.find(std::string(kPrefix) + profile.name + ".contended");
    if (counter != metrics->counters.end()) profile.contended = counter->second;
    if (profile.contended == 0 && profile.total_wait_us <= 0) continue;
    out.push_back(std::move(profile));
  }
  std::sort(out.begin(), out.end(), [](const LockProfile& a, const LockProfile& b) {
    return a.total_wait_us != b.total_wait_us ? a.total_wait_us > b.total_wait_us
                                              : a.name < b.name;
  });
  return out;
}

}  // namespace

Autopsy Analyze(const Timeline& timeline, const MetricsSnapshot* metrics) {
  Autopsy autopsy;
  const std::int64_t start = timeline.RunStartUs();
  const std::int64_t end = timeline.RunEndUs();
  autopsy.wall_us = static_cast<double>(std::max<std::int64_t>(end - start, 0));
  autopsy.workers = timeline.WorkerCount();
  autopsy.intervals_seen = timeline.IntervalsSeen();
  autopsy.intervals_sampled = timeline.SampleCount();
  autopsy.sampled = autopsy.intervals_seen >
                    static_cast<std::uint64_t>(autopsy.intervals_sampled);

  FillCriticalPath(timeline, autopsy);
  autopsy.worker_breakdown = BreakdownWorkers(timeline, autopsy.wall_us);
  autopsy.slowest = SlowestItems(timeline);
  autopsy.locks = JoinLocks(metrics);
  return autopsy;
}

std::string WriteFoldedStacks(const Timeline& timeline,
                              const ItemResolver& resolver) {
  // Aggregate sampled stage time by (item, stage), then render the folded
  // frame `platform;app;stage weight` flamegraph tooling expects. Lines are
  // sorted so equal timelines fold to identical bytes.
  std::map<std::string, double> folded;
  for (std::size_t w = 0; w < timeline.WorkerCount(); ++w) {
    for (const TimelineInterval& interval : timeline.SamplesFor(w)) {
      if (interval.kind != IntervalKind::kStage) continue;
      const ItemLabel label =
          resolver ? resolver(interval.key) : FallbackLabel(interval.key);
      std::string frame = label.platform;
      frame += ';';
      frame += label.app;
      frame += ';';
      frame += timeline.StageName(interval.label);
      folded[frame] += static_cast<double>(interval.duration_us());
    }
  }
  std::string out;
  for (const auto& [frame, us] : folded) {
    out += frame;
    out += ' ';
    out += std::to_string(static_cast<std::int64_t>(us));
    out += '\n';
  }
  return out;
}

ItemLabel FallbackLabel(std::uint64_t key) {
  return {"item", std::to_string(key)};
}

}  // namespace pinscope::obs
