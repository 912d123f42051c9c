#include "obs/autopsy.h"

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>

namespace pinscope::obs {

namespace {

/// All sampled stage intervals, globally indexed, plus per-worker and
/// per-item views for predecessor lookup.
struct StageGraph {
  std::vector<TimelineInterval> intervals;  ///< kStage only.
  /// Indices into `intervals` per worker, sorted by end_us ascending.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> by_worker;
  /// Indices into `intervals` per item key, sorted by end_us ascending.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_key;
};

StageGraph BuildStageGraph(const Timeline& timeline) {
  StageGraph graph;
  for (std::size_t w = 0; w < timeline.WorkerCount(); ++w) {
    for (const TimelineInterval& interval : timeline.SamplesFor(w)) {
      if (interval.kind != IntervalKind::kStage) continue;
      graph.intervals.push_back(interval);
    }
  }
  for (std::size_t i = 0; i < graph.intervals.size(); ++i) {
    graph.by_worker[graph.intervals[i].worker].push_back(i);
    graph.by_key[graph.intervals[i].key].push_back(i);
  }
  const auto by_end = [&](std::size_t a, std::size_t b) {
    const TimelineInterval& ia = graph.intervals[a];
    const TimelineInterval& ib = graph.intervals[b];
    return ia.end_us != ib.end_us ? ia.end_us < ib.end_us
                                  : ia.start_us < ib.start_us;
  };
  for (auto& [worker, list] : graph.by_worker) std::sort(list.begin(), list.end(), by_end);
  for (auto& [key, list] : graph.by_key) std::sort(list.begin(), list.end(), by_end);
  return graph;
}

/// The latest-ending interval in `list` (sorted by end) that ends at or
/// before `start_us` and is not `self`. npos when none.
std::size_t LatestBefore(const StageGraph& graph,
                         const std::vector<std::size_t>& list,
                         std::int64_t start_us, std::size_t self) {
  std::size_t best = static_cast<std::size_t>(-1);
  // Binary search for the last end_us <= start_us, then skip self.
  std::size_t lo = 0, hi = list.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (graph.intervals[list[mid]].end_us <= start_us) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (std::size_t i = lo; i-- > 0;) {
    if (list[i] != self) {
      best = list[i];
      break;
    }
  }
  return best;
}

/// Walks the binding-constraint chain back from the globally last-ending
/// stage interval: at each step the predecessor is whichever of the chain
/// edge (same item, previous stage) and the worker edge (same worker,
/// previous interval) finished later — the dependency that actually gated
/// this interval's start.
std::vector<CriticalSegment> CriticalPath(const Timeline& timeline,
                                          const StageGraph& graph) {
  std::vector<CriticalSegment> path;
  if (graph.intervals.empty()) return path;
  std::size_t cur = 0;
  for (std::size_t i = 1; i < graph.intervals.size(); ++i) {
    if (graph.intervals[i].end_us > graph.intervals[cur].end_us) cur = i;
  }
  const std::size_t npos = static_cast<std::size_t>(-1);
  for (std::size_t steps = 0; steps <= graph.intervals.size(); ++steps) {
    const TimelineInterval& interval = graph.intervals[cur];
    CriticalSegment segment;
    segment.key = interval.key;
    segment.stage = std::string(timeline.StageName(interval.label));
    segment.worker = interval.worker;
    segment.start_us = interval.start_us;
    segment.end_us = interval.end_us;
    path.push_back(std::move(segment));

    const std::size_t chain_pred = LatestBefore(
        graph, graph.by_key.at(interval.key), interval.start_us, cur);
    const std::size_t worker_pred = LatestBefore(
        graph, graph.by_worker.at(interval.worker), interval.start_us, cur);
    std::size_t next = npos;
    if (chain_pred != npos && worker_pred != npos) {
      next = graph.intervals[chain_pred].end_us >=
                     graph.intervals[worker_pred].end_us
                 ? chain_pred
                 : worker_pred;
    } else if (chain_pred != npos) {
      next = chain_pred;
    } else if (worker_pred != npos) {
      next = worker_pred;
    }
    if (next == npos) break;
    cur = next;
  }
  std::reverse(path.begin(), path.end());
  return path;
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
    row.queue_starved_us = totals.queue_starved_us;
    row.backpressure_us = totals.backpressure_us;
    row.lock_wait_us = totals.lock_wait_us;
    row.tail_join_us = totals.tail_join_us;
    row.ramp_up_us = totals.ramp_up_us;
    row.stage_count = totals.stage_count;
    row.other_us = wall_us - row.attributed_us();
    out.push_back(row);
  }
  return out;
}

std::vector<SlowItem> SlowestItems(const Timeline& timeline,
                                   const StageGraph& graph,
                                   std::size_t top_k) {
  struct Acc {
    double total_us = 0;
    std::map<std::uint32_t, double> by_label;
  };
  std::unordered_map<std::uint64_t, Acc> acc;
  for (const TimelineInterval& interval : graph.intervals) {
    Acc& a = acc[interval.key];
    const double us = static_cast<double>(interval.duration_us());
    a.total_us += us;
    a.by_label[interval.label] += us;
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
  if (out.size() > top_k) out.resize(top_k);
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

Autopsy Analyze(const Timeline& timeline, const MetricsSnapshot* metrics,
                const AutopsyOptions& options) {
  Autopsy autopsy;
  const std::int64_t start = timeline.RunStartUs();
  const std::int64_t end = timeline.RunEndUs();
  autopsy.wall_us = static_cast<double>(std::max<std::int64_t>(end - start, 0));
  autopsy.workers = timeline.WorkerCount();
  autopsy.intervals_seen = timeline.IntervalsSeen();
  autopsy.intervals_sampled = timeline.SampleCount();
  autopsy.sampled = autopsy.intervals_seen >
                    static_cast<std::uint64_t>(autopsy.intervals_sampled);

  const StageGraph graph = BuildStageGraph(timeline);
  autopsy.critical_path = CriticalPath(timeline, graph);
  for (const CriticalSegment& segment : autopsy.critical_path) {
    autopsy.critical_path_us += static_cast<double>(segment.duration_us());
  }
  autopsy.worker_breakdown = BreakdownWorkers(timeline, autopsy.wall_us);
  autopsy.slowest = SlowestItems(timeline, graph, options.top_k);
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
