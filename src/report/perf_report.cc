#include "report/perf_report.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "report/json_writer.h"

namespace pinscope::report {

namespace {

std::string Ms(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", us / 1000.0);
  return buf;
}

std::string Pct(double part, double whole) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                whole > 0 ? 100.0 * part / whole : 0.0);
  return buf;
}

obs::ItemLabel Resolve(const PerfReportInput& input, std::uint64_t key) {
  return input.resolver ? input.resolver(key) : obs::FallbackLabel(key);
}

/// Critical-path segments ranked by duration (the "top-K" view); the path
/// itself stays in run order in the autopsy.
std::vector<const obs::CriticalSegment*> RankedSegments(
    const obs::Autopsy& autopsy) {
  std::vector<const obs::CriticalSegment*> ranked;
  ranked.reserve(autopsy.critical_path.size());
  for (const obs::CriticalSegment& segment : autopsy.critical_path) {
    ranked.push_back(&segment);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const obs::CriticalSegment* a, const obs::CriticalSegment* b) {
              const std::int64_t da = a->duration_us();
              const std::int64_t db = b->duration_us();
              return da != db ? da > db : a->start_us < b->start_us;
            });
  return ranked;
}

}  // namespace

std::string WritePerfReportMarkdown(const PerfReportInput& input) {
  std::string out = "# " + input.title + "\n\n";
  if (input.autopsy == nullptr) {
    out += "No autopsy input.\n";
    return out;
  }
  const obs::Autopsy& a = *input.autopsy;

  out += "## Run\n\n";
  out += "- wall clock: " + Ms(a.wall_us) + " ms\n";
  out += "- workers: " + std::to_string(a.workers) + "\n";
  out += "- stage intervals: " + std::to_string(a.intervals_seen) +
         " recorded, " + std::to_string(a.intervals_sampled) + " sampled";
  out += a.sampled ? " (reservoir-sampled: interval sections are a uniform "
                     "sample; per-worker buckets stay exact)\n"
                   : " (exhaustive)\n";
  out += "\n";

  out += "## Critical path\n\n";
  if (a.critical_path_stages == 0) {
    out += "No stage intervals recorded.\n\n";
  } else {
    out += "The worker that finished last ran " + Ms(a.critical_path_us) +
           " ms of stages (" + Pct(a.critical_path_us, a.wall_us) +
           " of wall clock) across " + std::to_string(a.critical_path_stages) +
           " segments; " + std::to_string(a.critical_path.size()) +
           " of them are sampled.\n\n";
    out += "| rank | platform | app | stage | worker | ms | % wall |\n";
    out += "|---:|---|---|---|---:|---:|---:|\n";
    const auto ranked = RankedSegments(a);
    const std::size_t k = std::min(ranked.size(), obs::kAutopsyTopK);
    for (std::size_t i = 0; i < k; ++i) {
      const obs::CriticalSegment& s = *ranked[i];
      const obs::ItemLabel label = Resolve(input, s.key);
      out += "| " + std::to_string(i + 1) + " | " + label.platform + " | " +
             label.app + " | " + s.stage + " | " + std::to_string(s.worker) +
             " | " + Ms(static_cast<double>(s.duration_us())) + " | " +
             Pct(static_cast<double>(s.duration_us()), a.wall_us) + " |\n";
    }
    out += "\n";
  }

  out += "## Worker utilization\n\n";
  if (a.worker_breakdown.empty()) {
    out += "No per-worker intervals recorded.\n\n";
  } else {
    out += "| worker | stages | busy | lock-wait | tail-join | ramp-up | "
           "other | busy % |\n";
    out += "|---:|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const obs::WorkerBreakdown& w : a.worker_breakdown) {
      out += "| " + std::to_string(w.worker) + " | " +
             std::to_string(w.stage_count) + " | " + Ms(w.busy_us) + " | " +
             Ms(w.lock_wait_us) + " | " + Ms(w.tail_join_us) + " | " +
             Ms(w.ramp_up_us) + " | " + Ms(w.other_us) + " | " +
             Pct(w.busy_us, a.wall_us) + " |\n";
    }
    out += "\nAll durations in ms; buckets partition each worker's wall "
           "clock (DESIGN §17 idle taxonomy).\n\n";
  }

  out += "## Slowest apps\n\n";
  if (a.slowest.empty()) {
    out += "No stage intervals recorded.\n\n";
  } else {
    out += "| platform | app | total ms | stages |\n";
    out += "|---|---|---:|---|\n";
    for (const obs::SlowItem& item : a.slowest) {
      const obs::ItemLabel label = Resolve(input, item.key);
      std::string stages;
      for (const auto& [stage, us] : item.stages) {
        if (!stages.empty()) stages += ", ";
        stages += stage + " " + Ms(us);
      }
      out += "| " + label.platform + " | " + label.app + " | " +
             Ms(item.total_us) + " | " + stages + " |\n";
    }
    out += "\n";
  }

  out += "## Lock contention\n\n";
  if (a.locks.empty()) {
    out += "No contended locks recorded.\n";
  } else {
    out += "| lock | contended | total wait ms | p99 wait µs |\n";
    out += "|---|---:|---:|---:|\n";
    for (const obs::LockProfile& lock : a.locks) {
      char p99[32];
      std::snprintf(p99, sizeof(p99), "%.1f", lock.p99_wait_us);
      out += "| " + lock.name + " | " + std::to_string(lock.contended) +
             " | " + Ms(lock.total_wait_us) + " | " + p99 + " |\n";
    }
  }
  return out;
}

std::string WritePerfReportJson(const PerfReportInput& input) {
  JsonWriter w;
  w.BeginObject();
  w.Key("title");
  w.String(input.title);
  if (input.autopsy != nullptr) {
    const obs::Autopsy& a = *input.autopsy;
    w.Key("run");
    w.BeginObject();
    w.Key("wall_us");
    w.Double(a.wall_us, 1);
    w.Key("workers");
    w.Int(static_cast<std::int64_t>(a.workers));
    w.Key("intervals_seen");
    w.Int(static_cast<std::int64_t>(a.intervals_seen));
    w.Key("intervals_sampled");
    w.Int(static_cast<std::int64_t>(a.intervals_sampled));
    w.Key("sampled");
    w.Bool(a.sampled);
    w.EndObject();

    w.Key("critical_path");
    w.BeginObject();
    w.Key("total_us");
    w.Double(a.critical_path_us, 1);
    w.Key("stages");
    w.Int(static_cast<std::int64_t>(a.critical_path_stages));
    w.Key("segments");
    w.BeginArray();
    for (const obs::CriticalSegment& s : a.critical_path) {
      const obs::ItemLabel label = Resolve(input, s.key);
      w.BeginObject();
      w.Key("platform");
      w.String(label.platform);
      w.Key("app");
      w.String(label.app);
      w.Key("stage");
      w.String(s.stage);
      w.Key("worker");
      w.Int(s.worker);
      w.Key("start_us");
      w.Int(s.start_us);
      w.Key("duration_us");
      w.Int(s.duration_us());
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();

    w.Key("workers_breakdown");
    w.BeginArray();
    for (const obs::WorkerBreakdown& b : a.worker_breakdown) {
      w.BeginObject();
      w.Key("worker");
      w.Int(b.worker);
      w.Key("stages");
      w.Int(static_cast<std::int64_t>(b.stage_count));
      w.Key("busy_us");
      w.Double(b.busy_us, 1);
      w.Key("lock_wait_us");
      w.Double(b.lock_wait_us, 1);
      w.Key("tail_join_us");
      w.Double(b.tail_join_us, 1);
      w.Key("ramp_up_us");
      w.Double(b.ramp_up_us, 1);
      w.Key("other_us");
      w.Double(b.other_us, 1);
      w.EndObject();
    }
    w.EndArray();

    w.Key("slowest");
    w.BeginArray();
    for (const obs::SlowItem& item : a.slowest) {
      const obs::ItemLabel label = Resolve(input, item.key);
      w.BeginObject();
      w.Key("platform");
      w.String(label.platform);
      w.Key("app");
      w.String(label.app);
      w.Key("total_us");
      w.Double(item.total_us, 1);
      w.Key("stages");
      w.BeginObject();
      for (const auto& [stage, us] : item.stages) {
        w.Key(stage);
        w.Double(us, 1);
      }
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();

    w.Key("locks");
    w.BeginArray();
    for (const obs::LockProfile& lock : a.locks) {
      w.BeginObject();
      w.Key("name");
      w.String(lock.name);
      w.Key("contended");
      w.Int(static_cast<std::int64_t>(lock.contended));
      w.Key("total_wait_us");
      w.Double(lock.total_wait_us, 1);
      w.Key("p99_wait_us");
      w.Double(lock.p99_wait_us, 1);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.TakeString();
}

std::string PerfReportJsonPathFor(std::string_view markdown_path) {
  std::string out(markdown_path);
  if (out.size() >= 3 && out.compare(out.size() - 3, 3, ".md") == 0) {
    out.replace(out.size() - 3, 3, ".json");
  } else {
    out += ".json";
  }
  return out;
}

}  // namespace pinscope::report
