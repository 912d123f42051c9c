// Shared output plumbing for the bench harnesses.
//
// Every benchmark emits the same JSON shape: a snprintf'd head of
// benchmark-specific fields, then a trailing "phases" object rendered from
// a metrics snapshot. This helper owns that embedding (and the
// stdout + file + stderr-confirmation dance) so the harnesses cannot
// drift apart again.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/process.h"
#include "report/bench_compare.h"

namespace pinscope::bench {

/// A positive integer from environment variable `name`, else `fallback`
/// (unset, zero, negative or non-numeric values all fall back).
inline int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// A timing's spread across reps, as JSON: {"min_ms", "median_ms", "n"}.
inline std::string SpreadJson(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  const std::size_t n = ms.size();
  const double median =
      n % 2 == 1 ? ms[n / 2] : (ms[n / 2 - 1] + ms[n / 2]) / 2.0;
  char out[128];
  std::snprintf(out, sizeof(out),
                "{\"min_ms\": %.3f, \"median_ms\": %.3f, \"n\": %zu}",
                ms.front(), median, n);
  return out;
}

/// The process-level resource block every BENCH_*.json carries: the peak
/// resident set at write time (JSON null where procfs is unavailable).
inline std::string ProcessBlockJson() {
  const auto peak = obs::ReadPeakRssBytes();
  return "  \"process\": {\"peak_rss_bytes\": " +
         (peak.has_value() ? std::to_string(*peak) : std::string("null")) +
         "},\n";
}

/// Appends the process resource block and the per-phase wall-time breakdown
/// to `head` (which must end just after the last benchmark-specific field's
/// trailing ",\n"), closes the JSON object, prints it to stdout, and writes
/// it to `path`. Returns the process exit code: 0 on success, 1 when the
/// file cannot be written.
///
/// Regression gate: when PINSCOPE_BENCH_CHECK is set (optionally to a max
/// regression percentage, default 10) and a previous document already exists
/// at `path`, the fresh numbers are compared against it with
/// report::CompareBenchJson before anything is overwritten. On regression
/// the baseline file is kept, the fresh document lands at `<path>.new` for
/// inspection, and the harness exits 1 — the same verdict `bench_diff`
/// renders standalone. Bench numbers are machine-dependent, so the gate is
/// opt-in: committed BENCH files gate a rerun on the machine that wrote
/// them, not across hardware.
inline int WriteBenchJsonWithPhases(const char* path, const std::string& head,
                                    const obs::MetricsSnapshot& snapshot) {
  const std::string full =
      head + ProcessBlockJson() +
      "  \"phases\": " + obs::WritePhaseBreakdownJson(snapshot) + "\n}\n";
  std::fputs(full.c_str(), stdout);

  if (const char* check = std::getenv("PINSCOPE_BENCH_CHECK")) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      report::BenchCompareOptions options;
      if (const double pct = std::atof(check); pct > 0) {
        options.max_regress_pct = pct;
      }
      const report::BenchCompareResult verdict =
          report::CompareBenchJson(buffer.str(), full, options);
      std::fputs(report::RenderBenchCompare(verdict).c_str(), stderr);
      if (!verdict.ok()) {
        const std::string side = std::string(path) + ".new";
        if (std::FILE* f = std::fopen(side.c_str(), "w")) {
          std::fputs(full.c_str(), f);
          std::fclose(f);
        }
        std::fprintf(stderr,
                     "[pinscope] PINSCOPE_BENCH_CHECK: regression vs %s — "
                     "baseline kept, fresh numbers at %s\n",
                     path, side.c_str());
        return 1;
      }
    }
  }

  if (std::FILE* f = std::fopen(path, "w")) {
    std::fputs(full.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "[pinscope] wrote %s\n", path);
    return 0;
  }
  std::fprintf(stderr, "[pinscope] could not write %s\n", path);
  return 1;
}

}  // namespace pinscope::bench
