// Incremental exporter for streaming studies (DESIGN.md §15).
//
// The batch path materializes every AppResult and then serializes in a fixed
// (platform, universe index) order; the streaming path analyzes apps in
// completion order and frees each payload as soon as its verdict lands. The
// bridge between them is this exporter: each completed app is reduced to its
// serialized rows (JSON line, CSV field rows, verdict) the moment it
// finishes, and the final exports replay those rows in the same logical-key
// order the batch path uses — so streamed exports are byte-identical to
// materialized ones by construction, independent of thread count and
// completion order.
//
// Two retention modes:
//  - retain_rows = true (default): rows are kept for the Finish* replay and
//    for incremental merges. Per-app memory is a few hundred bytes of
//    serialized text — ~10^3x smaller than a hydrated App.
//  - retain_rows = false: nothing is kept but the result count. This is the
//    truly O(in-flight) mode the 100k-app memory benchmark runs in.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "appmodel/app.h"
#include "core/study.h"
#include "report/run_report.h"

namespace pinscope::core {

class StreamExporter {
 public:
  struct Options {
    /// Keep per-app rows for the ordered Finish* replay (and incremental
    /// merging). Off = bounded-memory firehose mode.
    bool retain_rows = true;
  };

  StreamExporter() = default;
  explicit StreamExporter(Options options);

  StreamExporter(const StreamExporter&) = delete;
  StreamExporter& operator=(const StreamExporter&) = delete;

  /// Records one finished app. Thread-safe; called from verdict-stage
  /// workers. Copies what it needs from `r` — the caller frees the payload
  /// (App + reports) immediately after.
  void OnResult(appmodel::Platform platform, const AppResult& r);

  /// Seeds this exporter with another's retained rows — the incremental
  /// merge: `prev` is the previous full run, `this` holds the re-analyzed
  /// delta, and rows already present here (this run) win. Call before the
  /// Finish* replays.
  void MergeBase(const StreamExporter& prev);

  /// Ordered replays — identical bytes to ExportStudyJson / ExportStudyCsv /
  /// CollectAppVerdicts over a materialized study with the same results.
  /// Require retain_rows; call after every OnResult has landed.
  [[nodiscard]] std::string FinishJson() const;
  [[nodiscard]] std::string FinishCsv() const;
  [[nodiscard]] std::vector<report::AppVerdict> FinishVerdicts() const;

  /// Results recorded so far (all modes).
  [[nodiscard]] std::size_t results() const;

 private:
  /// The batch export order: Android before iOS, ascending universe index.
  struct RowKey {
    int platform_rank = 0;  ///< 0 = Android, 1 = iOS.
    std::size_t index = 0;
    bool operator<(const RowKey& o) const {
      return platform_rank != o.platform_rank ? platform_rank < o.platform_rank
                                              : index < o.index;
    }
  };

  struct Row {
    std::string json_line;
    std::vector<std::vector<std::string>> csv_rows;
    report::AppVerdict verdict;
  };

  Options options_;
  mutable std::mutex mu_;
  std::map<RowKey, Row> rows_;
  std::size_t results_ = 0;
};

}  // namespace pinscope::core
