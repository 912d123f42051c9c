#include "core/stream_export.h"

#include <utility>

#include "core/export.h"
#include "report/csv_writer.h"

namespace pinscope::core {

namespace {

int PlatformRank(appmodel::Platform p) {
  return p == appmodel::Platform::kAndroid ? 0 : 1;
}

}  // namespace

StreamExporter::StreamExporter(Options options) : options_(options) {}

void StreamExporter::OnResult(appmodel::Platform platform, const AppResult& r) {
  if (!options_.retain_rows) {
    std::lock_guard<std::mutex> lock(mu_);
    ++results_;
    return;
  }
  Row row;
  row.json_line = AppResultJsonLine(r, platform);
  row.csv_rows = AppResultCsvRows(r, platform);
  row.verdict = AppResultVerdict(r, platform);

  std::lock_guard<std::mutex> lock(mu_);
  ++results_;
  rows_.insert_or_assign(RowKey{PlatformRank(platform), r.universe_index},
                         std::move(row));
}

void StreamExporter::MergeBase(const StreamExporter& prev) {
  std::scoped_lock lock(mu_, prev.mu_);
  for (const auto& [key, row] : prev.rows_) {
    // insert (not insert_or_assign): rows this run produced — the delta —
    // take precedence over the previous run's.
    rows_.emplace(key, row);
  }
}

std::string StreamExporter::FinishJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [key, row] : rows_) out += row.json_line;
  return out;
}

std::string StreamExporter::FinishCsv() const {
  std::lock_guard<std::mutex> lock(mu_);
  report::CsvWriter csv;
  csv.SetHeader(StudyCsvHeader());
  for (const auto& [key, row] : rows_) {
    for (const auto& fields : row.csv_rows) csv.AddRow(fields);
  }
  return csv.TakeString();
}

std::vector<report::AppVerdict> StreamExporter::FinishVerdicts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<report::AppVerdict> out;
  out.reserve(rows_.size());
  for (const auto& [key, row] : rows_) out.push_back(row.verdict);
  return out;
}

std::size_t StreamExporter::results() const {
  std::lock_guard<std::mutex> lock(mu_);
  return results_;
}

}  // namespace pinscope::core
