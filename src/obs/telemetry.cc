#include "obs/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <utility>

#include "obs/process.h"

namespace pinscope::obs {

namespace {

/// Rows in the straggler table the watchdog renders when a run stalls.
constexpr std::size_t kStragglerRows = 5;

bool HasSuffix(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

std::optional<ProgressMode> ParseProgressMode(std::string_view name) {
  if (name == "off") return ProgressMode::kOff;
  if (name == "plain") return ProgressMode::kPlain;
  if (name == "tty") return ProgressMode::kTty;
  return std::nullopt;
}

Telemetry::Telemetry(MetricsRegistry* metrics, TelemetryOptions options)
    : metrics_(metrics),
      options_(std::move(options)),
      start_(Clock::now()),
      events_(Severity::kInfo),
      event_scope_(&events_, "", "", "telemetry") {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
}

Telemetry::~Telemetry() { Stop(); }

void Telemetry::Start() {
  if (started_) return;
  started_ = true;
  stopping_ = false;
  start_ = Clock::now();
  if (!options_.heartbeat_path.empty()) {
    heartbeat_ = std::fopen(options_.heartbeat_path.c_str(), "wb");
  }
  if (options_.interval_ms > 0) {
    sampler_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(stop_mu_);
      for (;;) {
        // wait_for returns true only when Stop() raised `stopping_` — the
        // final frame is then taken by Stop() itself, after the join.
        if (stop_cv_.wait_for(lock,
                              std::chrono::milliseconds(options_.interval_ms),
                              [this] { return stopping_; })) {
          return;
        }
        lock.unlock();
        Tick();
        lock.lock();
      }
    });
  }
}

void Telemetry::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  Tick();  // final frame: progress reaches 100%, surfaces get closing state
  if (tty_line_open_) {
    std::fputc('\n', progress_out());
    std::fflush(progress_out());
    tty_line_open_ = false;
  }
  if (heartbeat_ != nullptr) {
    std::fclose(heartbeat_);
    heartbeat_ = nullptr;
  }
  started_ = false;
}

void Telemetry::AddTotal(std::size_t n) {
  total_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
}

void Telemetry::OnStageStart(std::uint64_t key, std::string_view platform,
                             std::string_view app_id, std::string_view stage) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  InflightCell& cell = inflight_[key];
  cell.platform.assign(platform);
  cell.app_id.assign(app_id);
  cell.stage.assign(stage);
  cell.since = Clock::now();
}

void Telemetry::OnStageEnd(std::uint64_t key, std::string_view stage) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  ++stage_done_[std::string(stage)];
  const auto it = inflight_.find(key);
  // Only clear if the chain is still in *this* stage — a later stage may
  // already have re-registered the key on another worker.
  if (it != inflight_.end() && it->second.stage == stage) inflight_.erase(it);
}

void Telemetry::OnItemDone(std::uint64_t key) {
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(key);
  }
  done_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<StragglerRow> Telemetry::Stragglers(std::size_t k) const {
  const Clock::time_point now = Clock::now();
  std::vector<StragglerRow> rows;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    rows.reserve(inflight_.size());
    for (const auto& [key, cell] : inflight_) {
      (void)key;
      StragglerRow row;
      row.platform = cell.platform;
      row.app_id = cell.app_id;
      row.stage = cell.stage;
      row.elapsed_ms =
          std::chrono::duration<double, std::milli>(now - cell.since).count();
      rows.push_back(std::move(row));
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const StragglerRow& a, const StragglerRow& b) {
                     return a.elapsed_ms > b.elapsed_ms;
                   });
  if (rows.size() > k) rows.resize(k);
  return rows;
}

TelemetryFrame Telemetry::CaptureFrame(const MetricsSnapshot* snapshot) {
  TelemetryFrame frame;
  frame.tick = ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
  frame.elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
  frame.done = done_.load(std::memory_order_relaxed);
  frame.done_delta = frame.done - last_done_;
  frame.total = total_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    frame.inflight = inflight_.size();
    frame.stage_done = stage_done_;
  }
  if (snapshot != nullptr) {
    auto gauge = [&](const char* name) -> std::uint64_t {
      const auto it = snapshot->gauges.find(name);
      return it == snapshot->gauges.end() ? 0 : it->second;
    };
    frame.rss_bytes = gauge("process.rss_bytes");
    frame.peak_rss_bytes = gauge("process.peak_rss_bytes");
    for (const auto& [name, value] : snapshot->counters) {
      const auto it = last_counters_.find(name);
      const std::uint64_t prev = it == last_counters_.end() ? 0 : it->second;
      if (value > prev) frame.counter_deltas.emplace(name, value - prev);
    }
    last_counters_ = snapshot->counters;
  } else {
    frame.rss_bytes = ReadCurrentRssBytes().value_or(0);
    frame.peak_rss_bytes = ReadPeakRssBytes().value_or(0);
  }
  return frame;
}

void Telemetry::RunWatchdog(const TelemetryFrame& frame) {
  if (frame.done_delta > 0 || frame.inflight == 0) {
    if (!watchdog_armed_ && frame.done_delta > 0) {
      event_scope_.Emit(Severity::kInfo, "telemetry.resume",
                        {{"after_stalled_ticks", stalled_ticks_},
                         {"done", frame.done}});
    }
    stalled_ticks_ = 0;
    watchdog_armed_ = true;
    return;
  }
  ++stalled_ticks_;
  if (!watchdog_armed_ ||
      stalled_ticks_ < static_cast<std::uint64_t>(
                           std::max(options_.stall_ticks, 1))) {
    return;
  }
  watchdog_armed_ = false;  // re-arms only once progress resumes
  watchdog_fires_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<StragglerRow> rows = Stragglers(kStragglerRows);
  std::vector<LogField> fields;
  fields.push_back({"stalled_ticks", LogValue(stalled_ticks_)});
  fields.push_back({"inflight", LogValue(frame.inflight)});
  fields.push_back({"done", LogValue(frame.done)});
  fields.push_back({"total", LogValue(frame.total)});
  if (!rows.empty()) {
    fields.push_back({"straggler_platform", LogValue(rows.front().platform)});
    fields.push_back({"straggler_app", LogValue(rows.front().app_id)});
    fields.push_back({"straggler_stage", LogValue(rows.front().stage)});
    fields.push_back({"straggler_elapsed_ms",
                      LogValue(rows.front().elapsed_ms)});
  }
  event_scope_.Emit(Severity::kWarn, "telemetry.stall", std::move(fields));
  RenderStragglerTable(rows);
}

void Telemetry::WriteHeartbeat(const TelemetryFrame& frame,
                               const MetricsSnapshot* snapshot) {
  if (heartbeat_ == nullptr) return;
  std::string line = "{\"tick\": " + std::to_string(frame.tick) +
                     ", \"elapsed_ms\": " + JsonNum(frame.elapsed_ms) +
                     ", \"done\": " + std::to_string(frame.done) +
                     ", \"total\": " + std::to_string(frame.total) +
                     ", \"delta\": " + std::to_string(frame.done_delta) +
                     ", \"rss_bytes\": " + std::to_string(frame.rss_bytes) +
                     ", \"peak_rss_bytes\": " +
                     std::to_string(frame.peak_rss_bytes) +
                     ", \"inflight\": " + std::to_string(frame.inflight) +
                     ", \"stalled_ticks\": " +
                     std::to_string(frame.stalled_ticks);
  line += ", \"stages\": {";
  bool first = true;
  for (const auto& [stage, count] : frame.stage_done) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + stage + "\": " + std::to_string(count);
  }
  line += "}";
  if (snapshot != nullptr) {
    line += ", \"phases\": {";
    first = true;
    for (const auto& [name, h] : snapshot->histograms) {
      if (name.rfind("phase.", 0) != 0 || h.count == 0) continue;
      if (!first) line += ", ";
      first = false;
      line += "\"" + name + "\": {\"count\": " + std::to_string(h.count) +
              ", \"p50_us\": " + JsonNum(h.Quantile(0.50)) +
              ", \"p90_us\": " + JsonNum(h.Quantile(0.90)) +
              ", \"p99_us\": " + JsonNum(h.Quantile(0.99)) + "}";
    }
    line += "}";
  }
  line += "}\n";
  std::fputs(line.c_str(), heartbeat_);
  std::fflush(heartbeat_);
}

void Telemetry::WriteLiveMetrics(const MetricsSnapshot& snapshot) {
  if (options_.metrics_path.empty()) return;
  const std::string body = HasSuffix(options_.metrics_path, ".prom")
                               ? WriteMetricsOpenMetrics(snapshot)
                               : WriteMetricsJson(snapshot);
  // tmp + rename: a scraper (or the future daemon's file server) reading
  // the path never sees a torn snapshot.
  const std::string tmp = options_.metrics_path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return;
  std::fputs(body.c_str(), f);
  std::fclose(f);
  std::rename(tmp.c_str(), options_.metrics_path.c_str());
}

void Telemetry::RenderProgress(const TelemetryFrame& frame) {
  if (options_.progress == ProgressMode::kOff) return;
  const double rate =
      frame.elapsed_ms > 0.0 ? frame.done * 1000.0 / frame.elapsed_ms : 0.0;
  char head[256];
  if (frame.total > 0) {
    std::snprintf(head, sizeof(head),
                  "[pinscope] t+%.1fs %" PRIu64 "/%" PRIu64
                  " apps (%.1f%%) %.0f/s",
                  frame.elapsed_ms / 1000.0, frame.done, frame.total,
                  100.0 * static_cast<double>(frame.done) /
                      static_cast<double>(frame.total),
                  rate);
  } else {
    std::snprintf(head, sizeof(head),
                  "[pinscope] t+%.1fs %" PRIu64 " apps %.0f/s",
                  frame.elapsed_ms / 1000.0, frame.done, rate);
  }
  std::string line = head;
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                " | rss %.1f MiB | inflight %" PRIu64,
                frame.rss_bytes / (1024.0 * 1024.0), frame.inflight);
  line += tail;
  for (const auto& [stage, count] : frame.stage_done) {
    line += " | " + stage + " " + std::to_string(count);
  }
  if (frame.stalled_ticks > 0) {
    line += " | stalled x" + std::to_string(frame.stalled_ticks);
  }
  std::FILE* out = progress_out();
  if (options_.progress == ProgressMode::kTty) {
    std::fprintf(out, "\r\x1b[K%s", line.c_str());
    tty_line_open_ = true;
  } else {
    std::fprintf(out, "%s\n", line.c_str());
  }
  std::fflush(out);
}

void Telemetry::RenderStragglerTable(const std::vector<StragglerRow>& rows) {
  std::FILE* out = progress_out();
  if (tty_line_open_) {
    std::fputc('\n', out);
    tty_line_open_ = false;
  }
  std::fprintf(out,
               "[pinscope] watchdog: no chain completed for %" PRIu64
               " ticks; %zu chains in flight\n",
               stalled_ticks_, rows.size());
  for (const StragglerRow& row : rows) {
    std::fprintf(out, "[pinscope]   straggler %-8s %-32s %-10s %8.0f ms\n",
                 row.platform.c_str(), row.app_id.c_str(), row.stage.c_str(),
                 row.elapsed_ms);
  }
  std::fflush(out);
}

void Telemetry::Tick() {
  // Re-publish the process gauges first so this frame (and the live
  // snapshot) carry current values instead of the previous tick's.
  PublishRss(metrics_);
  std::optional<MetricsSnapshot> snapshot;
  if (metrics_ != nullptr) snapshot = metrics_->Snapshot();
  const MetricsSnapshot* snap = snapshot ? &*snapshot : nullptr;

  TelemetryFrame frame = CaptureFrame(snap);
  RunWatchdog(frame);
  frame.stalled_ticks = stalled_ticks_;
  last_done_ = frame.done;

  {
    std::lock_guard<std::mutex> lock(frames_mu_);
    frames_.push_back(frame);
    while (frames_.size() > options_.ring_capacity) frames_.pop_front();
  }

  WriteHeartbeat(frame, snap);
  if (snap != nullptr) WriteLiveMetrics(*snap);
  RenderProgress(frame);
}

std::vector<TelemetryFrame> Telemetry::Frames() const {
  std::lock_guard<std::mutex> lock(frames_mu_);
  return {frames_.begin(), frames_.end()};
}

std::string Telemetry::TimelineJson() const {
  const std::vector<TelemetryFrame> frames = Frames();
  std::string out = "[";
  bool first = true;
  for (const TelemetryFrame& f : frames) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"tick\": " + std::to_string(f.tick) +
           ", \"t_ms\": " + JsonNum(f.elapsed_ms) +
           ", \"done\": " + std::to_string(f.done) +
           ", \"rss_bytes\": " + std::to_string(f.rss_bytes) +
           ", \"inflight\": " + std::to_string(f.inflight) + "}";
  }
  out += first ? "]" : "\n  ]";
  return out;
}

}  // namespace pinscope::obs
