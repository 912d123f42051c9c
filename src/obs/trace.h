// Chrome trace_event tracing for the study pipeline (DESIGN.md §11).
//
// A TraceSink collects complete-duration events ("ph":"X") that render
// directly in chrome://tracing / Perfetto: one study-level span, one
// `sched.worker` span per scheduler worker and one event per stage
// execution (both derived from the scheduler's run events by the study
// chain, core/stream_study.cc), plus the spans layers open inside a stage
// (static.scan, the dynamic.* pipeline phases). Span is the RAII recorder;
// a default-constructed Span is a no-op, so call sites stay unconditional
// when tracing is off.
//
// Thread safety: events land in an obs::ThreadBuffer (one of 16 per-thread
// vectors, each under its own mutex) and are merged, sorted by timestamp,
// only at serialization time. Timestamps are wall-clock microseconds since
// sink construction — schedule-dependent by nature, which is why trace
// output lives outside every exported study byte (the determinism contract
// in obs/metrics.h covers this sink too).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/thread_buffer.h"

namespace pinscope::obs {

/// One complete-duration trace event.
struct TraceEvent {
  std::string name;
  std::string category;
  std::uint32_t tid = 0;      ///< Sink-assigned stable per-thread id.
  std::int64_t ts_us = 0;     ///< Start, µs since sink construction.
  std::int64_t dur_us = 0;
  /// Rendered into the event's "args" object (string values only).
  std::vector<std::pair<std::string, std::string>> args;
};

/// Thread-safe collector of trace events for one run.
class TraceSink {
 public:
  TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Stable small id for the calling thread (assigned first-seen).
  [[nodiscard]] std::uint32_t CurrentTid();

  /// Deposits one event (tid already set by the caller, normally via Span).
  void Add(TraceEvent event);

  /// Deposits `event` as having run on the calling thread from `begin` for
  /// `elapsed` (a Span, or an interval timed by the scheduler's run events).
  void AddComplete(TraceEvent event, std::chrono::steady_clock::time_point begin,
                   std::chrono::steady_clock::duration elapsed);

  /// Turns span collection off (or back on). Spans built against a disabled
  /// sink still time themselves but Add() drops the event, so memory stays
  /// constant; SpanFor and the study chain skip a disabled sink outright.
  /// The sink retains ~a few hundred bytes per recorded span, linear in
  /// corpus size, so runs that write no trace (and firehose streaming runs,
  /// DESIGN.md §15) turn it off.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Events recorded so far (approximate while spans are open).
  [[nodiscard]] std::size_t EventCount() const;

  /// Serializes everything as Chrome trace JSON ({"traceEvents": [...]}),
  /// events sorted by (ts, tid, name). Load the file in chrome://tracing or
  /// https://ui.perfetto.dev.
  [[nodiscard]] std::string ToJson() const;

 private:
  /// `time` in microseconds since construction.
  [[nodiscard]] std::int64_t UsAt(std::chrono::steady_clock::time_point time) const;

  std::chrono::steady_clock::time_point origin_;
  std::atomic<bool> enabled_{true};
  ThreadBuffer<TraceEvent> events_;

  mutable std::mutex tid_mu_;
  std::unordered_map<std::thread::id, std::uint32_t> tids_;
};

/// RAII span: records one complete event covering its lifetime. Movable
/// (the moved-from span records nothing); End() closes early.
class Span {
 public:
  Span() = default;
  Span(TraceSink* sink, std::string name, std::string category,
       std::vector<std::pair<std::string, std::string>> args = {});

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;

  ~Span() { End(); }

  /// Records the event now instead of at destruction (idempotent).
  void End();

 private:
  TraceSink* sink_ = nullptr;
  TraceEvent event_;  ///< Name, category and args; timed by End().
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pinscope::obs
