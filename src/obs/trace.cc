#include "obs/trace.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "obs/metrics.h"

namespace pinscope::obs {

TraceSink::TraceSink() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t TraceSink::UsAt(std::chrono::steady_clock::time_point time) const {
  return std::chrono::duration_cast<std::chrono::microseconds>(time - origin_)
      .count();
}

std::uint32_t TraceSink::CurrentTid() {
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(tid_mu_);
  const auto it = tids_.find(self);
  if (it != tids_.end()) return it->second;
  const auto next = static_cast<std::uint32_t>(tids_.size());
  tids_.emplace(self, next);
  return next;
}

void TraceSink::Add(TraceEvent event) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  events_.Add(std::move(event));
}

void TraceSink::AddComplete(TraceEvent event,
                            std::chrono::steady_clock::time_point begin,
                            std::chrono::steady_clock::duration elapsed) {
  event.tid = CurrentTid();
  event.ts_us = UsAt(begin);
  // A difference of truncated stamps, so nested intervals stay nested.
  event.dur_us = UsAt(begin + elapsed) - event.ts_us;
  Add(std::move(event));
}

std::size_t TraceSink::EventCount() const { return events_.Count(); }

std::string TraceSink::ToJson() const {
  std::vector<TraceEvent> events = events_.Collect();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::tie(a.ts_us, a.tid, a.name) <
                     std::tie(b.ts_us, b.tid, b.name);
            });

  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"";
    out += JsonEscape(e.name);
    out += "\", \"cat\": \"";
    out += JsonEscape(e.category);
    out += "\", \"ph\": \"X\", \"pid\": 1, \"tid\": ";
    out += std::to_string(e.tid);
    out += ", \"ts\": ";
    out += std::to_string(e.ts_us);
    out += ", \"dur\": ";
    out += std::to_string(e.dur_us);
    if (!e.args.empty()) {
      out += ", \"args\": {";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += '"';
        out += JsonEscape(e.args[i].first);
        out += "\": \"";
        out += JsonEscape(e.args[i].second);
        out += '"';
      }
      out += "}";
    }
    out += "}";
  }
  out += first ? "],\n" : "\n],\n";
  out += "\"displayTimeUnit\": \"ms\"}\n";
  return out;
}

Span::Span(TraceSink* sink, std::string name, std::string category,
           std::vector<std::pair<std::string, std::string>> args)
    : sink_(sink),
      event_{.name = std::move(name),
             .category = std::move(category),
             .args = std::move(args)},
      start_(sink != nullptr ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{}) {}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    sink_ = std::exchange(other.sink_, nullptr);
    event_ = std::move(other.event_);
    start_ = other.start_;
  }
  return *this;
}

void Span::End() {
  if (sink_ == nullptr) return;
  std::exchange(sink_, nullptr)
      ->AddComplete(std::move(event_), start_,
                    std::chrono::steady_clock::now() - start_);
}

}  // namespace pinscope::obs
