// The study observer: one MetricsRegistry + one TraceSink, threaded through
// the pipeline as a single nullable pointer (DESIGN.md §11).
//
// Every layer that records observability takes an `Observer*` (or, at the
// leaves, a bare `MetricsRegistry*`) defaulting to nullptr; the null-safe
// helpers below collapse the "is observability on?" branch into handle
// construction, so instrumented code reads the same either way.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pinscope::obs {

/// Owns the metrics registry and trace sink for one run, and optionally
/// carries the decision journal (owned by the caller — its min severity is
/// chosen at construction, e.g. from --log-level). Internally synchronized
/// throughout; share one instance across all study workers.
class Observer {
 public:
  Observer() = default;
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] TraceSink& trace() { return trace_; }
  [[nodiscard]] const TraceSink& trace() const { return trace_; }

  /// Attaches (or detaches, with nullptr) the decision journal. Attaching a
  /// journal never changes exported study bytes (DESIGN.md §12).
  void set_log(EventLog* log) { log_ = log; }
  [[nodiscard]] EventLog* log() const { return log_; }

 private:
  MetricsRegistry metrics_;
  TraceSink trace_;
  EventLog* log_ = nullptr;
};

/// Null-safe accessors: leaf layers (tls, x509, net, device) take a bare
/// MetricsRegistry* — these bridge from the optional observer.
[[nodiscard]] inline MetricsRegistry* MetricsOf(Observer* observer) {
  return observer == nullptr ? nullptr : &observer->metrics();
}
[[nodiscard]] inline EventLog* LogOf(Observer* observer) {
  return observer == nullptr ? nullptr : observer->log();
}

/// Journal scope for one (platform, app, phase) — the no-op scope when the
/// observer (or its journal) is absent. Use one scope per phase per thread.
[[nodiscard]] inline EventScope ScopeFor(Observer* observer,
                                         std::string platform,
                                         std::string app_id,
                                         std::string phase) {
  return EventScope(LogOf(observer), std::move(platform), std::move(app_id),
                    std::move(phase));
}
[[nodiscard]] inline Span SpanFor(
    Observer* observer, std::string name, std::string category,
    std::vector<std::pair<std::string, std::string>> args = {}) {
  return observer == nullptr || !observer->trace().enabled()
             ? Span()
             : Span(&observer->trace(), std::move(name), std::move(category),
                    std::move(args));
}

}  // namespace pinscope::obs
