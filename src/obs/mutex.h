// Mutex-contention probe (ROADMAP item 3d).
//
// TrackedMutex wraps std::mutex and surfaces contention into the unified
// metrics layer as a `lock.<name>.contended` counter (lock() calls that
// found the mutex held) and a `lock.<name>.wait_us` histogram (how long
// those calls waited). The uncontended path is one try_lock — no clock
// read, no metric write — so tracking costs nothing where it matters.
//
// Determinism contract: identical to the rest of obs — the probe never
// feeds scheduling decisions or exported bytes; a TrackedMutex without a
// registry behaves exactly like std::mutex (DESIGN.md §11).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace pinscope::obs {

/// Routes one contended-lock wait to the calling thread's ambient timeline
/// lane, if Timeline::OnEvent made it a worker (no-op otherwise). Defined in
/// obs/timeline.cc; declared here so the hot mutex header need not pull in
/// the timeline types.
void RecordAmbientLockWait(std::string_view lock_name, std::int64_t wait_us);

/// A Lockable std::mutex wrapper with contention metrics. Works with
/// std::lock_guard / std::unique_lock / std::condition_variable_any.
/// Default-constructed (or null-registry) instances record nothing.
class TrackedMutex {
 public:
  TrackedMutex() = default;
  TrackedMutex(MetricsRegistry* metrics, std::string_view name) {
    Attach(metrics, name);
  }
  TrackedMutex(const TrackedMutex&) = delete;
  TrackedMutex& operator=(const TrackedMutex&) = delete;

  /// Binds the probe to `lock.<name>.*` metrics. Null-safe; must happen
  /// before the mutex is shared between threads (handles are written
  /// without synchronization). The name is retained either way so the
  /// timeline's per-worker lock-wait attribution can label the wait even
  /// when no registry is attached.
  void Attach(MetricsRegistry* metrics, std::string_view name) {
    name_ = std::string(name);
    const std::string prefix = "lock." + name_;
    contended_ = CounterOrNull(metrics, prefix + ".contended");
    wait_us_ = HistogramOrNull(metrics, prefix + ".wait_us");
  }

  void lock() {
    if (mu_.try_lock()) return;  // uncontended: no clock read
    contended_.Increment();
    const auto start = std::chrono::steady_clock::now();
    mu_.lock();
    const auto waited = std::chrono::steady_clock::now() - start;
    const double waited_us =
        std::chrono::duration<double, std::micro>(waited).count();
    wait_us_.Record(waited_us);
    RecordAmbientLockWait(name_.empty() ? std::string_view("mutex") : name_,
                          static_cast<std::int64_t>(waited_us));
  }

  [[nodiscard]] bool try_lock() { return mu_.try_lock(); }

  void unlock() { mu_.unlock(); }

  /// The name Attach bound (empty until attached).
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::mutex mu_;
  std::string name_;
  Counter contended_;
  Histogram wait_us_;
};

}  // namespace pinscope::obs
