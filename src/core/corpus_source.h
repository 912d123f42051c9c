// Pull-based corpus iteration for streaming studies (DESIGN.md §15).
//
// The materialized path holds every generated App in an Ecosystem for the
// whole run — fine at the paper's scale (~5k apps), hopeless at store scale.
// A CorpusSource inverts that: the streaming driver asks for one app at a
// time by (platform, universe index), analyzes it through the full stage
// chain, and frees it. Peak hydrated-app memory is then bounded by the
// scheduler's in-flight window (one app per worker), not corpus size.
//
// Hydrate must be a pure function of (platform, index): called twice it
// returns equal apps, and calling it for index j must not require having
// hydrated index i first. That is what makes work-stealing schedules, warm
// caches, and incremental re-analysis all export byte-identical results.
#pragma once

#include <cstddef>
#include <vector>

#include "appmodel/app.h"
#include "appmodel/platform.h"
#include "appmodel/server_world.h"
#include "store/generator.h"
#include "x509/ct_log.h"

namespace pinscope::core {

/// Abstract pull-iterator over an app corpus.
class CorpusSource {
 public:
  virtual ~CorpusSource() = default;

  /// The server-side world apps are exercised against (shared, read-only).
  [[nodiscard]] virtual const appmodel::ServerWorld& world() const = 0;

  /// The CT log the static stage consults (shared, read-only).
  [[nodiscard]] virtual const x509::CtLog& ct_log() const = 0;

  /// Universe indices to analyze for one platform, ascending and unique.
  [[nodiscard]] virtual std::vector<std::size_t> Indices(
      appmodel::Platform p) const = 0;

  /// Materializes one app. Pure: same (p, index) ⇒ equal App; thread-safe
  /// for concurrent calls with distinct or equal arguments.
  [[nodiscard]] virtual appmodel::App Hydrate(appmodel::Platform p,
                                              std::size_t index) const = 0;

  /// True if this iOS app belongs to the Common dataset — those apps get the
  /// longer §4.2.2 settle window (StudyOptions::common_ios_settle_seconds).
  [[nodiscard]] virtual bool NeedsCommonIosSettle(std::size_t index) const = 0;

  /// The app at (p, index) if this source already holds it in memory for
  /// the whole run, else nullptr. The study chain borrows a resident app
  /// instead of paying Hydrate's copy; the two must be equal.
  [[nodiscard]] virtual const appmodel::App* Resident(
      appmodel::Platform /*p*/, std::size_t /*index*/) const {
    return nullptr;
  }
};

/// CorpusSource over a materialized Ecosystem: every app is resident, so the
/// study chain borrows it (Hydrate still copies, for callers that want an
/// owned App). This is the source Study runs over, and the adapter the CLI
/// uses for generator-backed corpora.
class EcosystemCorpusSource final : public CorpusSource {
 public:
  /// `eco` must outlive the source.
  explicit EcosystemCorpusSource(const store::Ecosystem& eco);

  [[nodiscard]] const appmodel::ServerWorld& world() const override;
  [[nodiscard]] const x509::CtLog& ct_log() const override;
  [[nodiscard]] std::vector<std::size_t> Indices(
      appmodel::Platform p) const override;
  [[nodiscard]] appmodel::App Hydrate(appmodel::Platform p,
                                      std::size_t index) const override;
  [[nodiscard]] bool NeedsCommonIosSettle(std::size_t index) const override;
  [[nodiscard]] const appmodel::App* Resident(appmodel::Platform p,
                                              std::size_t index) const override;

 private:
  const store::Ecosystem& eco_;
  std::vector<std::size_t> common_ios_;  ///< Sorted Common-iOS indices.
};

}  // namespace pinscope::core
