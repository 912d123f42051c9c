// The per-app dynamic pipeline (Figure 1, right half).
//
// Installs and runs an app twice — once untouched, once behind the MITM
// proxy — applies the differential detector, then (when pinning is found)
// re-runs with TLS-library hooks to read pinned traffic, and finally searches
// everything decrypted for PII.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "appmodel/app.h"
#include "appmodel/pii.h"
#include "appmodel/server_world.h"
#include "dynamicanalysis/detector.h"
#include "obs/obs.h"
#include "x509/certificate.h"

namespace pinscope::dynamicanalysis {

class SimFixtures;

/// Options for the per-app pipeline.
struct DynamicOptions {
  int capture_seconds = 30;
  /// Settle delay before launch; the Common-iOS re-run uses 120 (§4.5).
  int settle_seconds = 0;
  /// Run the instrumented circumvention pass when pinning is detected.
  bool circumvent = true;
  /// Seed for all stochastic pipeline behavior. Each app derives its own
  /// stream as seed ^ StableHash64(app_id), with labeled forks per phase
  /// (DESIGN.md §8), so runs are independent across apps and phases.
  std::uint64_t seed = 0x9e3779b9;
  /// Ignored: the baseline and MITM captures always run back to back on the
  /// calling thread, since the study keeps every core busy with whole app
  /// chains. Kept only so existing callers that assign it still compile;
  /// reports are identical whatever it holds.
  bool parallel_phases = false;
  /// Study-scoped shared fixtures (proxy + root stores + caches; see
  /// dynamicanalysis/sim_fixtures.h). Null ⇒ the pipeline builds private
  /// per-app equivalents. Reports are byte-identical either way, provided
  /// the fixtures were constructed with this options struct's `seed`.
  const SimFixtures* fixtures = nullptr;
  /// Optional observability sink: phase spans (dynamic.baseline / .mitm /
  /// .frida), phase-duration histograms, and pipeline counters. Purely
  /// observational — reports are byte-identical with or without it
  /// (DESIGN.md §11).
  obs::Observer* observer = nullptr;
};

/// Everything the pipeline concluded about one destination of one app.
struct DestinationReport {
  std::string hostname;
  bool pinned = false;          ///< Differential verdict.
  bool used_baseline = false;   ///< Carried data in the baseline run.
  bool weak_cipher = false;     ///< Any flow advertised a §5.4 bad suite.
  bool circumvented = false;    ///< Pinned, and instrumentation decrypted it.
  std::vector<appmodel::PiiType> pii;  ///< PII seen in decrypted traffic.
  /// Chain served by the genuine destination (fetched out of band, as the
  /// paper does with OpenSSL).
  x509::CertificateChain served_chain;
};

/// The pipeline's complete result for one app.
struct DynamicReport {
  std::string app_id;
  appmodel::Platform platform = appmodel::Platform::kAndroid;
  std::vector<DestinationReport> destinations;

  /// The paper's per-app verdict: pins iff some destination is pinned.
  [[nodiscard]] bool AppPins() const;

  /// Hostnames of pinned destinations.
  [[nodiscard]] std::vector<std::string> PinnedDestinations() const;

  /// Hostnames of contacted, definitively-unpinned destinations.
  [[nodiscard]] std::vector<std::string> UnpinnedDestinations() const;
};

/// Runs the full dynamic pipeline for one app against `world`.
[[nodiscard]] DynamicReport RunDynamicAnalysis(const appmodel::App& app,
                                               const appmodel::ServerWorld& world,
                                               const DynamicOptions& options = {});

}  // namespace pinscope::dynamicanalysis
