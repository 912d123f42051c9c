#include "dynamicanalysis/pipeline.h"

#include <algorithm>
#include <map>
#include <optional>

#include "dynamicanalysis/device.h"
#include "dynamicanalysis/frida.h"
#include "dynamicanalysis/pii_detector.h"
#include "dynamicanalysis/sim_fixtures.h"
#include "net/mitm_proxy.h"

namespace pinscope::dynamicanalysis {

bool DynamicReport::AppPins() const {
  return std::any_of(destinations.begin(), destinations.end(),
                     [](const DestinationReport& d) { return d.pinned; });
}

std::vector<std::string> DynamicReport::PinnedDestinations() const {
  std::vector<std::string> out;
  for (const DestinationReport& d : destinations) {
    if (d.pinned) out.push_back(d.hostname);
  }
  return out;
}

std::vector<std::string> DynamicReport::UnpinnedDestinations() const {
  std::vector<std::string> out;
  for (const DestinationReport& d : destinations) {
    if (!d.pinned) out.push_back(d.hostname);
  }
  return out;
}

DynamicReport RunDynamicAnalysis(const appmodel::App& app,
                                 const appmodel::ServerWorld& world,
                                 const DynamicOptions& options) {
  DynamicReport report;
  report.app_id = app.meta.app_id;
  report.platform = app.meta.platform;

  // Shared study fixtures when provided; otherwise private equivalents.
  // Both paths forge identical leaves: the private proxy derives its leaf
  // streams from the same (seed, CA label, hostname) tuple the fixture
  // proxy uses — only the sharing differs.
  const SimFixtures* fixtures = options.fixtures;
  std::optional<net::MitmProxy> local_proxy;
  if (fixtures == nullptr) local_proxy.emplace("mitmproxy", options.seed);
  const net::MitmProxy& proxy =
      fixtures != nullptr ? fixtures->proxy() : *local_proxy;
  const DeviceEmulator device =
      fixtures != nullptr
          ? fixtures->MakeDevice(app.meta.platform)
          : (app.meta.platform == appmodel::Platform::kAndroid
                 ? DeviceEmulator::Pixel3(&proxy.CaCertificate())
                 : DeviceEmulator::IPhoneX(&proxy.CaCertificate()));

  // Per-app seed derivation (DESIGN.md §8): the stream depends only on the
  // study seed and the app's identity, never on how many apps ran before it.
  util::Rng rng(options.seed ^ util::StableHash64(app.meta.app_id));

  obs::MetricsRegistry* metrics = obs::MetricsOf(options.observer);
  const std::string platform(PlatformName(app.meta.platform));

  // One journal scope per phase; events sort by logical keys, so each
  // phase's events land in the same place whatever ran before them.
  obs::EventScope baseline_log = obs::ScopeFor(options.observer, platform,
                                               app.meta.app_id,
                                               "dynamic.baseline");
  obs::EventScope mitm_log =
      obs::ScopeFor(options.observer, platform, app.meta.app_id, "dynamic.mitm");

  RunOptions baseline_opts;
  baseline_opts.capture_seconds = options.capture_seconds;
  baseline_opts.settle_seconds = options.settle_seconds;
  baseline_opts.validation_cache =
      fixtures != nullptr ? fixtures->validation_cache() : nullptr;
  baseline_opts.metrics = metrics;
  RunOptions mitm_opts = baseline_opts;
  mitm_opts.proxy = &proxy;
  baseline_opts.log = &baseline_log;
  mitm_opts.log = &mitm_log;

  // Both phase streams fork before either capture runs, so neither capture
  // observes the other's stream position.
  util::Rng baseline_rng = rng.Fork("baseline");
  util::Rng mitm_rng = rng.Fork("mitm");

  // The captures run back to back on the calling thread: the study already
  // keeps one worker per core busy with whole app chains.
  net::Capture baseline;
  {
    const obs::Span span = obs::SpanFor(options.observer, "dynamic.baseline",
                                        "phase", {{"app", app.meta.app_id}});
    obs::ScopedTimer timer(
        obs::PhaseHistogramOrNull(metrics, "phase.dynamic.baseline"));
    baseline = device.RunApp(app, world, baseline_opts, baseline_rng);
  }
  net::Capture mitm;
  {
    // Only this phase touches the proxy; its forged-leaf cache is
    // internally synchronized (and possibly shared study-wide).
    const obs::Span span = obs::SpanFor(options.observer, "dynamic.mitm",
                                        "phase", {{"app", app.meta.app_id}});
    obs::ScopedTimer timer(
        obs::PhaseHistogramOrNull(metrics, "phase.dynamic.mitm"));
    mitm = device.RunApp(app, world, mitm_opts, mitm_rng);
  }

  const ExclusionRules exclusions =
      app.meta.platform == appmodel::Platform::kIos
          ? ExclusionRules::ForIos(app.behavior.associated_domains)
          : ExclusionRules{};
  // Detection scratch: the (unsynchronized) arena is touched by exactly
  // this thread and rewinds at each flight, keeping steady-state allocator
  // traffic O(1) per flight. Reports never hold arena pointers.
  thread_local util::Arena flight_arena;
  flight_arena.Reset();
  const DetectionResult detection =
      DetectPinning(baseline, mitm, exclusions, &flight_arena);

  // Instrumented pass, only when pinning was observed.
  obs::EventScope frida_log = obs::ScopeFor(options.observer, platform,
                                            app.meta.app_id, "dynamic.frida");
  CircumventionRun frida;
  if (options.circumvent && detection.AppPins()) {
    const obs::Span span = obs::SpanFor(options.observer, "dynamic.frida",
                                        "phase", {{"app", app.meta.app_id}});
    obs::ScopedTimer timer(obs::PhaseHistogramOrNull(metrics, "phase.dynamic.frida"));
    util::Rng frida_rng = rng.Fork("frida");
    RunOptions frida_opts = mitm_opts;
    frida_opts.log = &frida_log;
    frida = RunWithPinningDisabled(app, world, device, proxy, frida_opts,
                                   frida_rng);
    frida_log.Emit(
        obs::Severity::kInfo, "frida.run",
        {{"hooked", static_cast<std::uint64_t>(frida.hooked_destinations.size())},
         {"unhookable",
          static_cast<std::uint64_t>(frida.unhookable_destinations.size())}});
  }

  // Differential verdicts: one divergence event per destination naming the
  // run pair's observations and the resulting rationale.
  obs::EventScope detect_log = obs::ScopeFor(options.observer, platform,
                                             app.meta.app_id, "dynamic.detect");
  const auto rationale = [](const DestinationVerdict& v) -> std::string_view {
    if (v.pinned) {
      return "used in baseline; every intercepted connection failed";
    }
    if (!v.used_baseline) return "not used in baseline run";
    if (v.used_mitm) return "application data flowed under interception";
    if (!v.seen_mitm) return "destination not contacted under interception";
    return "intercepted connections did not uniformly fail";
  };

  for (const DestinationVerdict& v : detection.verdicts) {
    DestinationReport dest;
    dest.hostname = v.hostname;
    dest.pinned = v.pinned;
    dest.used_baseline = v.used_baseline;

    // Weak-cipher advertisement, from baseline flows (§5.4 inspects the
    // ClientHello, which interception does not change).
    for (const net::Flow* f : baseline.FlowsTo(v.hostname)) {
      if (f->AdvertisesWeakCipher()) {
        dest.weak_cipher = true;
        break;
      }
    }

    // PII: unpinned destinations decrypt in the MITM run; pinned ones only
    // via successful instrumentation.
    dest.pii = DetectPiiForDestination(mitm, v.hostname, device.identity());
    const auto frida_pii =
        DetectPiiForDestination(frida.capture, v.hostname, device.identity());
    for (appmodel::PiiType t : frida_pii) {
      if (std::find(dest.pii.begin(), dest.pii.end(), t) == dest.pii.end()) {
        dest.pii.push_back(t);
      }
    }
    if (v.pinned) {
      for (const net::Flow& f : frida.capture.flows) {
        if (f.sni == v.hostname && f.decrypted_payload.has_value()) {
          dest.circumvented = true;
          break;
        }
      }
    }

    // Out-of-band chain fetch at the genuine destination (§5.3). Some hosts
    // refuse the fetch — those end up in Table 6's "Data Unavailable" bucket.
    if (const appmodel::ServerInfo* srv = world.Find(v.hostname)) {
      if (!srv->chain_fetch_unavailable) dest.served_chain = srv->endpoint.chain;
    }

    detect_log.Emit(obs::Severity::kDecision, "dynamic.divergence",
                    {{"host", v.hostname},
                     {"used_baseline", v.used_baseline},
                     {"seen_mitm", v.seen_mitm},
                     {"used_mitm", v.used_mitm},
                     {"all_failed_mitm", v.all_failed_mitm},
                     {"pinned", v.pinned},
                     {"rationale", rationale(v)}});
    if (dest.circumvented) {
      detect_log.Emit(obs::Severity::kDecision, "frida.circumvented",
                      {{"host", v.hostname}});
    }

    report.destinations.push_back(std::move(dest));
  }

  {
    std::string pinned_hosts;
    for (const std::string& host : report.PinnedDestinations()) {
      if (!pinned_hosts.empty()) pinned_hosts += ',';
      pinned_hosts += host;
    }
    detect_log.Emit(
        obs::Severity::kDecision, "dynamic.verdict",
        {{"pins", report.AppPins()},
         {"destinations", static_cast<std::uint64_t>(report.destinations.size())},
         {"pinned_hosts", pinned_hosts}});
  }

  obs::CounterOrNull(metrics, "dynamic.destinations")
      .Add(report.destinations.size());
  obs::CounterOrNull(metrics, "dynamic.pinned")
      .Add(report.PinnedDestinations().size());
  obs::CounterOrNull(metrics, "dynamic.circumvented")
      .Add(static_cast<std::uint64_t>(
          std::count_if(report.destinations.begin(), report.destinations.end(),
                        [](const DestinationReport& d) {
                          return d.circumvented;
                        })));
  return report;
}

}  // namespace pinscope::dynamicanalysis
