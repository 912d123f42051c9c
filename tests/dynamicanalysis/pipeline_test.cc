#include "dynamicanalysis/pipeline.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "dynamicanalysis/device.h"
#include "obs/obs.h"
#include "testing/fixtures.h"

namespace pinscope::dynamicanalysis {
namespace {

using pinscope::testing::MakePinningApp;
using pinscope::testing::MakePlainApp;
using pinscope::testing::MakeWorld;

TEST(PipelineTest, DetectsPinningApp) {
  const auto world = MakeWorld();
  const auto app = MakePinningApp(world, appmodel::Platform::kAndroid);
  const DynamicReport report = RunDynamicAnalysis(app, world);
  EXPECT_TRUE(report.AppPins());
  EXPECT_EQ(report.PinnedDestinations(),
            std::vector<std::string>{"api.fixture.com"});
  EXPECT_EQ(report.UnpinnedDestinations(),
            std::vector<std::string>{"tracker.ads.com"});
}

TEST(PipelineTest, PlainAppDoesNotPin) {
  const auto world = MakeWorld();
  const auto app = MakePlainApp(world, appmodel::Platform::kAndroid);
  const DynamicReport report = RunDynamicAnalysis(app, world);
  EXPECT_FALSE(report.AppPins());
  ASSERT_EQ(report.destinations.size(), 1u);
  EXPECT_TRUE(report.destinations[0].used_baseline);
}

TEST(PipelineTest, CircumventionDecryptsHookablePinnedTraffic) {
  const auto world = MakeWorld();
  const auto app = MakePinningApp(world, appmodel::Platform::kAndroid);
  const DynamicReport report = RunDynamicAnalysis(app, world);
  for (const DestinationReport& dest : report.destinations) {
    if (dest.hostname == "api.fixture.com") {
      EXPECT_TRUE(dest.pinned);
      EXPECT_TRUE(dest.circumvented);
      // The pinned payload carried the advertising id.
      ASSERT_EQ(dest.pii.size(), 1u);
      EXPECT_EQ(dest.pii[0], appmodel::PiiType::kAdvertisingId);
    }
  }
}

TEST(PipelineTest, CustomStackPinnedTrafficStaysOpaque) {
  const auto world = MakeWorld();
  auto app = MakePinningApp(world, appmodel::Platform::kAndroid);
  app.behavior.destinations[0].stack = tls::TlsStack::kCustom;
  const DynamicReport report = RunDynamicAnalysis(app, world);
  for (const DestinationReport& dest : report.destinations) {
    if (dest.hostname == "api.fixture.com") {
      EXPECT_TRUE(dest.pinned);
      EXPECT_FALSE(dest.circumvented);
      EXPECT_TRUE(dest.pii.empty());
    }
  }
}

TEST(PipelineTest, UnpinnedPiiObservedViaMitm) {
  const auto world = MakeWorld();
  const auto app = MakePinningApp(world, appmodel::Platform::kAndroid);
  const DynamicReport report = RunDynamicAnalysis(app, world);
  for (const DestinationReport& dest : report.destinations) {
    if (dest.hostname == "tracker.ads.com") {
      ASSERT_EQ(dest.pii.size(), 1u);
      EXPECT_EQ(dest.pii[0], appmodel::PiiType::kAdvertisingId);
    }
  }
}

TEST(PipelineTest, ServedChainsAreFetched) {
  const auto world = MakeWorld();
  const auto app = MakePinningApp(world, appmodel::Platform::kAndroid);
  const DynamicReport report = RunDynamicAnalysis(app, world);
  for (const DestinationReport& dest : report.destinations) {
    EXPECT_FALSE(dest.served_chain.empty()) << dest.hostname;
  }
}

TEST(PipelineTest, ChainFetchUnavailableLeavesChainEmpty) {
  auto world = MakeWorld();
  world.MarkChainFetchUnavailable("api.fixture.com");
  const auto app = MakePinningApp(world, appmodel::Platform::kAndroid);
  const DynamicReport report = RunDynamicAnalysis(app, world);
  for (const DestinationReport& dest : report.destinations) {
    if (dest.hostname == "api.fixture.com") {
      EXPECT_TRUE(dest.pinned);  // live connections are unaffected
      EXPECT_TRUE(dest.served_chain.empty());
    }
  }
}

TEST(PipelineTest, WeakCipherFlagSurfacesPerDestination) {
  const auto world = MakeWorld();
  auto app = MakePinningApp(world, appmodel::Platform::kAndroid);
  app.behavior.destinations[0].cipher_offer = tls::LegacyCipherOffer();
  const DynamicReport report = RunDynamicAnalysis(app, world);
  for (const DestinationReport& dest : report.destinations) {
    if (dest.hostname == "api.fixture.com") {
      EXPECT_TRUE(dest.weak_cipher);
    }
    if (dest.hostname == "tracker.ads.com") {
      EXPECT_FALSE(dest.weak_cipher);
    }
  }
}

TEST(PipelineTest, DeterministicForFixedSeed) {
  const auto world = MakeWorld();
  const auto app = MakePinningApp(world, appmodel::Platform::kAndroid);
  DynamicOptions opts;
  opts.seed = 777;
  const DynamicReport a = RunDynamicAnalysis(app, world, opts);
  const DynamicReport b = RunDynamicAnalysis(app, world, opts);
  ASSERT_EQ(a.destinations.size(), b.destinations.size());
  for (std::size_t i = 0; i < a.destinations.size(); ++i) {
    EXPECT_EQ(a.destinations[i].pinned, b.destinations[i].pinned);
    EXPECT_EQ(a.destinations[i].circumvented, b.destinations[i].circumvented);
  }
}

TEST(PipelineTest, ParallelPhasesFlagChangesNoReportOrJournalByte) {
  // The flag is retired: both captures always run back to back on the
  // calling thread, so flipping it must leave every output untouched.
  const auto world = MakeWorld();
  for (const appmodel::Platform platform :
       {appmodel::Platform::kAndroid, appmodel::Platform::kIos}) {
    SCOPED_TRACE(std::string(appmodel::PlatformName(platform)));
    const auto app = MakePinningApp(world, platform);
    const auto run = [&](bool parallel_phases) {
      obs::Observer observer;
      obs::EventLog log(obs::Severity::kDebug);
      observer.set_log(&log);
      DynamicOptions opts;
      opts.seed = 777;
      opts.parallel_phases = parallel_phases;
      opts.observer = &observer;
      DynamicReport report = RunDynamicAnalysis(app, world, opts);
      observer.set_log(nullptr);
      return std::make_pair(std::move(report), log.ToJsonl());
    };
    const auto [off, off_journal] = run(false);
    const auto [on, on_journal] = run(true);
    EXPECT_FALSE(off_journal.empty());
    EXPECT_EQ(off_journal, on_journal);
    EXPECT_EQ(off.app_id, on.app_id);
    ASSERT_EQ(off.destinations.size(), on.destinations.size());
    for (std::size_t i = 0; i < off.destinations.size(); ++i) {
      const DestinationReport& a = off.destinations[i];
      const DestinationReport& b = on.destinations[i];
      EXPECT_EQ(a.hostname, b.hostname);
      EXPECT_EQ(a.pinned, b.pinned);
      EXPECT_EQ(a.used_baseline, b.used_baseline);
      EXPECT_EQ(a.weak_cipher, b.weak_cipher);
      EXPECT_EQ(a.circumvented, b.circumvented);
      EXPECT_EQ(a.pii, b.pii);
      EXPECT_EQ(a.served_chain.size(), b.served_chain.size());
    }
  }
}

TEST(PipelineTest, IosPinningDetectedDespiteBackgroundNoise) {
  auto world = MakeWorld();
  for (const std::string& host : AppleBackgroundDomains()) {
    world.EnsureDefaultPki(host, "apple");
  }
  const auto app = MakePinningApp(world, appmodel::Platform::kIos);
  const DynamicReport report = RunDynamicAnalysis(app, world);
  EXPECT_TRUE(report.AppPins());
  // Apple background hosts must not appear as (pinned) destinations.
  for (const DestinationReport& dest : report.destinations) {
    EXPECT_EQ(dest.hostname.find("apple.com"), std::string::npos);
    EXPECT_EQ(dest.hostname.find("icloud.com"), std::string::npos);
  }
}

TEST(PipelineTest, CircumventionCanBeDisabled) {
  const auto world = MakeWorld();
  const auto app = MakePinningApp(world, appmodel::Platform::kAndroid);
  DynamicOptions opts;
  opts.circumvent = false;
  const DynamicReport report = RunDynamicAnalysis(app, world, opts);
  for (const DestinationReport& dest : report.destinations) {
    EXPECT_FALSE(dest.circumvented);
  }
}

}  // namespace
}  // namespace pinscope::dynamicanalysis
