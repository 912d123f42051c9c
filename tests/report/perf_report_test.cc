// Perf-report writer suite: deterministic Markdown/JSON rendering of a
// fixed Autopsy, resolver labeling, and the .md -> .json path twin rule.
#include "report/perf_report.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/autopsy.h"

namespace pinscope::report {
namespace {

obs::Autopsy FixedAutopsy() {
  obs::Autopsy a;
  a.wall_us = 10000;
  a.workers = 2;
  a.intervals_seen = 6;
  a.intervals_sampled = 6;
  a.sampled = false;

  obs::CriticalSegment first;
  first.key = (std::uint64_t{0} << 48) | 3;
  first.stage = "static";
  first.worker = 0;
  first.start_us = 0;
  first.end_us = 4000;
  obs::CriticalSegment second;
  second.key = (std::uint64_t{1} << 48) | 5;
  second.stage = "dynamic";
  second.worker = 0;
  second.start_us = 4000;
  second.end_us = 9500;
  a.critical_path = {first, second};
  a.critical_path_us = 9500;
  a.critical_path_stages = 2;

  obs::WorkerBreakdown w0;
  w0.worker = 0;
  w0.busy_us = 9000;
  w0.lock_wait_us = 150;
  w0.tail_join_us = 600;
  w0.ramp_up_us = 50;
  w0.other_us = 200;
  w0.stage_count = 4;
  a.worker_breakdown = {w0};

  obs::SlowItem slow;
  slow.key = first.key;
  slow.total_us = 4200;
  slow.stages = {{"static", 4000.0}, {"dynamic", 200.0}};
  a.slowest = {slow};

  obs::LockProfile lock;
  lock.name = "scan_cache";
  lock.contended = 12;
  lock.total_wait_us = 800;
  lock.p99_wait_us = 90;
  a.locks = {lock};
  return a;
}

obs::ItemResolver TestResolver() {
  return [](std::uint64_t key) {
    const bool ios = (key >> 48) != 0;
    return obs::ItemLabel{ios ? "ios" : "android",
                          "app" + std::to_string(key & 0xffff)};
  };
}

TEST(PerfReportTest, MarkdownCarriesEverySectionAndResolvedLabels) {
  const obs::Autopsy autopsy = FixedAutopsy();
  PerfReportInput input;
  input.autopsy = &autopsy;
  input.resolver = TestResolver();
  const std::string md = WritePerfReportMarkdown(input);
  EXPECT_NE(md.find("## Run"), std::string::npos);
  EXPECT_NE(md.find("## Critical path"), std::string::npos);
  EXPECT_NE(md.find("## Worker utilization"), std::string::npos);
  EXPECT_NE(md.find("| ramp-up |"), std::string::npos);
  EXPECT_NE(md.find("## Slowest apps"), std::string::npos);
  EXPECT_NE(md.find("## Lock contention"), std::string::npos);
  EXPECT_NE(md.find("android"), std::string::npos);
  EXPECT_NE(md.find("app3"), std::string::npos);
  EXPECT_NE(md.find("app5"), std::string::npos);
  EXPECT_NE(md.find("scan_cache"), std::string::npos);
}

TEST(PerfReportTest, WritersAreDeterministicGivenTheSameAutopsy) {
  const obs::Autopsy autopsy = FixedAutopsy();
  PerfReportInput input;
  input.autopsy = &autopsy;
  input.resolver = TestResolver();
  EXPECT_EQ(WritePerfReportMarkdown(input), WritePerfReportMarkdown(input));
  EXPECT_EQ(WritePerfReportJson(input), WritePerfReportJson(input));
}

TEST(PerfReportTest, JsonTwinCarriesTheStructuredSections) {
  const obs::Autopsy autopsy = FixedAutopsy();
  PerfReportInput input;
  input.autopsy = &autopsy;
  input.resolver = TestResolver();
  const std::string json = WritePerfReportJson(input);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"workers_breakdown\""), std::string::npos);
  EXPECT_NE(json.find("\"ramp_up_us\""), std::string::npos);
  EXPECT_NE(json.find("\"slowest\""), std::string::npos);
  EXPECT_NE(json.find("\"locks\""), std::string::npos);
  EXPECT_NE(json.find("\"scan_cache\""), std::string::npos);
  EXPECT_NE(json.find("\"app5\""), std::string::npos);
}

TEST(PerfReportTest, MissingResolverFallsBackToDecimalKeys) {
  const obs::Autopsy autopsy = FixedAutopsy();
  PerfReportInput input;
  input.autopsy = &autopsy;
  const std::string md = WritePerfReportMarkdown(input);
  EXPECT_NE(md.find("item"), std::string::npos);
  EXPECT_EQ(md.find("android"), std::string::npos);
}

TEST(PerfReportTest, JsonPathSwapsMdSuffixOrAppends) {
  EXPECT_EQ(PerfReportJsonPathFor("perf.md"), "perf.json");
  EXPECT_EQ(PerfReportJsonPathFor("out/autopsy.md"), "out/autopsy.json");
  EXPECT_EQ(PerfReportJsonPathFor("perf.txt"), "perf.txt.json");
}

}  // namespace
}  // namespace pinscope::report
