// The perf-suite artifact contract: schema validation of what
// melody_perfsuite writes (sorted repeats with true medians, non-empty
// date and sha), the JSON it writes through util/json with every field
// echoed, and the build sha it is stamped with. The comparison of parent
// and change artifacts is tools/perf_gate.py's, self-tested by
// tests/test_perf_gate.py.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "perf/artifact.h"
#include "perf/suite.h"
#include "util/build_info.h"

namespace melody::perf {
namespace {

/// A minimal valid artifact with one benchmark; tests perturb one field at
/// a time and assert the exact validation failure.
PerfArtifact valid_artifact() {
  PerfArtifact artifact;
  artifact.date = "2026-08-07";
  artifact.git_sha = "abc1234";
  artifact.quick = false;
  artifact.threads = 1;
  artifact.repeats = 3;

  BenchmarkResult bench;
  bench.name = "kalman_chain";
  bench.repeats = 3;
  bench.wall_ms = {10.0, 11.0, 14.0};
  bench.cpu_ms = {9.5, 10.8, 13.9};
  bench.median_wall_ms = 11.0;
  bench.median_cpu_ms = 10.8;
  bench.peak_rss_kb = 2048;
  bench.config = {{"workers", 50000.0}, {"seed", 779716.0}};
  bench.counters = {{"speedup_vs_scalar", 2.0}};
  bench.phases.push_back({"estimator/em", 10, 5.0, 0.4, 0.6, 0.9});
  artifact.benchmarks.push_back(std::move(bench));
  return artifact;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(PerfArtifact, ValidArtifactPassesValidation) {
  EXPECT_NO_THROW(validate(valid_artifact()));
}

TEST(PerfArtifact, JsonRoundTripPreservesEverything) {
  const PerfArtifact artifact = valid_artifact();
  const util::json::Value parsed =
      util::json::parse(util::json::write_pretty(to_json(artifact)));

  EXPECT_EQ(parsed, to_json(artifact));
  EXPECT_EQ(parsed.find("schema_version")->as_number(),
            kArtifactSchemaVersion);
  EXPECT_EQ(parsed.find("date")->as_string(), "2026-08-07");
  EXPECT_EQ(parsed.find("git_sha")->as_string(), "abc1234");  // git-sha echo
  EXPECT_FALSE(parsed.find("quick")->as_bool());
  EXPECT_EQ(parsed.find("threads")->as_number(), 1.0);
  EXPECT_EQ(parsed.find("repeats")->as_number(), 3.0);
  const util::json::Value& benches = *parsed.find("benchmarks");
  ASSERT_EQ(benches.items().size(), 1u);

  const util::json::Value& bench = benches.items()[0];
  EXPECT_EQ(bench.find("name")->as_string(), "kalman_chain");
  ASSERT_EQ(bench.find("wall_ms")->items().size(), 3u);
  EXPECT_EQ(bench.find("wall_ms")->items()[2].as_number(), 14.0);
  EXPECT_EQ(bench.find("cpu_ms")->items()[0].as_number(), 9.5);
  EXPECT_EQ(bench.find("median_wall_ms")->as_number(), 11.0);
  EXPECT_EQ(bench.find("peak_rss_kb")->as_number(), 2048.0);
  EXPECT_EQ(bench.find("config")->find("seed")->as_number(),
            779716.0);  // config echo
  EXPECT_EQ(bench.find("counters")->find("speedup_vs_scalar")->as_number(),
            2.0);
  const util::json::Value& phases = *bench.find("phases");
  ASSERT_EQ(phases.items().size(), 1u);
  EXPECT_EQ(phases.items()[0].find("name")->as_string(), "estimator/em");
  EXPECT_EQ(phases.items()[0].find("count")->as_number(), 10.0);
}

TEST(PerfArtifact, FileRoundTrip) {
  const std::string path = temp_path("bench_roundtrip.json");
  write_artifact(valid_artifact(), path);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), util::json::write_pretty(to_json(valid_artifact())));
  std::remove(path.c_str());

  PerfArtifact invalid = valid_artifact();
  invalid.benchmarks.clear();
  EXPECT_THROW(write_artifact(invalid, path), std::runtime_error);
  EXPECT_FALSE(std::ifstream(path).good());  // validated before writing
}

TEST(PerfArtifact, StampedWithTheShaTheBinaryWasBuiltFrom) {
  // One sha source for every tool: a binary run from another checkout
  // still names the commit it was built from.
  SuiteOptions options;
  options.quick = true;
  options.repeats = 1;
  options.only = {"greedy_scoring_100k"};
  std::ostringstream log;
  const PerfArtifact artifact = run_suite(options, log);
  EXPECT_EQ(artifact.git_sha, util::build_git_sha());
  EXPECT_EQ(to_json(artifact).find("git_sha")->as_string(),
            util::build_git_sha());
}

TEST(PerfArtifact, MedianOddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);  // middle pair averaged
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(PerfArtifactValidation, RejectsWrongSchemaVersion) {
  PerfArtifact artifact = valid_artifact();
  artifact.schema_version = kArtifactSchemaVersion + 1;
  EXPECT_THROW(validate(artifact), std::runtime_error);
}

TEST(PerfArtifactValidation, RejectsMissingDateOrSha) {
  PerfArtifact artifact = valid_artifact();
  artifact.date.clear();
  EXPECT_THROW(validate(artifact), std::runtime_error);
  artifact = valid_artifact();
  artifact.git_sha.clear();
  EXPECT_THROW(validate(artifact), std::runtime_error);
}

TEST(PerfArtifactValidation, RejectsEmptyBenchmarks) {
  PerfArtifact artifact = valid_artifact();
  artifact.benchmarks.clear();
  EXPECT_THROW(validate(artifact), std::runtime_error);
}

TEST(PerfArtifactValidation, RejectsDuplicateBenchmarkNames) {
  PerfArtifact artifact = valid_artifact();
  artifact.benchmarks.push_back(artifact.benchmarks[0]);
  EXPECT_THROW(validate(artifact), std::runtime_error);
}

TEST(PerfArtifactValidation, RejectsRepeatCountMismatch) {
  PerfArtifact artifact = valid_artifact();
  artifact.benchmarks[0].wall_ms.push_back(15.0);
  EXPECT_THROW(validate(artifact), std::runtime_error);
}

TEST(PerfArtifactValidation, RejectsUnsortedRepeats) {
  // The suite emits wall_ms sorted ascending; an out-of-order sample means
  // the artifact was hand-edited or the writer broke.
  PerfArtifact artifact = valid_artifact();
  std::swap(artifact.benchmarks[0].wall_ms[0],
            artifact.benchmarks[0].wall_ms[2]);
  std::swap(artifact.benchmarks[0].cpu_ms[0],
            artifact.benchmarks[0].cpu_ms[2]);
  EXPECT_THROW(validate(artifact), std::runtime_error);
}

TEST(PerfArtifactValidation, RejectsWrongMedian) {
  PerfArtifact artifact = valid_artifact();
  artifact.benchmarks[0].median_wall_ms = 12.0;  // true median is 11.0
  EXPECT_THROW(validate(artifact), std::runtime_error);
}

TEST(PerfArtifactValidation, RejectsNegativeTimes) {
  PerfArtifact artifact = valid_artifact();
  artifact.benchmarks[0].wall_ms = {-1.0, 11.0, 14.0};
  artifact.benchmarks[0].median_wall_ms = 11.0;
  EXPECT_THROW(validate(artifact), std::runtime_error);
}

}  // namespace
}  // namespace melody::perf
