// The perf-trajectory artifact contract: schema validation of emitted
// BENCH_*.json (required keys, sorted repeats with true medians, git-sha
// and config echo) and the perf_compare regression gate (threshold logic,
// ok/regression/error classification — the CLI's exit codes 0/1/2).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "perf/artifact.h"
#include "perf/compare.h"

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
  const PerfArtifact parsed =
      parse_artifact(util::json::write_pretty(to_json(artifact)));

  EXPECT_EQ(parsed.schema_version, kArtifactSchemaVersion);
  EXPECT_EQ(parsed.date, "2026-08-07");
  EXPECT_EQ(parsed.git_sha, "abc1234");  // git-sha echo
  EXPECT_FALSE(parsed.quick);
  EXPECT_EQ(parsed.threads, 1);
  EXPECT_EQ(parsed.repeats, 3);
  ASSERT_EQ(parsed.benchmarks.size(), 1u);

  const BenchmarkResult& bench = parsed.benchmarks[0];
  EXPECT_EQ(bench.name, "kalman_chain");
  EXPECT_EQ(bench.wall_ms, artifact.benchmarks[0].wall_ms);
  EXPECT_EQ(bench.cpu_ms, artifact.benchmarks[0].cpu_ms);
  EXPECT_EQ(bench.median_wall_ms, 11.0);
  EXPECT_EQ(bench.peak_rss_kb, 2048);
  EXPECT_EQ(bench.config, artifact.benchmarks[0].config);  // config echo
  EXPECT_EQ(bench.counter_or("speedup_vs_scalar", 0.0), 2.0);
  ASSERT_EQ(bench.phases.size(), 1u);
  EXPECT_EQ(bench.phases[0].name, "estimator/em");
  EXPECT_EQ(bench.phases[0].count, 10);
}

TEST(PerfArtifact, FileRoundTrip) {
  const std::string path = temp_path("bench_roundtrip.json");
  write_artifact(valid_artifact(), path);
  const PerfArtifact loaded = read_artifact(path);
  EXPECT_EQ(loaded.git_sha, "abc1234");
  ASSERT_EQ(loaded.benchmarks.size(), 1u);
  EXPECT_EQ(loaded.benchmarks[0].median_wall_ms, 11.0);
  std::remove(path.c_str());
}

TEST(PerfArtifact, FileNameCarriesDateAndSha) {
  EXPECT_EQ(artifact_file_name(valid_artifact()),
            "BENCH_2026-08-07_abc1234.json");
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

TEST(PerfArtifactValidation, ParseRejectsMissingRequiredKey) {
  // Drop "benchmarks" wholesale: still syntactically valid JSON.
  std::string text = util::json::write_pretty(to_json(valid_artifact()));
  const auto at = text.find("\"benchmarks\"");
  ASSERT_NE(at, std::string::npos);
  text = text.substr(0, at) + "\"other\"" +
         text.substr(at + std::string("\"benchmarks\"").size());
  EXPECT_THROW(parse_artifact(text), std::runtime_error);
}

TEST(PerfArtifactValidation, ReadRejectsMissingAndMalformedFiles) {
  EXPECT_THROW(read_artifact(temp_path("no_such_bench.json")),
               std::runtime_error);
  const std::string path = temp_path("bench_malformed.json");
  std::ofstream(path) << "{ not json";
  EXPECT_THROW(read_artifact(path), std::runtime_error);
  std::remove(path.c_str());
}

/// Two-benchmark artifacts for the gate tests: `factor` scales the
/// candidate's medians relative to the baseline.
PerfArtifact gate_artifact(double greedy_ms, double kalman_ms) {
  PerfArtifact artifact = valid_artifact();
  artifact.benchmarks.clear();
  for (const auto& [name, ms] : {std::pair<std::string, double>{
                                     "greedy_scoring_100k", greedy_ms},
                                 {"kalman_chain", kalman_ms}}) {
    BenchmarkResult bench;
    bench.name = name;
    bench.repeats = 1;
    bench.wall_ms = {ms};
    bench.cpu_ms = {ms};
    bench.median_wall_ms = ms;
    bench.median_cpu_ms = ms;
    artifact.benchmarks.push_back(std::move(bench));
  }
  return artifact;
}

TEST(PerfCompare, WithinThresholdIsOk) {
  const CompareReport report =
      compare(gate_artifact(10.0, 50.0), gate_artifact(12.0, 55.0),
              {.threshold = 0.25});
  EXPECT_EQ(report.status, CompareStatus::kOk);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(report.rows[0].ratio, 1.2);
  EXPECT_FALSE(report.rows[0].regression);
}

TEST(PerfCompare, ImprovementIsOk) {
  const CompareReport report = compare(
      gate_artifact(10.0, 50.0), gate_artifact(5.0, 25.0), {.threshold = 0.0});
  EXPECT_EQ(report.status, CompareStatus::kOk);
  EXPECT_DOUBLE_EQ(report.rows[0].ratio, 0.5);
}

TEST(PerfCompare, PastThresholdIsRegression) {
  const CompareReport report =
      compare(gate_artifact(10.0, 50.0), gate_artifact(13.0, 50.0),
              {.threshold = 0.25});
  EXPECT_EQ(report.status, CompareStatus::kRegression);
  EXPECT_TRUE(report.rows[0].regression);   // 1.3 > 1.25
  EXPECT_FALSE(report.rows[1].regression);  // 1.0
}

TEST(PerfCompare, ThresholdBoundaryIsNotRegression) {
  // Exactly (1 + threshold) passes: the gate fires strictly above it.
  const CompareReport report =
      compare(gate_artifact(10.0, 50.0), gate_artifact(12.5, 50.0),
              {.threshold = 0.25});
  EXPECT_EQ(report.status, CompareStatus::kOk);
}

TEST(PerfCompare, MissingBenchmarksListedAndGatedByRequireAll) {
  PerfArtifact candidate = gate_artifact(10.0, 50.0);
  candidate.benchmarks.pop_back();  // drop kalman_chain
  const PerfArtifact baseline = gate_artifact(10.0, 50.0);

  CompareReport lenient = compare(baseline, candidate, {.threshold = 0.25});
  EXPECT_EQ(lenient.status, CompareStatus::kOk);
  ASSERT_EQ(lenient.missing.size(), 1u);
  EXPECT_EQ(lenient.missing[0], "kalman_chain");

  const CompareReport strict =
      compare(baseline, candidate, {.threshold = 0.25, .require_all = true});
  EXPECT_EQ(strict.status, CompareStatus::kError);
}

TEST(PerfCompare, EmptyIntersectionIsError) {
  PerfArtifact candidate = gate_artifact(10.0, 50.0);
  for (auto& bench : candidate.benchmarks) bench.name += "_renamed";
  const CompareReport report =
      compare(gate_artifact(10.0, 50.0), candidate, {.threshold = 0.25});
  EXPECT_EQ(report.status, CompareStatus::kError);
}

TEST(PerfCompare, InvalidThresholdIsError) {
  const CompareReport report = compare(
      gate_artifact(10.0, 50.0), gate_artifact(10.0, 50.0), {.threshold = -1.0});
  EXPECT_EQ(report.status, CompareStatus::kError);
}

TEST(PerfCompare, ReportsEachSidesInterquartileRange) {
  // Quartiles interpolate linearly between sorted repeats: {1, 2, 4, 8}
  // has Q1 = 1.75 and Q3 = 5, {10, 11, 14} has Q1 = 10.5 and Q3 = 12.5,
  // and a single repeat has no spread.
  PerfArtifact baseline = gate_artifact(10.0, 50.0);
  PerfArtifact candidate = gate_artifact(10.0, 50.0);
  BenchmarkResult& base = baseline.benchmarks[0];
  base.repeats = 4;
  base.wall_ms = base.cpu_ms = {1.0, 2.0, 4.0, 8.0};
  base.median_wall_ms = base.median_cpu_ms = 3.0;
  BenchmarkResult& cand = candidate.benchmarks[0];
  cand.repeats = 3;
  cand.wall_ms = cand.cpu_ms = {10.0, 11.0, 14.0};
  cand.median_wall_ms = cand.median_cpu_ms = 11.0;
  const CompareReport report = compare(baseline, candidate, {});
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(report.rows[0].baseline_iqr_ms, 3.25);
  EXPECT_DOUBLE_EQ(report.rows[0].candidate_iqr_ms, 2.0);
  EXPECT_DOUBLE_EQ(report.rows[1].baseline_iqr_ms, 0.0);
  EXPECT_DOUBLE_EQ(report.rows[1].candidate_iqr_ms, 0.0);

  // The printed table carries both spreads beside the medians.
  const std::string base_path = temp_path("iqr_baseline.json");
  const std::string cand_path = temp_path("iqr_candidate.json");
  write_artifact(baseline, base_path);
  write_artifact(candidate, cand_path);
  std::ostringstream table;
  compare_files(base_path, cand_path, {.threshold = 10.0}, table);
  EXPECT_NE(table.str().find("base IQR"), std::string::npos) << table.str();
  EXPECT_NE(table.str().find("3.250"), std::string::npos) << table.str();
  EXPECT_NE(table.str().find("2.000"), std::string::npos) << table.str();
  std::remove(base_path.c_str());
  std::remove(cand_path.c_str());
}

TEST(PerfCompareFiles, ExitCodeContract) {
  // compare_files returns the CLI's exit codes: 0 ok, 1 regression,
  // 2 malformed input — the CI gate scripts against exactly these.
  const std::string baseline = temp_path("gate_baseline.json");
  const std::string good = temp_path("gate_good.json");
  const std::string slow = temp_path("gate_slow.json");
  const std::string broken = temp_path("gate_broken.json");
  write_artifact(gate_artifact(10.0, 50.0), baseline);
  write_artifact(gate_artifact(10.5, 51.0), good);
  write_artifact(gate_artifact(20.0, 50.0), slow);
  std::ofstream(broken) << "[]";

  std::ostringstream sink;
  EXPECT_EQ(compare_files(baseline, good, {.threshold = 0.25}, sink),
            CompareStatus::kOk);
  EXPECT_EQ(compare_files(baseline, slow, {.threshold = 0.25}, sink),
            CompareStatus::kRegression);
  EXPECT_EQ(compare_files(baseline, broken, {.threshold = 0.25}, sink),
            CompareStatus::kError);
  EXPECT_EQ(compare_files(temp_path("gate_absent.json"), good,
                          {.threshold = 0.25}, sink),
            CompareStatus::kError);

  EXPECT_EQ(static_cast<int>(CompareStatus::kOk), 0);
  EXPECT_EQ(static_cast<int>(CompareStatus::kRegression), 1);
  EXPECT_EQ(static_cast<int>(CompareStatus::kError), 2);

  for (const auto& path : {baseline, good, slow, broken}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace melody::perf
