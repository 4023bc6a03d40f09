// The pinned perf-trajectory artifact: schema-versioned BENCH_*.json
// committed at the repository root, one per PR, so "faster" is a
// falsifiable claim with a diffable history (tools/perf_compare gates CI
// against the previous point).
//
// Schema v1 (all times in milliseconds):
//   {
//     "schema_version": 1,
//     "date": "YYYY-MM-DD",
//     "git_sha": "<short sha or 'unknown'>",
//     "quick": false,            // true for the CI --quick run
//     "threads": 8,              // shared-pool concurrency during the run
//     "repeats": 5,              // requested median-of-K
//     "benchmarks": [
//       {
//         "name": "kalman_chain",
//         "repeats": 5,
//         "wall_ms": [..],       // per-repeat, sorted ascending
//         "cpu_ms": [..],        // process CPU per repeat, wall order
//         "median_wall_ms": ..,  // median of wall_ms
//         "median_cpu_ms": ..,
//         "peak_rss_kb": ..,     // getrusage ru_maxrss after the bench
//         "config": {..},        // run parameters (sizes, seeds, flags)
//         "counters": {..},      // derived scalars, e.g. speedup_vs_scalar
//         "phases": [            // obs timer quantiles from one
//           {                    // instrumented extra pass (not timed)
//             "name": "auction/rank_sort",
//             "count": .., "sum_ms": ..,
//             "p50_ms": .., "p90_ms": .., "p99_ms": ..
//           }, ..
//         ]
//       }, ..
//     ]
//   }
//
// Validation rules (enforced by validate(), unit-tested in
// tests/test_perf_artifact.cc): required keys present and typed, repeats ==
// len(wall_ms) == len(cpu_ms) > 0, wall_ms sorted ascending with
// median_wall_ms the true median, all times finite and non-negative,
// benchmark names unique and non-empty.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace melody::perf {

inline constexpr int kArtifactSchemaVersion = 1;

struct PhaseStats {
  std::string name;
  std::int64_t count = 0;
  double sum_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
};

struct BenchmarkResult {
  std::string name;
  int repeats = 0;
  std::vector<double> wall_ms;  // sorted ascending
  std::vector<double> cpu_ms;   // same permutation as wall_ms
  double median_wall_ms = 0.0;
  double median_cpu_ms = 0.0;
  std::int64_t peak_rss_kb = 0;
  std::vector<std::pair<std::string, double>> config;    // ordered
  std::vector<std::pair<std::string, double>> counters;  // ordered
  std::vector<PhaseStats> phases;

  /// Convenience: counter value by name, or fallback when absent.
  double counter_or(const std::string& key, double fallback) const;
};

struct PerfArtifact {
  int schema_version = kArtifactSchemaVersion;
  std::string date;     // YYYY-MM-DD
  std::string git_sha;  // short sha, or "unknown" outside a git checkout
  bool quick = false;
  int threads = 1;
  int repeats = 0;
  std::vector<BenchmarkResult> benchmarks;

  const BenchmarkResult* find(const std::string& name) const;
};

/// Median of an unsorted sample (even sizes average the middle pair);
/// throws std::invalid_argument on an empty sample.
double median(std::vector<double> values);

/// Throws std::runtime_error on a non-finite number: a NaN timing is a
/// harness bug, not something to publish as null.
util::json::Value to_json(const PerfArtifact& artifact);

/// Parse + validate. Throws std::runtime_error with a path-qualified
/// message on malformed JSON or any schema violation.
PerfArtifact artifact_from_json(const util::json::Value& json);
PerfArtifact parse_artifact(const std::string& text);

/// Schema checks beyond shape (see header comment). Throws
/// std::runtime_error naming the violated rule.
void validate(const PerfArtifact& artifact);

/// File I/O; read_artifact throws std::runtime_error on missing or
/// malformed files, write_artifact on I/O failure.
PerfArtifact read_artifact(const std::string& path);
void write_artifact(const PerfArtifact& artifact, const std::string& path);

/// The canonical committed file name: BENCH_<date>_<gitsha>.json.
std::string artifact_file_name(const PerfArtifact& artifact);

}  // namespace melody::perf
