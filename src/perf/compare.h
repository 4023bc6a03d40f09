// Regression gate between two perf-trajectory artifacts. Benchmarks are
// matched by name across the intersection of the two files and compared by
// median wall time; a ratio above (1 + threshold) is a regression. Each
// side's interquartile range is reported beside its median. The CLI
// wrapper (tools/perf_compare) turns the outcome into an exit code so CI
// can gate on the committed baseline:
//   0 — within threshold (including improvements),
//   1 — at least one regression,
//   2 — malformed input, empty intersection, or (with require_all) a
//       baseline benchmark missing from the candidate.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "perf/artifact.h"

namespace melody::perf {

enum class CompareStatus { kOk = 0, kRegression = 1, kError = 2 };

struct BenchComparison {
  std::string name;
  double baseline_ms = 0.0;
  double candidate_ms = 0.0;
  /// Interquartile range of each side's repeats (wall_ms, linearly
  /// interpolated quartiles; 0 for a single repeat): the spread a ratio
  /// should be read against.
  double baseline_iqr_ms = 0.0;
  double candidate_iqr_ms = 0.0;
  double ratio = 0.0;  // candidate / baseline (0 when baseline is 0)
  bool regression = false;
};

struct CompareOptions {
  /// Allowed fractional slowdown: 0.25 passes ratios up to 1.25. CI uses a
  /// generous value because --quick medians on shared runners are noisy.
  double threshold = 0.25;
  /// Fail (kError) when a baseline benchmark has no candidate counterpart,
  /// instead of silently comparing the intersection.
  bool require_all = false;
};

struct CompareReport {
  CompareStatus status = CompareStatus::kOk;
  std::string error;  // set when status == kError
  std::vector<BenchComparison> rows;
  std::vector<std::string> missing;    // in baseline, not in candidate
  std::vector<std::string> added;      // in candidate, not in baseline
};

/// Pure comparison over in-memory artifacts (unit-tested directly).
CompareReport compare(const PerfArtifact& baseline,
                      const PerfArtifact& candidate,
                      const CompareOptions& options);

/// Load both files, compare, print a human-readable table to `out`, and
/// return the status (file/parse errors become kError, never throws).
CompareStatus compare_files(const std::string& baseline_path,
                            const std::string& candidate_path,
                            const CompareOptions& options, std::ostream& out);

}  // namespace melody::perf
