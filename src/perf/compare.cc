#include "perf/compare.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "util/stats.h"

namespace melody::perf {

namespace {

double iqr(const std::vector<double>& wall_ms) {
  return util::quantile(wall_ms, 0.75) - util::quantile(wall_ms, 0.25);
}

}  // namespace

CompareReport compare(const PerfArtifact& baseline,
                      const PerfArtifact& candidate,
                      const CompareOptions& options) {
  CompareReport report;
  if (!(options.threshold >= 0.0) || !std::isfinite(options.threshold)) {
    report.status = CompareStatus::kError;
    report.error = "threshold must be finite and >= 0";
    return report;
  }
  for (const BenchmarkResult& b : baseline.benchmarks) {
    const BenchmarkResult* c = candidate.find(b.name);
    if (c == nullptr) {
      report.missing.push_back(b.name);
      continue;
    }
    BenchComparison row;
    row.name = b.name;
    row.baseline_ms = b.median_wall_ms;
    row.candidate_ms = c->median_wall_ms;
    row.baseline_iqr_ms = iqr(b.wall_ms);
    row.candidate_iqr_ms = iqr(c->wall_ms);
    row.ratio =
        b.median_wall_ms > 0.0 ? c->median_wall_ms / b.median_wall_ms : 0.0;
    row.regression = row.ratio > 1.0 + options.threshold;
    report.rows.push_back(std::move(row));
  }
  for (const BenchmarkResult& c : candidate.benchmarks) {
    if (baseline.find(c.name) == nullptr) report.added.push_back(c.name);
  }
  if (report.rows.empty()) {
    report.status = CompareStatus::kError;
    report.error = "no benchmarks in common between baseline and candidate";
    return report;
  }
  if (options.require_all && !report.missing.empty()) {
    report.status = CompareStatus::kError;
    report.error = "candidate is missing " +
                   std::to_string(report.missing.size()) +
                   " baseline benchmark(s), first: " + report.missing.front();
    return report;
  }
  for (const BenchComparison& row : report.rows) {
    if (row.regression) {
      report.status = CompareStatus::kRegression;
      break;
    }
  }
  return report;
}

namespace {

void print_report(const CompareReport& report, const CompareOptions& options,
                  std::ostream& out) {
  char line[256];
  std::snprintf(line, sizeof line, "%-28s %12s %10s %12s %10s %8s  %s\n",
                "benchmark", "base ms", "base IQR", "cand ms", "cand IQR",
                "ratio", "verdict");
  out << line;
  for (const BenchComparison& row : report.rows) {
    const char* verdict = row.regression          ? "REGRESSION"
                          : row.ratio < 1.0 - 1e-9 ? "improved"
                                                   : "ok";
    std::snprintf(line, sizeof line,
                  "%-28s %12.3f %10.3f %12.3f %10.3f %8.3f  %s\n",
                  row.name.c_str(), row.baseline_ms, row.baseline_iqr_ms,
                  row.candidate_ms, row.candidate_iqr_ms, row.ratio, verdict);
    out << line;
  }
  for (const std::string& name : report.missing) {
    out << "note: baseline benchmark '" << name
        << "' absent from candidate\n";
  }
  for (const std::string& name : report.added) {
    out << "note: new benchmark '" << name << "' (no baseline)\n";
  }
  std::snprintf(line, sizeof line, "threshold: ratio <= %.3f\n",
                1.0 + options.threshold);
  out << line;
}

}  // namespace

CompareStatus compare_files(const std::string& baseline_path,
                            const std::string& candidate_path,
                            const CompareOptions& options, std::ostream& out) {
  PerfArtifact baseline;
  PerfArtifact candidate;
  try {
    baseline = read_artifact(baseline_path);
    candidate = read_artifact(candidate_path);
  } catch (const std::exception& e) {
    out << "error: " << e.what() << "\n";
    return CompareStatus::kError;
  }
  const CompareReport report = compare(baseline, candidate, options);
  if (report.status == CompareStatus::kError) {
    out << "error: " << report.error << "\n";
    return report.status;
  }
  print_report(report, options, out);
  out << (report.status == CompareStatus::kRegression
              ? "RESULT: regression\n"
              : "RESULT: ok\n");
  return report.status;
}

}  // namespace melody::perf
