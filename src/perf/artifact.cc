#include "perf/artifact.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <stdexcept>

namespace melody::perf {

using util::json::Value;

namespace {

[[noreturn]] void schema_error(const std::string& path,
                               const std::string& what) {
  throw std::runtime_error("perf artifact: " + path + ": " + what);
}

Value number(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("perf artifact: non-finite number");
  }
  return Value::of(v);
}

Value map_to_json(const std::vector<std::pair<std::string, double>>& map) {
  Value obj = Value::object();
  for (const auto& [k, v] : map) obj.set(k, number(v));
  return obj;
}

}  // namespace

double BenchmarkResult::counter_or(const std::string& key,
                                   double fallback) const {
  for (const auto& [k, v] : counters) {
    if (k == key) return v;
  }
  return fallback;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    throw std::invalid_argument("perf::median: empty sample");
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

Value to_json(const PerfArtifact& artifact) {
  Value root = Value::object();
  root.set("schema_version",
           number(static_cast<double>(artifact.schema_version)));
  root.set("date", Value::of(artifact.date));
  root.set("git_sha", Value::of(artifact.git_sha));
  root.set("quick", Value::of(artifact.quick));
  root.set("threads", number(static_cast<double>(artifact.threads)));
  root.set("repeats", number(static_cast<double>(artifact.repeats)));
  Value benches = Value::array();
  for (const BenchmarkResult& b : artifact.benchmarks) {
    Value obj = Value::object();
    obj.set("name", Value::of(b.name));
    obj.set("repeats", number(static_cast<double>(b.repeats)));
    Value wall = Value::array();
    for (double v : b.wall_ms) wall.push_back(number(v));
    obj.set("wall_ms", std::move(wall));
    Value cpu = Value::array();
    for (double v : b.cpu_ms) cpu.push_back(number(v));
    obj.set("cpu_ms", std::move(cpu));
    obj.set("median_wall_ms", number(b.median_wall_ms));
    obj.set("median_cpu_ms", number(b.median_cpu_ms));
    obj.set("peak_rss_kb", number(static_cast<double>(b.peak_rss_kb)));
    obj.set("config", map_to_json(b.config));
    obj.set("counters", map_to_json(b.counters));
    Value phases = Value::array();
    for (const PhaseStats& p : b.phases) {
      Value pj = Value::object();
      pj.set("name", Value::of(p.name));
      pj.set("count", number(static_cast<double>(p.count)));
      pj.set("sum_ms", number(p.sum_ms));
      pj.set("p50_ms", number(p.p50_ms));
      pj.set("p90_ms", number(p.p90_ms));
      pj.set("p99_ms", number(p.p99_ms));
      phases.push_back(std::move(pj));
    }
    obj.set("phases", std::move(phases));
    benches.push_back(std::move(obj));
  }
  root.set("benchmarks", std::move(benches));
  return root;
}

void validate(const PerfArtifact& artifact) {
  if (artifact.schema_version != kArtifactSchemaVersion) {
    schema_error("$.schema_version",
                 "unsupported version " +
                     std::to_string(artifact.schema_version) + " (expected " +
                     std::to_string(kArtifactSchemaVersion) + ")");
  }
  if (artifact.date.empty()) schema_error("$.date", "must not be empty");
  if (artifact.git_sha.empty()) {
    schema_error("$.git_sha", "must not be empty");
  }
  if (artifact.threads < 1) schema_error("$.threads", "must be >= 1");
  if (artifact.repeats < 1) schema_error("$.repeats", "must be >= 1");
  if (artifact.benchmarks.empty()) {
    schema_error("$.benchmarks", "must not be empty");
  }
  std::set<std::string> names;
  for (std::size_t i = 0; i < artifact.benchmarks.size(); ++i) {
    const BenchmarkResult& b = artifact.benchmarks[i];
    const std::string path = "$.benchmarks[" + std::to_string(i) + "]";
    if (b.name.empty()) schema_error(path + ".name", "must not be empty");
    if (!names.insert(b.name).second) {
      schema_error(path + ".name", "duplicate benchmark '" + b.name + "'");
    }
    if (b.repeats < 1) schema_error(path + ".repeats", "must be >= 1");
    if (b.wall_ms.size() != static_cast<std::size_t>(b.repeats)) {
      schema_error(path + ".wall_ms", "length must equal repeats");
    }
    if (b.cpu_ms.size() != static_cast<std::size_t>(b.repeats)) {
      schema_error(path + ".cpu_ms", "length must equal repeats");
    }
    for (double v : b.wall_ms) {
      if (!std::isfinite(v) || v < 0.0) {
        schema_error(path + ".wall_ms",
                     "entries must be finite and non-negative");
      }
    }
    for (double v : b.cpu_ms) {
      if (!std::isfinite(v) || v < 0.0) {
        schema_error(path + ".cpu_ms",
                     "entries must be finite and non-negative");
      }
    }
    if (!std::is_sorted(b.wall_ms.begin(), b.wall_ms.end())) {
      schema_error(path + ".wall_ms", "must be sorted ascending");
    }
    if (b.median_wall_ms != median(b.wall_ms)) {
      schema_error(path + ".median_wall_ms",
                   "does not match the median of wall_ms");
    }
    if (b.median_cpu_ms != median(b.cpu_ms)) {
      schema_error(path + ".median_cpu_ms",
                   "does not match the median of cpu_ms");
    }
    if (b.peak_rss_kb < 0) {
      schema_error(path + ".peak_rss_kb", "must be non-negative");
    }
    for (std::size_t j = 0; j < b.phases.size(); ++j) {
      const PhaseStats& p = b.phases[j];
      const std::string ppath = path + ".phases[" + std::to_string(j) + "]";
      if (p.name.empty()) schema_error(ppath + ".name", "must not be empty");
      if (p.count < 0) schema_error(ppath + ".count", "must be >= 0");
      for (const auto& [label, v] :
           {std::pair<const char*, double>{"sum_ms", p.sum_ms},
            {"p50_ms", p.p50_ms},
            {"p90_ms", p.p90_ms},
            {"p99_ms", p.p99_ms}}) {
        if (!std::isfinite(v) || v < 0.0) {
          schema_error(ppath + "." + label,
                       "must be finite and non-negative");
        }
      }
    }
  }
}

void write_artifact(const PerfArtifact& artifact, const std::string& path) {
  validate(artifact);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("perf artifact: cannot write '" + path + "'");
  }
  out << util::json::write_pretty(to_json(artifact));
  out.flush();
  if (!out) {
    throw std::runtime_error("perf artifact: write failed for '" + path +
                             "'");
  }
}

}  // namespace melody::perf
