// Shared plumbing of the end-to-end benchmark: the run arguments, the
// result every workload returns, timing and order statistics, and the
// per-layer ledger printed by the traced pass.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

namespace e2ebench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Per-run scratch directory (created and removed by the caller).
  std::string workdir;
};

/// Thrown by an output check; the run then exits 1 without a result line.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What one workload run reports. `attempted` counts every request or
/// operation the run issued; `failed` those that did not succeed. Metric
/// names and units are declared once, in main.cc.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// Busy-thread budget and the run record fields a workload contributes.
struct Shape {
  int busy_threads = 1;
  int pool_threads = 1;
  int shards = 0;
  int connections = 0;
  int window = 0;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ms_since(Clock::time_point start) {
  return seconds_since(start) * 1e3;
}

/// Median of `values` (copied); 0 for an empty set.
double median(std::vector<double> values);

/// The q-quantile (0..1) by linear interpolation between order statistics.
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process so far, in MB (10^6 bytes).
double peak_rss_mb();

/// An output stream buffer that counts and discards its bytes, so a save
/// is sized, or timed as serialization alone, without buffer growth or
/// file writes.
class CountingBuf final : public std::streambuf {
 public:
  std::size_t bytes = 0;

 protected:
  int_type overflow(int_type c) override {
    ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::size_t>(n);
    return n;
  }
};

/// CPUs this process may run on (what `nproc` prints).
int available_cpus();

/// How many units of fixed work a run of --seconds does: `per_second`
/// units per second, and never fewer than `at_least`. The count depends on
/// the arguments only, never on how fast the machine is, so every run of
/// one configuration does the same work.
int units_for(int seconds, double per_second, int at_least);

/// The distance between the first and third quartiles of `values`.
double iqr(const std::vector<double>& values);

/// The traced pass's reconciliation of one whole against its parts:
/// prints every part, the whole and the unexplained remainder, and throws
/// CheckFailure when the parts add up to more than the whole. Parts timed
/// inside the whole need no tolerance; parts timed by separate calls are
/// allowed to exceed the whole by the measured spread of the whole.
struct Ledger {
  std::string title;
  std::string unit;
  double whole = 0.0;
  std::vector<std::pair<std::string, double>> parts;
  double tolerance = 0.0;

  void print_and_check() const;
};

}  // namespace e2ebench
