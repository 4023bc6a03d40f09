#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace e2ebench {

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double iqr(const std::vector<double>& values) {
  return quantile(values, 0.75) - quantile(values, 0.25);
}

double peak_rss_mb() {
  // VmHWM restarts at exec; getrusage's ru_maxrss would also count the
  // parent process image the benchmark was forked from.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // KiB
    }
  }
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

int units_for(int seconds, double per_second, int at_least) {
  return std::max(at_least, static_cast<int>(std::lround(seconds * per_second)));
}

void Ledger::print_and_check() const {
  double sum = 0.0;
  std::printf("ledger %s (%s)\n", title.c_str(), unit.c_str());
  for (const auto& [name, value] : parts) {
    std::printf("  part  %-28s %14.6f  %5.1f%%\n", name.c_str(), value,
                whole > 0.0 ? 100.0 * value / whole : 0.0);
    sum += value;
  }
  std::printf("  sum   %-28s %14.6f  %5.1f%%\n", "(parts)", sum,
              whole > 0.0 ? 100.0 * sum / whole : 0.0);
  std::printf("  whole %-28s %14.6f\n", "", whole);
  std::printf("  unexplained remainder          %14.6f  %5.1f%%\n",
              whole - sum, whole > 0.0 ? 100.0 * (whole - sum) / whole : 0.0);
  if (tolerance > 0.0) {
    std::printf("  allowed excess (spread)        %14.6f\n", tolerance);
  }
  if (!(sum <= whole + tolerance)) {
    throw CheckFailure("ledger " + title + ": parts exceed the whole");
  }
}

}  // namespace e2ebench
