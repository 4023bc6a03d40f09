#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/json.h"

namespace melody::obs {

void Summary::record(double x) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  if (count_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  if (ring_.size() < kRingCapacity) {
    ring_.push_back(x);
  } else {
    ring_[ring_next_] = x;
    ring_next_ = (ring_next_ + 1) % kRingCapacity;
  }
}

namespace {

// q-th quantile with linear interpolation over a sorted copy.
double ring_quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

Summary::Stats Summary::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.count = count_;
  if (count_ == 0) return s;
  s.mean = mean_;
  s.stddev = count_ > 1 ? std::sqrt(m2_ / static_cast<double>(count_)) : 0.0;
  s.min = min_;
  s.max = max_;
  s.sum = sum_;
  s.p50 = ring_quantile(ring_, 0.50);
  s.p90 = ring_quantile(ring_, 0.90);
  s.p99 = ring_quantile(ring_, 0.99);
  return s;
}

void Summary::reset() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  count_ = 0;
  mean_ = m2_ = min_ = max_ = sum_ = 0.0;
  ring_.clear();
  ring_next_ = 0;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Summary& MetricsRegistry::summary_impl(std::string_view name, bool is_timer) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = summaries_.find(name);
  if (it == summaries_.end()) {
    it = summaries_.emplace(std::string(name), std::make_unique<Summary>())
             .first;
    summary_is_timer_.emplace(std::string(name), is_timer);
  }
  return *it->second;
}

Summary& MetricsRegistry::summary(std::string_view name) {
  return summary_impl(name, /*is_timer=*/false);
}

Summary& MetricsRegistry::timer(std::string_view name) {
  return summary_impl(name, /*is_timer=*/true);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, summary] : summaries_) summary->reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->value()});
  }
  snap.summaries.reserve(summaries_.size());
  for (const auto& [name, summary] : summaries_) {
    const auto timer_it = summary_is_timer_.find(name);
    snap.summaries.push_back(
        {name, timer_it != summary_is_timer_.end() && timer_it->second,
         summary->stats()});
  }
  return snap;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  const MetricsSnapshot snap = snapshot();
  std::string text;
  const auto line = [&text](std::string_view type, std::string_view name) {
    text += "{\"type\":\"";
    text += type;
    text += "\",\"name\":";
    util::json::write_string(text, name);
  };
  const auto number = [&text](std::string_view key, double v) {
    text += ",\"";
    text += key;
    text += "\":";
    util::json::write_number(text, v);
  };
  for (const auto& c : snap.counters) {
    line("counter", c.name);
    text += ",\"value\":" + std::to_string(c.value) + "}\n";
  }
  for (const auto& g : snap.gauges) {
    line("gauge", g.name);
    number("value", g.value);
    text += "}\n";
  }
  for (const auto& s : snap.summaries) {
    line(s.is_timer ? "timer" : "summary", s.name);
    if (s.is_timer) text += ",\"unit\":\"seconds\"";
    text += ",\"count\":" + std::to_string(s.stats.count);
    number("mean", s.stats.mean);
    number("stddev", s.stats.stddev);
    number("min", s.stats.min);
    number("max", s.stats.max);
    number("sum", s.stats.sum);
    number("p50", s.stats.p50);
    number("p90", s.stats.p90);
    number("p99", s.stats.p99);
    text += "}\n";
  }
  out << text;
}

namespace {
std::atomic<bool> g_enabled{false};
}  // namespace

MetricsRegistry& registry() noexcept {
  // Leaked on purpose: instrumentation sites cache `static Counter&`
  // handles, which must outlive every static destructor that might run.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

Summary* timer_if_enabled(std::string_view name) {
  return enabled() ? &registry().timer(name) : nullptr;
}

Summary* summary_if_enabled(std::string_view name) {
  return enabled() ? &registry().summary(name) : nullptr;
}

}  // namespace melody::obs
