// Observability layer tests: metric correctness, handle stability, the
// enabled() gate, concurrent recording through the shared pool, and a full
// JSON-lines round-trip through a mini parser (events + registry dump).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "auction/melody_auction.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "sim/scenario.h"
#include "util/parallel_for.h"
#include "util/thread_pool.h"

namespace melody::obs {
namespace {

// ------------------------------------------------------------------ metrics

TEST(ObsCounter, AccumulatesAndResets) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsGauge, LastWriteWins) {
  Gauge gauge;
  gauge.set(1.5);
  gauge.set(-2.25);
  EXPECT_EQ(gauge.value(), -2.25);
}

TEST(ObsSummary, WelfordStatsAreExact) {
  Summary summary;
  for (double x : {1.0, 2.0, 3.0, 4.0}) summary.record(x);
  const auto stats = summary.stats();
  EXPECT_EQ(stats.count, 4u);
  EXPECT_DOUBLE_EQ(stats.mean, 2.5);
  EXPECT_DOUBLE_EQ(stats.stddev, std::sqrt(1.25));  // population stddev
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 4.0);
  EXPECT_DOUBLE_EQ(stats.sum, 10.0);
  EXPECT_GE(stats.p90, stats.p50);
  EXPECT_GE(stats.p99, stats.p90);
}

TEST(ObsSummary, PercentilesTrackTheRecentRingOnly) {
  Summary summary;
  // Fill the ring with large values, then overwrite it completely with
  // small ones: percentiles must follow the recent window while min/max
  // remember the full stream.
  for (std::size_t i = 0; i < Summary::kRingCapacity; ++i) {
    summary.record(1000.0);
  }
  for (std::size_t i = 0; i < Summary::kRingCapacity; ++i) {
    summary.record(1.0);
  }
  const auto stats = summary.stats();
  EXPECT_DOUBLE_EQ(stats.p50, 1.0);
  EXPECT_DOUBLE_EQ(stats.p99, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 1000.0);
  EXPECT_EQ(stats.count, 2 * Summary::kRingCapacity);
}

TEST(ObsScopedTimer, RecordsSecondsIntoSummary) {
  Summary summary;
  { ScopedTimer timer(&summary); }
  const auto stats = summary.stats();
  EXPECT_EQ(stats.count, 1u);
  EXPECT_GE(stats.min, 0.0);
}

TEST(ObsScopedTimer, NullSummaryIsANoop) {
  ScopedTimer timer(nullptr);  // must not crash or read the clock
}

// ----------------------------------------------------------------- registry

TEST(ObsRegistry, HandlesAreStableAcrossReset) {
  Counter& counter = registry().counter("test_obs/stable_counter");
  Summary& summary = registry().summary("test_obs/stable_summary");
  counter.add(7);
  summary.record(3.0);
  registry().reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(summary.stats().count, 0u);
  // Same name -> same object, and the old handle still records.
  EXPECT_EQ(&registry().counter("test_obs/stable_counter"), &counter);
  counter.add(1);
  EXPECT_EQ(registry().counter("test_obs/stable_counter").value(), 1u);
}

TEST(ObsRegistry, EnabledGateControlsTimerLookup) {
  ScopedEnable disable(false);
  EXPECT_EQ(timer_if_enabled("test_obs/gated"), nullptr);
  EXPECT_EQ(summary_if_enabled("test_obs/gated"), nullptr);
  {
    ScopedEnable enable(true);
    EXPECT_NE(timer_if_enabled("test_obs/gated"), nullptr);
    EXPECT_NE(summary_if_enabled("test_obs/gated"), nullptr);
  }
  EXPECT_EQ(timer_if_enabled("test_obs/gated"), nullptr);
}

TEST(ObsRegistry, SnapshotTagsTimersDistinctFromSummaries) {
  registry().timer("test_obs/a_timer").record(0.5);
  registry().summary("test_obs/a_value").record(0.5);
  const auto snapshot = registry().snapshot();
  bool saw_timer = false, saw_value = false;
  for (const auto& s : snapshot.summaries) {
    if (s.name == "test_obs/a_timer") {
      saw_timer = true;
      EXPECT_TRUE(s.is_timer);
    }
    if (s.name == "test_obs/a_value") {
      saw_value = true;
      EXPECT_FALSE(s.is_timer);
    }
  }
  EXPECT_TRUE(saw_timer);
  EXPECT_TRUE(saw_value);
}

TEST(ObsRegistry, ConcurrentRecordingUnderSharedPool) {
  util::set_shared_thread_count(8);
  Counter& counter = registry().counter("test_obs/concurrent_counter");
  Summary& summary = registry().summary("test_obs/concurrent_summary");
  counter.reset();
  summary.reset();
  constexpr std::size_t kItems = 20000;
  util::parallel_for(util::shared_pool(), kItems, [&](std::size_t i) {
    counter.add();
    summary.record(static_cast<double>(i % 10));
    // Lookup by name from pool threads must also be safe and return the
    // same handle.
    registry().counter("test_obs/concurrent_counter");
  });
  util::set_shared_thread_count(1);
  EXPECT_EQ(counter.value(), kItems);
  const auto stats = summary.stats();
  EXPECT_EQ(stats.count, kItems);
  // sum of (i % 10) over any 20000 consecutive i starting at 0: 2000 full
  // cycles of 0..9 = 2000 * 45.
  EXPECT_DOUBLE_EQ(stats.sum, 2000.0 * 45.0);
  EXPECT_DOUBLE_EQ(stats.min, 0.0);
  EXPECT_DOUBLE_EQ(stats.max, 9.0);
}

// ------------------------------------------------------- JSON-lines parsing

/// Minimal parser for the flat JSON objects the sink emits: string, number,
/// and null values only (no nesting — the format guarantees flatness).
/// Values are returned as raw text with strings unescaped.
std::map<std::string, std::string> parse_flat_json(const std::string& line) {
  std::map<std::string, std::string> out;
  std::size_t i = 0;
  const auto fail = [&](const char* what) {
    throw std::runtime_error(std::string(what) + " at offset " +
                             std::to_string(i) + " in: " + line);
  };
  const auto skip_space = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
  };
  const auto parse_string = [&]() -> std::string {
    if (line[i] != '"') fail("expected '\"'");
    ++i;
    std::string s;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        ++i;
        if (i >= line.size()) fail("bad escape");
        switch (line[i]) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'n': s += '\n'; break;
          case 't': s += '\t'; break;
          case 'r': s += '\r'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'u': {
            if (i + 4 >= line.size()) fail("bad \\u escape");
            s += static_cast<char>(
                std::stoi(line.substr(i + 1, 4), nullptr, 16));
            i += 4;
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        s += line[i];
      }
      ++i;
    }
    if (i >= line.size()) fail("unterminated string");
    ++i;  // closing quote
    return s;
  };
  skip_space();
  if (i >= line.size() || line[i] != '{') fail("expected '{'");
  ++i;
  skip_space();
  if (i < line.size() && line[i] == '}') return out;
  for (;;) {
    skip_space();
    const std::string key = parse_string();
    skip_space();
    if (i >= line.size() || line[i] != ':') fail("expected ':'");
    ++i;
    skip_space();
    std::string value;
    if (line[i] == '"') {
      value = parse_string();
    } else {
      const std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
      value = line.substr(start, i - start);
      while (!value.empty() && std::isspace(static_cast<unsigned char>(
                                   value.back()))) {
        value.pop_back();
      }
      if (value != "null" && value.find_first_not_of("+-0123456789.eE") !=
                                 std::string::npos) {
        fail("unquoted value is neither number nor null");
      }
    }
    out[key] = value;
    skip_space();
    if (i >= line.size()) fail("unterminated object");
    if (line[i] == '}') break;
    if (line[i] != ',') fail("expected ',' or '}'");
    ++i;
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(ObsJsonLines, EventRoundTripsThroughParser) {
  std::ostringstream out;
  JsonLinesSink sink(out);
  sink.event("test/event",
             std::vector<Field>{{"run", 7}, {"utility", 3.5},
                                {"label", "a \"quoted\"\nname"}});
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  const auto object = parse_flat_json(lines[0]);
  EXPECT_EQ(object.at("type"), "event");
  EXPECT_EQ(object.at("name"), "test/event");
  EXPECT_EQ(object.at("run"), "7");
  EXPECT_DOUBLE_EQ(std::stod(object.at("utility")), 3.5);
  EXPECT_EQ(object.at("label"), "a \"quoted\"\nname");
  EXPECT_EQ(sink.lines_written(), 1u);
}

TEST(ObsJsonLines, RegistryDumpRoundTripsThroughParser) {
  registry().counter("test_obs/json_counter").reset();
  registry().counter("test_obs/json_counter").add(13);
  registry().timer("test_obs/json_timer").reset();
  registry().timer("test_obs/json_timer").record(0.25);
  registry().timer("test_obs/json_timer").record(0.75);

  std::ostringstream out;
  JsonLinesSink sink(out);
  sink.append_registry(registry());

  bool saw_counter = false, saw_timer = false;
  for (const auto& line : split_lines(out.str())) {
    const auto object = parse_flat_json(line);  // every line must parse
    if (object.at("type") == "counter" &&
        object.at("name") == "test_obs/json_counter") {
      saw_counter = true;
      EXPECT_EQ(object.at("value"), "13");
    }
    if (object.at("type") == "timer" &&
        object.at("name") == "test_obs/json_timer") {
      saw_timer = true;
      EXPECT_EQ(object.at("unit"), "seconds");
      EXPECT_EQ(object.at("count"), "2");
      EXPECT_DOUBLE_EQ(std::stod(object.at("mean")), 0.5);
      EXPECT_DOUBLE_EQ(std::stod(object.at("sum")), 1.0);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_timer);
}

TEST(ObsJsonLines, NonFiniteValuesBecomeNull) {
  registry().gauge("test_obs/json_nan").set(
      std::numeric_limits<double>::quiet_NaN());
  std::ostringstream out;
  JsonLinesSink sink(out);
  sink.append_registry(registry());
  for (const auto& line : split_lines(out.str())) {
    const auto object = parse_flat_json(line);
    if (object.at("type") == "gauge" &&
        object.at("name") == "test_obs/json_nan") {
      EXPECT_EQ(object.at("value"), "null");
      return;
    }
  }
  FAIL() << "gauge test_obs/json_nan not found in registry dump";
}

// ---------------------------------------------------------- sinks + context

TEST(ObsSink, GlobalEmitIsDroppedWithoutASink) {
  ASSERT_EQ(sink(), nullptr);
  emit("test/dropped", {{"x", 1}});  // must be a safe no-op
}

TEST(ObsSink, ScopedSinkInstallsAndRestores) {
  std::ostringstream out;
  JsonLinesSink capture(out);
  {
    ScopedSink scoped(&capture);
    EXPECT_EQ(sink(), &capture);
    emit("test/captured", {{"x", 1}});
  }
  EXPECT_EQ(sink(), nullptr);
  emit("test/dropped", {{"x", 2}});
  EXPECT_EQ(capture.lines_written(), 1u);
  EXPECT_NE(out.str().find("test/captured"), std::string::npos);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  return split_lines(std::string(std::istreambuf_iterator<char>(in), {}));
}

TEST(ObsSink, MetricsFileAppendsTheRegistryOnceAndUninstalls) {
  const std::string path = "test_obs_metrics_file.jsonl";
  registry().counter("test_obs/metrics_file").reset();
  registry().counter("test_obs/metrics_file").add(5);
  std::size_t lines = 0;
  {
    MetricsFile file(path);
    EXPECT_NE(sink(), nullptr);
    EXPECT_TRUE(enabled());
    emit("test/metrics_file", {{"x", 1}});
    file.finish();
    EXPECT_EQ(sink(), nullptr);
    EXPECT_FALSE(enabled());
    emit("test/dropped", {{"x", 2}});
    lines = file.lines_written();
  }  // destroying a finished file appends nothing more
  const auto written = read_lines(path);
  std::remove(path.c_str());
  ASSERT_EQ(written.size(), lines);
  ASSERT_GT(lines, 1u);
  EXPECT_NE(written.front().find("test/metrics_file"), std::string::npos);
  int counters = 0;
  for (const auto& line : written) {
    EXPECT_EQ(line.find("test/dropped"), std::string::npos);
    const auto object = parse_flat_json(line);
    if (object.at("type") == "counter" &&
        object.at("name") == "test_obs/metrics_file") {
      ++counters;
      EXPECT_EQ(object.at("value"), "5");
    }
  }
  EXPECT_EQ(counters, 1);
}

TEST(ObsSink, MetricsFileFinishesOnDestructionAndThrowsOnABadPath) {
  const std::string path = "test_obs_metrics_file_dtor.jsonl";
  registry().counter("test_obs/metrics_file_dtor").reset();
  registry().counter("test_obs/metrics_file_dtor").add(2);
  { MetricsFile file(path); }
  EXPECT_EQ(sink(), nullptr);
  EXPECT_FALSE(enabled());
  const auto written = read_lines(path);
  std::remove(path.c_str());
  bool saw_counter = false;
  for (const auto& line : written) {
    saw_counter = saw_counter ||
                  line.find("test_obs/metrics_file_dtor") != std::string::npos;
  }
  EXPECT_TRUE(saw_counter);

  EXPECT_THROW(MetricsFile("no_such_dir_for_obs/m.jsonl"), std::runtime_error);
  EXPECT_EQ(sink(), nullptr);
  EXPECT_FALSE(enabled());
}

/// AuctionContext carries an explicit sink that overrides the global one;
/// with no explicit sink, ctx.emit falls through to the global sink.
TEST(ObsSink, AuctionContextRoutesEventsToItsSink) {
  sim::SraScenario scenario;
  scenario.num_workers = 30;
  scenario.num_tasks = 20;
  scenario.budget = 50.0;
  util::Rng rng(11);
  const auto workers = scenario.sample_workers(rng);
  const auto tasks = scenario.sample_tasks(rng);
  const auto config = scenario.auction_config();
  auction::MelodyAuction mechanism;

  std::ostringstream out;
  JsonLinesSink json(out);
  const auto context_result = mechanism.run(
      auction::AuctionContext{workers, tasks, config, &json});
  bool saw_result_event = false;
  for (const auto& line : split_lines(out.str())) {
    const auto object = parse_flat_json(line);
    if (object.at("type") == "event" &&
        object.at("name") == "auction/result") {
      saw_result_event = true;
      EXPECT_EQ(object.at("mechanism"), "MELODY");
      EXPECT_EQ(object.at("assignments"),
                std::to_string(context_result.assignments.size()));
    }
  }
  EXPECT_TRUE(saw_result_event);

  // A minimal context (no sink, run 0, no fault plan) must produce the
  // identical allocation: the optional fields are provenance only.
  const auto minimal_result = mechanism.run({workers, tasks, config});
  ASSERT_EQ(minimal_result.assignments.size(),
            context_result.assignments.size());
  for (std::size_t a = 0; a < minimal_result.assignments.size(); ++a) {
    EXPECT_EQ(minimal_result.assignments[a].worker,
              context_result.assignments[a].worker);
    EXPECT_EQ(minimal_result.assignments[a].task,
              context_result.assignments[a].task);
    EXPECT_EQ(minimal_result.assignments[a].payment,
              context_result.assignments[a].payment);
  }
}

}  // namespace
}  // namespace melody::obs
