// The one JSON codec (util/json): byte-pinned number and string output
// through every writer that uses it (wire lines, obs event and registry
// lines), bit-exact double round trips, the RFC 8259 number grammar as seen
// through both readers (parse_wire and the perf-artifact reader), and a
// deterministic mutation pass over the parser: every mutant of a real
// document either parses into a format/parse fixed point or throws the
// codec's one error type.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/sink.h"
#include "perf/artifact.h"
#include "svc/config.h"
#include "svc/protocol.h"
#include "svc/trace_log.h"
#include "svc/wire.h"
#include "util/json.h"
#include "util/rng.h"
#include "wire_corpus.h"

namespace melody {
namespace {

using util::json::ParseError;
using util::json::Value;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTwo53 = 9007199254740992.0;

std::string number_text(double v) {
  std::string out;
  util::json::write_number(out, v);
  return out;
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// ------------------------------------------------------------ byte pinning

TEST(JsonNumbers, OneRuleForEveryValueClass) {
  EXPECT_EQ(number_text(7.0), "7");
  EXPECT_EQ(number_text(-42.0), "-42");
  EXPECT_EQ(number_text(0.1), "0.10000000000000001");
  EXPECT_EQ(number_text(kTwo53 - 1), "9007199254740991");
  EXPECT_EQ(number_text(kTwo53), "9007199254740992");  // %.17g from here on
  EXPECT_EQ(number_text(1e20), "1e+20");
  EXPECT_EQ(number_text(-0.0), "0");
  EXPECT_EQ(number_text(kNaN), "null");
  EXPECT_EQ(number_text(kInf), "null");
  EXPECT_EQ(number_text(-kInf), "null");
}

TEST(JsonStrings, ControlBytesEscapeAndUtf8PassesThrough) {
  std::string out;
  util::json::write_string(out, "a\x1f\"\\\n\t\r\x01 \xc3\xa9");
  EXPECT_EQ(out, "\"a\\u001f\\\"\\\\\\n\\t\\r\\u0001 \xc3\xa9\"");
  EXPECT_EQ(util::json::parse(out).as_string(),
            "a\x1f\"\\\n\t\r\x01 \xc3\xa9");
}

TEST(JsonNumbers, WireLineIsPinnedAndReparses) {
  svc::WireObject object;
  object.set("int", svc::WireValue::of(7.0));
  object.set("tenth", svc::WireValue::of(0.1));
  object.set("two53", svc::WireValue::of(kTwo53));
  object.set("big", svc::WireValue::of(1e20));
  object.set("negzero", svc::WireValue::of(-0.0));
  object.set("nan", svc::WireValue::of(kNaN));
  object.set("inf", svc::WireValue::of(kInf));
  object.set("list", svc::WireValue::of(std::vector<double>{1.0, 0.5, -kInf}));
  object.set("text", svc::WireValue::of("x\x1fy"));
  const std::string line = svc::format_wire(object);
  EXPECT_EQ(line,
            "{\"int\":7,\"tenth\":0.10000000000000001,"
            "\"two53\":9007199254740992,\"big\":1e+20,\"negzero\":0,"
            "\"nan\":null,\"inf\":null,\"list\":[1,0.5,null],"
            "\"text\":\"x\\u001fy\"}");
  // A non-finite field used to print as nan/inf, which the wire parser then
  // rejected; as null the line is valid JSON again.
  const svc::WireObject back = svc::parse_wire("{\"int\":7,\"nan\":null}");
  EXPECT_EQ(back.number("int"), 7.0);
  EXPECT_TRUE(back.find("nan")->is_null());
  EXPECT_NO_THROW(
      svc::parse_wire(R"({"nan":null,"inf":null,"text":"x\u001fy"})"));
}

TEST(JsonNumbers, ObsEventAndRegistryLinesArePinned) {
  std::ostringstream events;
  obs::JsonLinesSink sink(events);
  sink.event("probe", std::vector<obs::Field>{{"int", 7.0},
                                              {"tenth", 0.1},
                                              {"two53", kTwo53},
                                              {"big", 1e20},
                                              {"negzero", -0.0},
                                              {"nan", kNaN},
                                              {"inf", -kInf},
                                              {"count", 3},
                                              {"text", "x\x1fy"}});
  EXPECT_EQ(events.str(),
            "{\"type\":\"event\",\"name\":\"probe\",\"int\":7,"
            "\"tenth\":0.10000000000000001,\"two53\":9007199254740992,"
            "\"big\":1e+20,\"negzero\":0,\"nan\":null,\"inf\":null,"
            "\"count\":3,\"text\":\"x\\u001fy\"}\n");

  obs::MetricsRegistry registry;
  registry.gauge("g\x1f").set(0.1);
  registry.gauge("nan").set(kNaN);
  registry.counter("c").add(13);
  std::ostringstream dump;
  registry.write_json(dump);
  EXPECT_EQ(dump.str(),
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":13}\n"
            "{\"type\":\"gauge\",\"name\":\"g\\u001f\","
            "\"value\":0.10000000000000001}\n"
            "{\"type\":\"gauge\",\"name\":\"nan\",\"value\":null}\n");
}

TEST(JsonNumbers, EveryFiniteDoubleRoundTripsBitForBit) {
  std::vector<double> values = {
      0.0,
      0.1,
      1.0 / 3.0,
      kTwo53 - 1,
      kTwo53,
      kTwo53 + 2,
      1e20,
      -1e-300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::epsilon(),
  };
  util::Rng rng(20170605);
  while (values.size() < 20000) {
    double v = 0.0;
    const std::uint64_t bits = rng();
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v) && bits_of(v) != bits_of(-0.0)) values.push_back(v);
  }
  for (const double v : values) {
    const std::string text = number_text(v);
    const Value parsed = util::json::parse(text);
    ASSERT_TRUE(parsed.is_number()) << text;
    ASSERT_EQ(bits_of(parsed.as_number()), bits_of(v)) << text;
    // And through a wire line, the path a client sees.
    svc::WireObject object;
    object.set("v", svc::WireValue::of(v));
    ASSERT_EQ(bits_of(svc::parse_wire(svc::format_wire(object)).number("v")),
              bits_of(v))
        << text;
  }
}

// ------------------------------------------------------------- the grammar

struct GrammarCase {
  const char* token;
  bool accepted;
  double value;
};

const GrammarCase kGrammar[] = {
    {"0x10", false, 0},  {"-0x1p3", false, 0}, {"01", false, 0},
    {".5", false, 0},    {"1.", false, 0},     {"+1", false, 0},
    {"-", false, 0},     {"1e", false, 0},     {"inf", false, 0},
    {"nan", false, 0},   {"1e999", false, 0},  {"-0", true, -0.0},
    {"0.5", true, 0.5},  {"1e-5", true, 1e-5}, {"1E+2", true, 100.0},
};

TEST(JsonGrammar, WireParserAcceptsExactlyRfc8259Numbers) {
  for (const GrammarCase& c : kGrammar) {
    const std::string line = std::string("{\"v\":") + c.token + "}";
    if (c.accepted) {
      EXPECT_EQ(svc::parse_wire(line).number("v"), c.value) << c.token;
    } else {
      EXPECT_THROW(svc::parse_wire(line), svc::WireError) << c.token;
    }
  }
}

TEST(JsonGrammar, ArtifactReaderAcceptsExactlyRfc8259Numbers) {
  perf::PerfArtifact artifact;
  artifact.date = "2026-08-07";
  artifact.git_sha = "abc1234";
  artifact.repeats = 1;
  perf::BenchmarkResult bench;
  bench.name = "probe";
  bench.repeats = 1;
  bench.wall_ms = {1.0};
  bench.cpu_ms = {1.0};
  bench.median_wall_ms = 1.0;
  bench.median_cpu_ms = 1.0;
  bench.counters = {{"probe", 2.0}};
  artifact.benchmarks.push_back(bench);
  const std::string text = util::json::write_pretty(perf::to_json(artifact));
  const std::string slot = "\"probe\": 2";
  const auto at = text.find(slot);
  ASSERT_NE(at, std::string::npos) << text;

  for (const GrammarCase& c : kGrammar) {
    const std::string mutated = text.substr(0, at) + "\"probe\": " + c.token +
                                text.substr(at + slot.size());
    if (c.accepted) {
      EXPECT_EQ(perf::parse_artifact(mutated)
                    .benchmarks[0]
                    .counter_or("probe", 1234.0),
                c.value)
          << c.token;
      continue;
    }
    try {
      perf::parse_artifact(mutated);
      ADD_FAILURE() << c.token << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("JSON parse error"),
                std::string::npos)
          << c.token << ": " << e.what();
    }
  }
}

TEST(JsonGrammar, ArtifactWriterRefusesNonFiniteNumbers) {
  perf::PerfArtifact artifact;
  perf::BenchmarkResult bench;
  bench.counters = {{"speedup", kNaN}};
  artifact.benchmarks.push_back(bench);
  EXPECT_THROW(perf::to_json(artifact), std::runtime_error);
}

TEST(JsonGrammar, StructuralErrorsCarryTheOffset) {
  const struct {
    const char* text;
    std::size_t offset;
  } cases[] = {
      {"", 0},           {"{", 1},           {"{\"a\" 1}", 5},
      {"[1,]", 3},       {"[1 2]", 3},       {"{\"a\":1}x", 7},
      {"\"a\tb\"", 2},   {"\"\\q\"", 2},     {"\"\\u00e9\"", 1},
      {"\"abc", 4},      {"tru", 0},         {"{\"a\":01}", 6},
  };
  for (const auto& c : cases) {
    try {
      util::json::parse(c.text);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.offset(), c.offset) << c.text << ": " << e.what();
    }
  }
  std::string deep(100, '[');
  EXPECT_THROW(util::json::parse(deep + std::string(100, ']')), ParseError);
  EXPECT_NO_THROW(
      util::json::parse(std::string(64, '[') + std::string(64, ']')));
}

TEST(JsonGrammar, WireRejectsWhatIsNotAFlatObject) {
  for (const char* line : {"[1]", "7", "{\"a\":{}}", "{\"a\":[1,\"x\"]}",
                           "{\"a\":[[1]]}"}) {
    EXPECT_THROW(svc::parse_wire(line), svc::WireError) << line;
  }
  EXPECT_NO_THROW(svc::parse_wire("{\"a\":[],\"b\":null}"));
}

// ----------------------------------------------------------- hostile bytes

std::vector<std::string> fuzz_corpus() {
  std::vector<std::string> corpus;
  for (const svc::Request& request : svc::every_op_request()) {
    corpus.push_back(svc::format_request(request));
  }
  svc::Response ok = svc::Response::success(41);
  ok.fields.set("run", svc::WireValue::of(std::int64_t{7}));
  ok.fields.set("estimation_error", svc::WireValue::of(1.8656653187601029));
  ok.fields.set("scores", svc::WireValue::of(std::vector<double>{6.5, -1.0}));
  ok.fields.set("finished", svc::WireValue::of(false));
  for (const svc::Response& reply :
       {ok, svc::Response::failure(3, "wire: bad number at offset 5"),
        svc::Response::overloaded(42, 1280),
        svc::Response::unsupported_op(8, "frobnicate"),
        svc::Response::unknown_worker(9, "w404"),
        svc::Response::not_owner(10, 3, 2)}) {
    corpus.push_back(svc::format_response(reply));
  }
  std::ostringstream trace;
  {
    svc::TraceRecorder recorder(trace);
    recorder.begin_session(svc::ServiceConfig{});
  }
  corpus.push_back(trace.str().substr(0, trace.str().find('\n')));
  std::ifstream baseline(MELODY_SOURCE_DIR "/BENCH_quick_baseline.json");
  std::ostringstream text;
  text << baseline.rdbuf();
  corpus.push_back(text.str());
  return corpus;
}

std::string mutate(const std::string& seed, util::Rng& rng) {
  std::string s = seed;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.bounded(n));
  };
  // JSON's structural bytes are the interesting substitutions; random bytes
  // cover the rest.
  static constexpr char kBytes[] = "{}[]\":,\\-+.0123456789eEntfu \t\r\n";
  const auto byte = [&]() -> char {
    return rng.bernoulli(0.5) ? kBytes[pick(sizeof kBytes - 1)]
                              : static_cast<char>(rng.bounded(256));
  };
  const int edits = 1 + static_cast<int>(rng.bounded(4));
  for (int e = 0; e < edits; ++e) {
    switch (rng.bounded(4)) {
      case 0:  // flip
        if (!s.empty()) s[pick(s.size())] = byte();
        break;
      case 1:  // insert
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size() + 1)),
                 byte());
        break;
      case 2:  // delete
        if (!s.empty()) s.erase(pick(s.size()), 1);
        break;
      default:  // truncate
        s.resize(pick(s.size() + 1));
        break;
    }
  }
  return s;
}

TEST(JsonFuzz, MutantsParseToAFixedPointOrThrowTheCodecError) {
  const std::vector<std::string> corpus = fuzz_corpus();
  ASSERT_EQ(corpus.size(), svc::every_op_request().size() + 6 + 2);
  for (const std::string& seed : corpus) {
    ASSERT_NO_THROW(util::json::parse(seed)) << seed.substr(0, 80);
  }
  // A fixed budget, not a clock: the same mutants run everywhere. Sized for
  // about a second in the sanitizer build.
  constexpr int kIterations = 7000;
  util::Rng rng(0x4a534f4e);
  std::size_t parsed = 0, wire_parsed = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string& seed =
        corpus[static_cast<std::size_t>(i) % corpus.size()];
    const std::string mutant = mutate(seed, rng);
    // Only the mutant's own parse may throw; the round trip of anything
    // that parsed must not, so it runs outside the try.
    std::optional<Value> value;
    try {
      value = util::json::parse(mutant);
    } catch (const ParseError&) {
    }
    if (value) {
      ++parsed;
      const std::string compact = util::json::write(*value);
      const Value again = util::json::parse(compact);
      ASSERT_EQ(again, *value) << mutant;
      ASSERT_EQ(util::json::write(again), compact) << mutant;
      ASSERT_EQ(util::json::parse(util::json::write_pretty(*value)), *value)
          << mutant;
    }
    std::optional<svc::WireObject> object;
    try {
      object = svc::parse_wire(mutant);
    } catch (const svc::WireError&) {
    }
    if (object) {
      ++wire_parsed;
      const std::string line = svc::format_wire(*object);
      ASSERT_EQ(svc::format_wire(svc::parse_wire(line)), line) << mutant;
    }
  }
  // The pass must exercise both outcomes, or it tests nothing.
  EXPECT_GT(parsed, static_cast<std::size_t>(kIterations) / 20);
  EXPECT_LT(parsed, static_cast<std::size_t>(kIterations));
  EXPECT_GT(wire_parsed, 0u);
}

}  // namespace
}  // namespace melody
