// Request tracing + wire-trace record/replay (obs/trace.h, svc/trace_log.h,
// svc/replay.h): span identity and nesting through the thread-local context
// slot, the tracing-off cost gate (no events, no context writes), the
// MLDYTRC recorder round-trip and atomic tmp+rename publish, the stdio
// record -> replay zero-diff contract, field-level divergence reporting
// with frame index + field path, the volatile-field mask, and the per-shard
// stats/trace_status namespacing (K=1 byte-identity preserved, K>1 gains
// "shard<k>/..." views plus merged totals).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "svc/config.h"
#include "svc/frame.h"
#include "svc/loadgen.h"
#include "svc/protocol.h"
#include "svc/replay.h"
#include "svc/router.h"
#include "svc/trace_log.h"

namespace melody::svc {
namespace {

// ------------------------------------------------------------ test rig ----

/// In-memory event capture: names plus typed fields, copied out of the
/// emit() call (Field values are views that die with the call).
class CaptureSink final : public obs::Sink {
 public:
  struct Event {
    std::string name;
    std::map<std::string, std::int64_t> ints;
    std::map<std::string, double> doubles;
    std::map<std::string, std::string> strings;
  };

  void event(std::string_view name,
             std::span<const obs::Field> fields) override {
    Event e;
    e.name = std::string(name);
    for (const obs::Field& f : fields) {
      switch (f.kind) {
        case obs::Field::Kind::kInt:
          e.ints[std::string(f.key)] = f.integer;
          break;
        case obs::Field::Kind::kDouble:
          e.doubles[std::string(f.key)] = f.num;
          break;
        case obs::Field::Kind::kString:
          e.strings[std::string(f.key)] = std::string(f.text);
          break;
      }
    }
    events.push_back(std::move(e));
  }

  std::vector<Event> events;
};

ServiceConfig trace_config(int shards) {
  ServiceConfig config;
  config.scenario.num_workers = 42;
  config.scenario.num_tasks = 30;
  config.scenario.runs = 16;
  config.scenario.budget = 120.0;
  config.seed = 2017;
  config.manual_clock = true;
  config.shards = shards;
  return config;
}

Request bid_for(int worker, std::int64_t id) {
  Request r;
  r.op = Op::kSubmitBid;
  r.id = id;
  r.worker = "w" + std::to_string(worker);
  return r;
}

/// hello + `rounds` full participation rounds (one run per shard per round
/// with default batch triggers) + a trailing introspection op.
std::string session_stream(int rounds, Op tail_op) {
  std::ostringstream stream;
  std::int64_t next_id = 1;
  Request hello;
  hello.op = Op::kHello;
  hello.id = next_id++;
  stream << format_request(hello) << "\n";
  for (int round = 0; round < rounds; ++round) {
    for (int w = 0; w < 42; ++w) {
      stream << format_request(bid_for(w, next_id++)) << "\n";
    }
  }
  Request tail;
  tail.op = tail_op;
  tail.id = next_id++;
  stream << format_request(tail) << "\n";
  return stream.str();
}

/// Record one stdio session of `input` against a fresh service.
TraceFile record_session(const std::string& input,
                         const ServiceConfig& config) {
  std::ostringstream trace_bytes;
  {
    ShardedService service(config);
    TraceRecorder recorder(trace_bytes);
    std::istringstream in(input);
    std::ostringstream out;
    run_stdio_session(service, in, out, &recorder);
    recorder.finish();
  }
  std::istringstream reread(trace_bytes.str());
  return parse_trace(reread);
}

TraceFile record_session(const std::string& input, int shards) {
  return record_session(input, trace_config(shards));
}

Response stdio_response_for(const std::string& input, int shards, Op op) {
  ShardedService service(trace_config(shards));
  std::istringstream in(input);
  std::ostringstream out;
  run_stdio_session(service, in, out);
  std::istringstream lines(out.str());
  std::string line;
  Response match;
  bool found = false;
  while (std::getline(lines, line)) {
    const Response response = parse_response(line);
    // The tail introspection op carries the highest id in the stream.
    if (!found || response.id > match.id) match = response;
    found = true;
  }
  EXPECT_TRUE(found);
  (void)op;
  return match;
}

// ----------------------------------------------------------- trace ids ----

TEST(TraceIds, MintIsDeterministicDecodableAndNeverZero) {
  EXPECT_EQ(obs::mint_trace_id(0, 0), 1u);
  EXPECT_EQ(obs::mint_trace_id(1, 0), (1ull << 24) + 1u);
  EXPECT_EQ(obs::mint_trace_id(3, 7), (3ull << 24) + 8u);
  // Same frame -> same id (two recordings of one session agree).
  EXPECT_EQ(obs::mint_trace_id(5, 9), obs::mint_trace_id(5, 9));
  // Distinct frames -> distinct ids within a session's plausible range.
  EXPECT_NE(obs::mint_trace_id(1, 2), obs::mint_trace_id(2, 1));
}

TEST(TraceIds, SpanIdsAreUniqueAndMonotone) {
  const std::uint64_t a = obs::next_span_id();
  const std::uint64_t b = obs::next_span_id();
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, a);
}

// ----------------------------------------------------- context + spans ----

TEST(TraceContext, ScopedInstallRestoresPreviousContext) {
  ASSERT_FALSE(obs::current_trace().active());
  obs::TraceContext root;
  root.trace_id = obs::mint_trace_id(9, 0);
  root.span_id = obs::next_span_id();
  {
    obs::ScopedTraceContext install(root);
    EXPECT_EQ(obs::current_trace().trace_id, root.trace_id);
    EXPECT_EQ(obs::current_trace().span_id, root.span_id);
    {
      obs::TraceContext child = root;
      child.parent_span_id = root.span_id;
      child.span_id = obs::next_span_id();
      obs::ScopedTraceContext nested(child);
      EXPECT_EQ(obs::current_trace().span_id, child.span_id);
    }
    EXPECT_EQ(obs::current_trace().span_id, root.span_id);
  }
  EXPECT_FALSE(obs::current_trace().active());
}

TEST(TraceContext, InactiveContextInstallIsANoOp) {
  obs::ScopedTraceContext install(obs::TraceContext{});
  EXPECT_FALSE(obs::current_trace().active());
}

TEST(ScopedSpan, EmitsOneEventWithIdsTimingAndAnnotations) {
  obs::ScopedEnable enable(true);
  CaptureSink capture;
  obs::ScopedSink scoped(&capture);

  obs::TraceContext root;
  root.trace_id = obs::mint_trace_id(2, 5);
  root.span_id = obs::next_span_id();
  std::uint64_t span_id = 0;
  {
    obs::ScopedSpan span("test/phase", root);
    ASSERT_TRUE(span.active());
    span_id = span.context().span_id;
    EXPECT_EQ(span.context().trace_id, root.trace_id);
    EXPECT_EQ(span.context().parent_span_id, root.span_id);
    span.annotate("run", std::int64_t{17});
    span.annotate("budget", 120.5);
    span.annotate("op", std::string_view("submit_bid"));
  }
  ASSERT_EQ(capture.events.size(), 1u);
  const CaptureSink::Event& event = capture.events.front();
  EXPECT_EQ(event.name, "test/phase");
  EXPECT_EQ(event.ints.at("trace"),
            static_cast<std::int64_t>(root.trace_id));
  EXPECT_EQ(event.ints.at("span"), static_cast<std::int64_t>(span_id));
  EXPECT_EQ(event.ints.at("parent"),
            static_cast<std::int64_t>(root.span_id));
  EXPECT_GE(event.doubles.count("us"), 1u);  // monotonic delta; value is env
  EXPECT_EQ(event.ints.at("run"), 17);
  EXPECT_DOUBLE_EQ(event.doubles.at("budget"), 120.5);
  EXPECT_EQ(event.strings.at("op"), "submit_bid");
}

TEST(ScopedSpan, NestsAutomaticallyThroughTheThreadLocalSlot) {
  obs::ScopedEnable enable(true);
  CaptureSink capture;
  obs::ScopedSink scoped(&capture);

  obs::TraceContext root;
  root.trace_id = obs::mint_trace_id(4, 0);
  root.span_id = obs::next_span_id();
  obs::ScopedTraceContext install(root);
  std::uint64_t outer_id = 0;
  {
    obs::ScopedSpan outer("test/outer");
    outer_id = outer.context().span_id;
    obs::ScopedSpan inner("test/inner");  // no explicit parent
    EXPECT_EQ(inner.context().trace_id, root.trace_id);
    EXPECT_EQ(inner.context().parent_span_id, outer_id);
  }
  ASSERT_EQ(capture.events.size(), 2u);  // inner closes first
  EXPECT_EQ(capture.events[0].name, "test/inner");
  EXPECT_EQ(capture.events[0].ints.at("parent"),
            static_cast<std::int64_t>(outer_id));
  EXPECT_EQ(capture.events[1].name, "test/outer");
  EXPECT_EQ(capture.events[1].ints.at("parent"),
            static_cast<std::int64_t>(root.span_id));
}

TEST(ScopedSpan, InertWhenTracingIsDisabled) {
  obs::ScopedEnable enable(false);
  CaptureSink capture;
  obs::ScopedSink scoped(&capture);
  obs::TraceContext root;
  root.trace_id = obs::mint_trace_id(1, 1);
  root.span_id = obs::next_span_id();
  const std::uint64_t emitted_before = obs::spans_emitted();
  {
    obs::ScopedSpan span("test/dark", root);
    EXPECT_FALSE(span.active());
    span.annotate("run", 3);  // dropped, not recorded
  }
  EXPECT_TRUE(capture.events.empty());
  EXPECT_EQ(obs::spans_emitted(), emitted_before);
}

TEST(ScopedSpan, InertUnderAnInactiveParent) {
  obs::ScopedEnable enable(true);
  CaptureSink capture;
  obs::ScopedSink scoped(&capture);
  {
    obs::ScopedSpan span("test/orphan");  // thread has no active context
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(capture.events.empty());
}

// ------------------------------------------------------------- recorder --

TEST(TraceRecorder, RoundTripsHeaderAndFramesThroughTheWireCodec) {
  std::ostringstream bytes;
  TraceRecorder recorder(bytes);
  ServiceConfig config = trace_config(2);
  config.faults = sim::FaultPlan::parse("no-show=0.05,drop=0.1");
  recorder.begin_session(config);
  recorder.record_in(1, 0, R"({"op":"hello","id":1})", kShardBroadcast, 17);
  recorder.record_out(1, 0, R"({"ok":true,"id":1})");
  recorder.record_in(1, 1, "not json at all", kShardNone, 0);
  EXPECT_EQ(recorder.frames(), 3u);
  recorder.finish();

  std::istringstream reread(bytes.str());
  const TraceFile trace = parse_trace(reread);
  EXPECT_EQ(trace.header.number("version"), 2.0);
  EXPECT_EQ(trace.header.text("magic"), "MLDYTRC");
  EXPECT_EQ(trace.header.number("proto"), static_cast<double>(kProtoVersion));
  // Every other header key is one ServiceConfig::to_flags() entry.
  EXPECT_EQ(trace.header.text("shards"), "2");
  EXPECT_EQ(trace.header.text("workers"), "42");
  EXPECT_EQ(trace.header.text("manual-clock"), "true");
  EXPECT_EQ(sim::FaultPlan::parse(trace.header.text("faults")),
            config.faults);
  EXPECT_EQ(trace.header.entries().size(), 3 + config.to_flags().size());

  ASSERT_EQ(trace.frames.size(), 3u);
  EXPECT_EQ(trace.frames[0].dir, TraceFrame::Dir::kIn);
  EXPECT_EQ(trace.frames[0].conn, 1u);
  EXPECT_EQ(trace.frames[0].seq, 0u);
  EXPECT_EQ(trace.frames[0].shard, kShardBroadcast);
  EXPECT_EQ(trace.frames[0].span, 17u);
  EXPECT_EQ(trace.frames[0].line, R"({"op":"hello","id":1})");
  EXPECT_EQ(trace.frames[1].dir, TraceFrame::Dir::kOut);
  EXPECT_EQ(trace.frames[1].line, R"({"ok":true,"id":1})");
  // Raw bytes survive even when the frame itself is not valid JSON.
  EXPECT_EQ(trace.frames[2].line, "not json at all");
  EXPECT_EQ(trace.frames[2].shard, kShardNone);
}

TEST(TraceRecorder, PublishesAtomicallyViaTmpAndRename) {
  const std::string path =
      testing::TempDir() + "trace_recorder_atomic.trc";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());
  {
    TraceRecorder recorder(path);
    recorder.begin_session(trace_config(1));
    recorder.record_in(1, 0, R"({"op":"hello","id":1})", kShardBroadcast, 0);
    // Mid-session: only the temporary exists — a crash here never leaves a
    // half-trace behind the real name.
    EXPECT_FALSE(std::ifstream(path).good());
    EXPECT_TRUE(std::ifstream(tmp).good());
    recorder.finish();
    EXPECT_TRUE(std::ifstream(path).good());
    EXPECT_FALSE(std::ifstream(tmp).good());
    recorder.finish();  // idempotent
  }
  const TraceFile trace = read_trace(path);
  EXPECT_EQ(trace.frames.size(), 1u);
  std::remove(path.c_str());
}

TEST(TraceRecorder, ParseRejectsMissingOrWrongHeader) {
  std::istringstream no_header(
      R"({"dir":"in","conn":1,"seq":0,"frame":"x"})" "\n");
  EXPECT_THROW(parse_trace(no_header), std::runtime_error);
  std::istringstream wrong_magic(
      R"({"magic":"NOTATRACE","version":1})" "\n");
  EXPECT_THROW(parse_trace(wrong_magic), std::runtime_error);
  std::istringstream future_version(
      R"({"magic":"MLDYTRC","version":99})" "\n");
  EXPECT_THROW(parse_trace(future_version), std::runtime_error);
  // One version per format: a v1 header is refused with its version named.
  std::istringstream v1(
      R"({"magic":"MLDYTRC","version":1,"proto":5,"shards":2})" "\n");
  try {
    parse_trace(v1);
    ADD_FAILURE() << "a v1 trace parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------------- replay --

TEST(Replay, StdioSessionReplaysWithZeroDiffs) {
  const std::string input = session_stream(4, Op::kStats);
  const TraceFile trace = record_session(input, 2);
  ASSERT_GT(trace.frames.size(), 0u);

  ShardedService service(config_from_trace(trace));
  const ReplayResult result = replay_trace(trace, service);
  for (const FrameDiff& diff : result.diffs) {
    ADD_FAILURE() << format_diff(diff);
  }
  EXPECT_TRUE(result.clean());
  // hello + 4 * 42 bids + stats, every one compared byte for byte.
  EXPECT_EQ(result.applied, 170u);
  EXPECT_EQ(result.compared, 170u);
  EXPECT_EQ(result.unmatched_out, 0u);
}

/// `requests` requests of the loadgen mix against trace_config's 42
/// workers, with a 0.2 s tick after every tenth, then stats.
std::string loadgen_stream(int requests) {
  loadgen::StreamConfig stream_config;
  stream_config.workers = 42;
  stream_config.task_budget = 120.0;
  std::ostringstream stream;
  std::int64_t next_id = 1'000'000;
  for (int k = 0; k < requests; ++k) {
    stream << format_request(loadgen::make_request(stream_config, 0, k))
           << "\n";
    if (k % 10 == 9) {
      Request tick;
      tick.op = Op::kTick;
      tick.id = next_id++;
      tick.seconds = 0.2;
      stream << format_request(tick) << "\n";
    }
  }
  Request stats;
  stats.op = Op::kStats;
  stats.id = next_id;
  stream << format_request(stats) << "\n";
  return stream.str();
}

TEST(Replay, EveryFlagSettableKnobReachesTheReplay) {
  // Each knob changes the service's replies, so a header that dropped it
  // would replay against a different deployment and diverge.
  const std::string input = loadgen_stream(400);
  std::vector<std::pair<std::string, ServiceConfig>> cases;
  ServiceConfig config = trace_config(2);
  config.payment_rule = auction::PaymentRule::kPaperNextInQueue;
  cases.emplace_back("payment-rule", config);
  config = trace_config(2);
  config.exploration_beta = 0.5;
  cases.emplace_back("exploration-beta", config);
  config = trace_config(2);
  config.scenario.reestimation_period = 3;
  cases.emplace_back("reestimation-period", config);
  config = trace_config(2);
  config.batch.max_delay = 0.5;
  config.batch.min_bids = 400;
  cases.emplace_back("batch-max-delay", config);
  for (const auto& [knob, recorded] : cases) {
    const TraceFile trace = record_session(input, recorded);
    ShardedService service(config_from_trace(trace));
    const ReplayResult result = replay_trace(trace, service);
    EXPECT_TRUE(result.clean())
        << knob << ": " << result.diffs.size() << " diffs, first "
        << format_diff(result.diffs.front());
    EXPECT_GT(result.compared, 400u) << knob;
  }
}

TEST(Replay, ConfigFromTraceReconstructsTheDeployment) {
  const TraceFile trace = record_session(session_stream(1, Op::kStats), 4);
  const ServiceConfig config = config_from_trace(trace);
  EXPECT_EQ(config.shards, 4);
  EXPECT_EQ(config.scenario.num_workers, 42);
  EXPECT_EQ(config.scenario.num_tasks, 30);
  EXPECT_EQ(config.scenario.runs, 16);
  EXPECT_EQ(config.scenario.budget, 120.0);
  EXPECT_EQ(config.seed, 2017u);
  EXPECT_TRUE(config.manual_clock);
}

TEST(Replay, TamperedResponseReportsFrameIndexAndFieldPath) {
  const std::string input = session_stream(1, Op::kStats);
  TraceFile trace = record_session(input, 2);

  // Corrupt the first recorded bid acknowledgement: "pending_bids":1 is the
  // first bid's deterministic reply on its shard.
  std::size_t tampered_index = trace.frames.size();
  std::uint64_t tampered_seq = 0;
  for (std::size_t i = 0; i < trace.frames.size(); ++i) {
    TraceFrame& frame = trace.frames[i];
    if (frame.dir != TraceFrame::Dir::kOut) continue;
    const std::size_t at = frame.line.find("\"pending_bids\":1");
    if (at == std::string::npos) continue;
    frame.line.replace(at, std::string("\"pending_bids\":1").size(),
                       "\"pending_bids\":941");
    tampered_index = i;
    tampered_seq = frame.seq;
    break;
  }
  ASSERT_LT(tampered_index, trace.frames.size());
  // Diffs anchor on the request frame (the in-frame the replay re-drove),
  // which shares the tampered response's (conn, seq).
  std::size_t request_index = trace.frames.size();
  for (std::size_t i = 0; i < trace.frames.size(); ++i) {
    const TraceFrame& frame = trace.frames[i];
    if (frame.dir == TraceFrame::Dir::kIn && frame.conn == 1 &&
        frame.seq == tampered_seq) {
      request_index = i;
      break;
    }
  }
  ASSERT_LT(request_index, trace.frames.size());

  ShardedService service(config_from_trace(trace));
  const ReplayResult result = replay_trace(trace, service);
  ASSERT_FALSE(result.clean());
  const FrameDiff& diff = result.diffs.front();
  EXPECT_EQ(diff.frame_index, request_index);
  EXPECT_EQ(diff.seq, tampered_seq);
  EXPECT_EQ(diff.field, "pending_bids");
  EXPECT_EQ(diff.recorded, "941");
  EXPECT_EQ(diff.replayed, "1");
  const std::string report = format_diff(diff);
  EXPECT_NE(report.find("pending_bids"), std::string::npos);
  EXPECT_NE(report.find("941"), std::string::npos);
}

TEST(Replay, MaxDiffsCapsTheReport) {
  const std::string input = session_stream(1, Op::kStats);
  TraceFile trace = record_session(input, 1);
  // Corrupt every bid acknowledgement.
  for (TraceFrame& frame : trace.frames) {
    if (frame.dir != TraceFrame::Dir::kOut) continue;
    const std::size_t at = frame.line.find("\"pending_bids\":");
    if (at == std::string::npos) continue;
    frame.line.insert(at + std::string("\"pending_bids\":").size(), "9");
  }
  ShardedService service(config_from_trace(trace));
  ReplayOptions options;
  options.max_diffs = 3;
  const ReplayResult result = replay_trace(trace, service, options);
  EXPECT_EQ(result.diffs.size(), 3u);
}

TEST(Replay, MaskMatchesExactPrefixAndSuffixPatterns) {
  const std::vector<std::string> mask = {"retry_after_ms", "loop_*", "*_ms"};
  EXPECT_TRUE(mask_matches(mask, "retry_after_ms"));
  EXPECT_TRUE(mask_matches(mask, "loop_requests"));
  EXPECT_TRUE(mask_matches(mask, "request_time_p99_ms"));
  EXPECT_FALSE(mask_matches(mask, "pending_bids"));
  EXPECT_FALSE(mask_matches(mask, "loops"));      // "loop_*" needs the '_'
  EXPECT_FALSE(mask_matches(mask, "ms_grid"));    // suffix, not substring
}

TEST(Replay, DefaultMaskCoversTheEnvironmentFacts) {
  const std::vector<std::string> mask = ReplayOptions::default_mask();
  // Backpressure hints, queue gauges, event-loop tallies, tracing counters
  // and latency percentiles are facts about the recording environment.
  for (const char* key :
       {"retry_after_ms", "queue_depth", "shard0/queue_depth",
        "overload_rejects", "loop_requests", "connections", "tracing",
        "shard0/tracing", "spans", "shard3/spans", "request_time_p99_ms",
        "request_time_count"}) {
    EXPECT_TRUE(mask_matches(mask, key)) << key;
  }
  // The trajectory facts a replay must reproduce are NOT masked.
  for (const char* key :
       {"pending_bids", "runs_total", "internal_id", "run", "finished"}) {
    EXPECT_FALSE(mask_matches(mask, key)) << key;
  }
}

// ----------------------------------------- per-shard stats namespacing ---

TEST(ShardNamespacing, SingleShardStatsStayByteIdenticalToUnsharded) {
  const Response stats =
      stdio_response_for(session_stream(2, Op::kStats), 1, Op::kStats);
  ASSERT_TRUE(stats.ok) << stats.error;
  for (const auto& [key, value] : stats.fields.entries()) {
    EXPECT_EQ(std::string_view(key).substr(0, 5) == "shard", false)
        << "K=1 stats must not grow shard namespaces: " << key;
  }
  EXPECT_EQ(stats.fields.number("runs_this_session"), 2.0);
}

TEST(ShardNamespacing, MultiShardStatsExposePerShardViewsAndSummedTotals) {
  const Response stats =
      stdio_response_for(session_stream(2, Op::kStats), 2, Op::kStats);
  ASSERT_TRUE(stats.ok) << stats.error;
  ASSERT_TRUE(stats.fields.has("shard0/requests"));
  ASSERT_TRUE(stats.fields.has("shard1/requests"));
  EXPECT_EQ(stats.fields.number("requests"),
            stats.fields.number("shard0/requests") +
                stats.fields.number("shard1/requests"));
  EXPECT_EQ(stats.fields.number("runs_this_session"),
            stats.fields.number("shard0/runs_this_session") +
                stats.fields.number("shard1/runs_this_session"));
  // Both shards ran both rounds of their sub-market.
  EXPECT_EQ(stats.fields.number("runs_this_session"), 4.0);
}

TEST(ShardNamespacing, TraceStatusMergesCountsAndDropsUnmergeablePercentiles) {
  const Response status = stdio_response_for(
      session_stream(1, Op::kTraceStatus), 2, Op::kTraceStatus);
  ASSERT_TRUE(status.ok) << status.error;
  // Per-shard views carry everything, percentiles included.
  ASSERT_TRUE(status.fields.has("shard0/request_time_p99_ms"));
  ASSERT_TRUE(status.fields.has("shard1/requests"));
  // The top level sums sample counts but cannot merge percentile values.
  EXPECT_TRUE(status.fields.has("request_time_count"));
  EXPECT_FALSE(status.fields.has("request_time_p99_ms"));
  EXPECT_EQ(status.fields.number("requests"),
            status.fields.number("shard0/requests") +
                status.fields.number("shard1/requests"));
  EXPECT_TRUE(status.fields.has("tracing"));
  EXPECT_TRUE(status.fields.has("spans"));
}

TEST(ShardNamespacing, SingleShardTraceStatusKeepsPercentilesAtTopLevel) {
  const Response status = stdio_response_for(
      session_stream(1, Op::kTraceStatus), 1, Op::kTraceStatus);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_TRUE(status.fields.has("request_time_p50_ms"));
  EXPECT_TRUE(status.fields.has("run_time_p99_ms"));
  EXPECT_TRUE(status.fields.has("requests"));
}

// ---------------------------------------------------- traced recording ---

TEST(TracedRecording, EnabledTracingMintsDeterministicRootSpansPerFrame) {
  obs::ScopedEnable enable(true);
  const std::string input = session_stream(1, Op::kStats);
  const TraceFile trace = record_session(input, 2);
  std::uint64_t seq = 0;
  for (const TraceFrame& frame : trace.frames) {
    if (frame.dir != TraceFrame::Dir::kIn) continue;
    EXPECT_GT(frame.span, 0u) << "frame seq " << frame.seq;
    EXPECT_EQ(frame.seq, seq++);
  }
  // Replays of a traced recording are still clean: span/trace fields live
  // in the trace metadata, never in the response bytes.
  ShardedService service(config_from_trace(trace));
  obs::ScopedEnable replay_dark(false);
  const ReplayResult result = replay_trace(trace, service);
  for (const FrameDiff& diff : result.diffs) {
    ADD_FAILURE() << format_diff(diff);
  }
  EXPECT_TRUE(result.clean());
}

TEST(TracedRecording, DisabledTracingRecordsZeroSpanIds) {
  obs::ScopedEnable enable(false);
  const TraceFile trace = record_session(session_stream(1, Op::kStats), 1);
  for (const TraceFrame& frame : trace.frames) {
    EXPECT_EQ(frame.span, 0u);
  }
}

}  // namespace
}  // namespace melody::svc
