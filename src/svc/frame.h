// The one request-line path. Every line-framed front end — the epoll TCP
// loop (svc/event_loop.h), the stdio session behind melody_serve --stdin,
// and trace replay (svc/replay.h) — answers a line through answer_frame,
// so the same bytes get the same replies, the same tallies and the same
// MLDYTRC in-frames whichever front end carries them.
//
// answer_frame, in order:
//   1. frames the line: a trailing '\r' is stripped and an empty line is
//      skipped (it consumes no sequence number and gets no reply);
//   2. parses it, answering UnsupportedOpError / WireError inline;
//   3. mints the frame's root trace context from (conn, seq) when tracing
//      is on, so recorded and replayed runs share trace ids;
//   4. records the in-frame with the router's routing decision;
//   5. submits it to the sharded service, or returns the backpressure
//      rejection as the inline reply.
// What stays with the caller is what its transport owns: the sequence
// counter, where inline replies and out-frames go, and what the done
// callback captures.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/protocol.h"
#include "svc/router.h"
#include "svc/trace_log.h"

namespace melody::svc {

/// Outcome tallies of the frames one front end answered: the stdio
/// session's result, the event loop's drain summary and its loop_* stats.
struct FrameTally {
  std::uint64_t requests = 0;      // lines submitted to the service
  std::uint64_t parse_errors = 0;  // lines answered with a protocol error
  std::uint64_t rejected = 0;      // lines answered with backpressure
};

/// What answer_frame did with one line.
struct FrameResult {
  enum class Kind {
    kSkipped,     // empty after framing: no sequence number, no reply
    kSubmitted,   // accepted by the service; the done callback replies
    kParseError,  // answered inline with a protocol error
    kRejected,    // answered inline with backpressure
  };
  Kind kind = Kind::kSkipped;
  std::string reply;  // the inline reply line (kParseError / kRejected)
};

/// Answer one request line received as frame `seq` of connection `conn`
/// (the caller advances its sequence counter unless the result is
/// kSkipped). `make_done(request, trace)` is called once, only for a parsed
/// request, right before submit; it returns the completion callback, which
/// is moved into the service. `recorder` may be null.
template <typename MakeDone>
FrameResult answer_frame(ShardedService& service, TraceRecorder* recorder,
                         FrameTally& tally, std::uint64_t conn,
                         std::uint64_t seq, std::string_view line,
                         MakeDone&& make_done) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.empty()) return {};
  Request request;
  std::string error;
  try {
    request = parse_request(line);
  } catch (const UnsupportedOpError& e) {
    error = format_response(Response::unsupported_op(e.id(), e.op()));
  } catch (const WireError& e) {
    error = format_response(Response::failure(0, e.what()));
  }
  if (!error.empty()) {
    ++tally.parse_errors;
    if (recorder != nullptr) {
      recorder->record_in(conn, seq, line, kShardNone, 0);
    }
    return {FrameResult::Kind::kParseError, std::move(error)};
  }
  obs::TraceContext trace;
  if (obs::enabled()) {
    trace = obs::TraceContext{obs::mint_trace_id(conn, seq),
                              obs::next_span_id(), 0};
  }
  if (recorder != nullptr) {
    recorder->record_in(conn, seq, line, service.routing_decision(request),
                        trace.span_id);
  }
  const PushResult pushed =
      service.submit(request, make_done(request, trace), trace);
  if (pushed != PushResult::kOk) {
    ++tally.rejected;
    return {FrameResult::Kind::kRejected,
            format_response(service.rejection(pushed, request))};
  }
  ++tally.requests;
  return {FrameResult::Kind::kSubmitted, {}};
}

/// Drive a sharded service from line-delimited requests on `in`, one
/// response line on `out` per request, in order. Single-threaded: every
/// line goes through answer_frame, then all shards are polled until its
/// (possibly merged) response has been delivered. When `recorder` is given
/// every frame is recorded as connection 1 (a stdio session has exactly
/// one client). Returns at EOF or after a shutdown op
/// (service.shutdown_requested() tells which).
FrameTally run_stdio_session(ShardedService& service, std::istream& in,
                             std::ostream& out,
                             TraceRecorder* recorder = nullptr);

}  // namespace melody::svc
