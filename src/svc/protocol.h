// Typed request/response schema of the service wire protocol, layered on
// the flat-JSON codec in svc/wire.h. One request line in, one response line
// out, in order, per client.
//
// Request lines:
//   {"op":"hello","id":1}
//   {"op":"submit_bid","id":2,"worker":"w17","cost":1.4,"frequency":3}
//   {"op":"update_bid","id":2,"worker":"w17","cost":1.2,"frequency":4}
//   {"op":"withdraw_bid","id":2,"worker":"w17"}
//   {"op":"submit_tasks","id":3,"count":500,"budget":800}
//   {"op":"post_scores","id":4,"worker":"w17","scores":[6.5,7.1]}
//   {"op":"query_worker","id":5,"worker":"w17"}
//   {"op":"query_run","id":6,"run":12}
//   {"op":"run_now","id":7}
//   {"op":"tick","id":8,"seconds":0.25}
//   {"op":"stats","id":9}
//   {"op":"trace_status","id":9}
//   {"op":"checkpoint","id":10,"path":"svc.ckpt"}
//   {"op":"shutdown","id":11}
//   {"op":"shard_export","id":12,"shard":3,"path":"s3.migr",
//    "detach":true,"epoch":2}
//   {"op":"shard_import","id":13,"shard":3,"path":"s3.migr","epoch":2}
//
// Response lines always carry "ok" plus the echoed "id" (when the request
// had one). Failures carry "error"; overload rejections additionally carry
// "retry_after_ms" — the client-visible half of the backpressure contract.
//
// There is one protocol version, kProtoVersion. A "hello" may carry the
// client's "proto"; the server ignores it and its reply advertises
// "proto_version" plus the shard count. A request whose op the server does
// not know is answered with a structured
// {"ok":false,"error":"unsupported_op","op":...} line and the connection
// stays open.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "svc/wire.h"

namespace melody::svc {

/// The wire protocol version, advertised in hello replies and trace headers.
inline constexpr int kProtoVersion = 5;

enum class Op {
  kHello,
  kSubmitBid,
  kUpdateBid,
  kWithdrawBid,
  kSubmitTasks,
  kPostScores,
  kQueryWorker,
  kQueryRun,
  kRunNow,
  kTick,
  kStats,
  kTraceStatus,
  kCheckpoint,
  kShutdown,
  kShardExport,
  kShardImport,
};

std::string_view to_string(Op op) noexcept;

/// The op whose wire name is `name`; nullopt when there is none.
std::optional<Op> op_named(std::string_view name) noexcept;

/// parse_request's error for a well-formed line naming an op this build
/// does not implement. Derives from WireError (callers that only know
/// "malformed line" still catch it); responders that know better answer
/// Response::unsupported_op and keep the connection open.
class UnsupportedOpError : public WireError {
 public:
  UnsupportedOpError(std::string op, std::int64_t id)
      : WireError("protocol: unknown op '" + op + "'"),
        op_(std::move(op)),
        id_(id) {}
  const std::string& op() const noexcept { return op_; }
  std::int64_t id() const noexcept { return id_; }

 private:
  std::string op_;
  std::int64_t id_;
};

/// One parsed client request. Fields are meaningful per op (see the schema
/// above); unused fields keep their defaults.
struct Request {
  Op op = Op::kHello;
  std::int64_t id = 0;      // client correlation id; 0 = none
  std::string worker;       // submit_bid / update_bid / withdraw_bid
                            // / post_scores / query_worker
  double cost = 0.0;        // submit_bid (newcomer) / update_bid
  int frequency = 0;        // submit_bid (newcomer) / update_bid
  bool has_bid = false;     // true when cost/frequency were present
  int task_count = 0;       // submit_tasks
  double budget = 0.0;      // submit_tasks (budget-accumulation trigger)
  std::vector<double> scores;  // post_scores
  int run = 0;              // query_run
  int shard = 0;            // query_run / shard_export / shard_import
  double seconds = 0.0;     // tick
  std::string path;         // checkpoint / shard_export / shard_import
  int proto = 0;            // hello (client's protocol version; 0 = unset;
                            // the server ignores it)
  bool detach = false;      // shard_export: deactivate the shard (migration)
  std::int64_t epoch = 0;   // shard_export / shard_import: new routing epoch

  bool operator==(const Request&) const = default;
};

/// One response under construction. `fields` carries the op-specific
/// payload; ok/error/retry_after_ms render first so failures are obvious
/// even when eyeballing raw logs.
struct Response {
  bool ok = true;
  std::int64_t id = 0;
  std::string error;          // set when !ok
  std::int64_t retry_after_ms = 0;  // > 0 only on overload rejections
  WireObject fields;

  static Response success(std::int64_t id) {
    Response r;
    r.id = id;
    return r;
  }
  static Response failure(std::int64_t id, std::string message) {
    Response r;
    r.ok = false;
    r.id = id;
    r.error = std::move(message);
    return r;
  }
  static Response overloaded(std::int64_t id, std::int64_t retry_after_ms) {
    Response r = failure(id, "overloaded");
    r.retry_after_ms = retry_after_ms;
    return r;
  }
  /// The structured reply for an op this build does not implement: the
  /// offending op plus the server's protocol version, so the client learns
  /// which request was refused without losing the connection.
  static Response unsupported_op(std::int64_t id, const std::string& op) {
    Response r = failure(id, "unsupported_op");
    r.fields.set("op", WireValue::of(op));
    r.fields.set("proto_version",
                 WireValue::of(static_cast<std::int64_t>(kProtoVersion)));
    return r;
  }
  /// Structured reply for a bid op naming a worker the service has never
  /// registered (update_bid / withdraw_bid never auto-register).
  static Response unknown_worker(std::int64_t id, const std::string& worker) {
    Response r = failure(id, "unknown_worker");
    r.fields.set("worker", WireValue::of(worker));
    return r;
  }
  /// Structured reply for a frame routed to a shard this process does not
  /// currently own (cluster deployments, mid-migration). Carries the shard
  /// and the responder's routing epoch so the client can refresh its table
  /// and retry against the new owner.
  static Response not_owner(std::int64_t id, int shard, std::int64_t epoch) {
    Response r = failure(id, "not_owner");
    r.fields.set("shard", WireValue::of(static_cast<std::int64_t>(shard)));
    r.fields.set("epoch", WireValue::of(epoch));
    return r;
  }
};

/// Parse one request line. Throws WireError on malformed JSON or
/// missing/mistyped required fields, and UnsupportedOpError (a WireError)
/// on a well-formed line whose op this build does not know.
Request parse_request(std::string_view line);

/// Render a request as one wire line (load generator, trace recording).
/// parse_request(format_request(r)) == r for every valid request.
std::string format_request(const Request& request);

/// Render a response as one wire line (no trailing newline).
std::string format_response(const Response& response);

/// Parse a response line back into its parts (load generator, tests).
Response parse_response(std::string_view line);

}  // namespace melody::svc
