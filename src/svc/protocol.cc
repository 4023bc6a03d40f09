#include "svc/protocol.h"

#include <cmath>

namespace melody::svc {

namespace {

constexpr struct {
  Op op;
  std::string_view name;
} kOps[] = {
    {Op::kHello, "hello"},
    {Op::kSubmitBid, "submit_bid"},
    {Op::kUpdateBid, "update_bid"},
    {Op::kWithdrawBid, "withdraw_bid"},
    {Op::kSubmitTasks, "submit_tasks"},
    {Op::kPostScores, "post_scores"},
    {Op::kQueryWorker, "query_worker"},
    {Op::kQueryRun, "query_run"},
    {Op::kRunNow, "run_now"},
    {Op::kTick, "tick"},
    {Op::kStats, "stats"},
    {Op::kTraceStatus, "trace_status"},
    {Op::kCheckpoint, "checkpoint"},
    {Op::kShutdown, "shutdown"},
    {Op::kShardExport, "shard_export"},
    {Op::kShardImport, "shard_import"},
};

Op op_from(const std::string& name, std::int64_t id) {
  if (const auto op = op_named(name)) return *op;
  throw UnsupportedOpError(name, id);
}

int int_field(const WireObject& object, std::string_view key, int fallback) {
  const double value = object.number_or(key, fallback);
  if (value != std::floor(value)) {
    throw WireError("protocol: field " + std::string(key) +
                    " must be an integer");
  }
  return static_cast<int>(value);
}

}  // namespace

std::string_view to_string(Op op) noexcept {
  for (const auto& entry : kOps) {
    if (entry.op == op) return entry.name;
  }
  return "?";
}

std::optional<Op> op_named(std::string_view name) noexcept {
  for (const auto& entry : kOps) {
    if (entry.name == name) return entry.op;
  }
  return std::nullopt;
}

Request parse_request(std::string_view line) {
  const WireObject object = parse_wire(line);
  Request request;
  // The id parses before the op so an UnsupportedOpError can carry it and
  // the structured reply still correlates with the client's request.
  request.id = static_cast<std::int64_t>(object.number_or("id", 0.0));
  request.op = op_from(object.text("op"), request.id);
  switch (request.op) {
    case Op::kSubmitBid:
      request.worker = object.text("worker");
      request.has_bid = object.has("cost") || object.has("frequency");
      request.cost = object.number_or("cost", 0.0);
      request.frequency = int_field(object, "frequency", 0);
      break;
    case Op::kUpdateBid:
      request.worker = object.text("worker");
      request.cost = object.number("cost");  // required: it IS the update
      if (!object.has("frequency")) {
        throw WireError("protocol: update_bid requires frequency");
      }
      request.frequency = int_field(object, "frequency", 0);
      request.has_bid = true;
      break;
    case Op::kWithdrawBid:
      request.worker = object.text("worker");
      break;
    case Op::kSubmitTasks:
      request.task_count = int_field(object, "count", 0);
      request.budget = object.number_or("budget", 0.0);
      break;
    case Op::kPostScores:
      request.worker = object.text("worker");
      request.scores = object.number_list("scores");
      break;
    case Op::kQueryWorker:
      request.worker = object.text("worker");
      break;
    case Op::kQueryRun:
      request.run = int_field(object, "run", 0);
      request.shard = int_field(object, "shard", 0);
      break;
    case Op::kTick:
      request.seconds = object.number("seconds");
      break;
    case Op::kCheckpoint:
      request.path = object.text_or("path", "");
      break;
    case Op::kShardExport:
      request.shard = int_field(object, "shard", 0);
      request.path = object.text("path");
      request.detach = object.boolean_or("detach", false);
      request.epoch =
          static_cast<std::int64_t>(object.number_or("epoch", 0.0));
      break;
    case Op::kShardImport:
      request.shard = int_field(object, "shard", 0);
      request.path = object.text("path");
      request.epoch =
          static_cast<std::int64_t>(object.number_or("epoch", 0.0));
      break;
    case Op::kHello:
      request.proto = int_field(object, "proto", 0);
      break;
    case Op::kRunNow:
    case Op::kStats:
    case Op::kTraceStatus:
    case Op::kShutdown:
      break;
  }
  return request;
}

std::string format_request(const Request& request) {
  WireObject object;
  object.set("op", WireValue::of(std::string(to_string(request.op))));
  if (request.id != 0) object.set("id", WireValue::of(request.id));
  switch (request.op) {
    case Op::kSubmitBid:
      object.set("worker", WireValue::of(request.worker));
      if (request.has_bid) {
        object.set("cost", WireValue::of(request.cost));
        object.set("frequency",
                   WireValue::of(static_cast<std::int64_t>(request.frequency)));
      }
      break;
    case Op::kUpdateBid:
      object.set("worker", WireValue::of(request.worker));
      object.set("cost", WireValue::of(request.cost));
      object.set("frequency",
                 WireValue::of(static_cast<std::int64_t>(request.frequency)));
      break;
    case Op::kWithdrawBid:
      object.set("worker", WireValue::of(request.worker));
      break;
    case Op::kSubmitTasks:
      object.set("count",
                 WireValue::of(static_cast<std::int64_t>(request.task_count)));
      object.set("budget", WireValue::of(request.budget));
      break;
    case Op::kPostScores:
      object.set("worker", WireValue::of(request.worker));
      object.set("scores", WireValue::of(request.scores));
      break;
    case Op::kQueryWorker:
      object.set("worker", WireValue::of(request.worker));
      break;
    case Op::kQueryRun:
      object.set("run", WireValue::of(static_cast<std::int64_t>(request.run)));
      if (request.shard != 0) {
        object.set("shard",
                   WireValue::of(static_cast<std::int64_t>(request.shard)));
      }
      break;
    case Op::kTick:
      object.set("seconds", WireValue::of(request.seconds));
      break;
    case Op::kCheckpoint:
      if (!request.path.empty()) {
        object.set("path", WireValue::of(request.path));
      }
      break;
    case Op::kShardExport:
      object.set("shard",
                 WireValue::of(static_cast<std::int64_t>(request.shard)));
      object.set("path", WireValue::of(request.path));
      if (request.detach) object.set("detach", WireValue::of(true));
      if (request.epoch != 0) object.set("epoch", WireValue::of(request.epoch));
      break;
    case Op::kShardImport:
      object.set("shard",
                 WireValue::of(static_cast<std::int64_t>(request.shard)));
      object.set("path", WireValue::of(request.path));
      if (request.epoch != 0) object.set("epoch", WireValue::of(request.epoch));
      break;
    case Op::kHello:
      if (request.proto != 0) {
        object.set("proto",
                   WireValue::of(static_cast<std::int64_t>(request.proto)));
      }
      break;
    case Op::kRunNow:
    case Op::kStats:
    case Op::kTraceStatus:
    case Op::kShutdown:
      break;
  }
  return format_wire(object);
}

std::string format_response(const Response& response) {
  WireObject object;
  object.set("ok", WireValue::of(response.ok));
  if (response.id != 0) object.set("id", WireValue::of(response.id));
  if (!response.ok) object.set("error", WireValue::of(response.error));
  if (response.retry_after_ms > 0) {
    object.set("retry_after_ms", WireValue::of(response.retry_after_ms));
  }
  for (const auto& [key, value] : response.fields.entries()) {
    object.set(key, value);
  }
  return format_wire(object);
}

Response parse_response(std::string_view line) {
  const WireObject object = parse_wire(line);
  Response response;
  response.ok = object.boolean_or("ok", false);
  response.id = static_cast<std::int64_t>(object.number_or("id", 0.0));
  response.error = object.text_or("error", "");
  response.retry_after_ms =
      static_cast<std::int64_t>(object.number_or("retry_after_ms", 0.0));
  for (const auto& [key, value] : object.entries()) {
    if (key == "ok" || key == "id" || key == "error" ||
        key == "retry_after_ms") {
      continue;
    }
    response.fields.set(key, value);
  }
  return response;
}

}  // namespace melody::svc
