#include "cluster/client_router.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "svc/router.h"
#include "svc/trace_log.h"

namespace melody::cluster {

namespace {

using svc::Op;
using svc::Request;
using svc::Response;
using svc::WireObject;
using svc::WireValue;

}  // namespace

Response rehomed_part(const Response& reply, const std::int64_t id,
                      const int g) {
  Response part;
  part.id = id;
  const std::string prefix = "shard" + std::to_string(g) + "/";
  for (const auto& [key, value] : reply.fields.entries()) {
    if (std::string_view(key).starts_with(prefix)) {
      part.fields.set(key.substr(prefix.size()), value);
    }
  }
  return part;
}

ClusterClient::ClusterClient(DataRpc data, ControlRpc control)
    : data_(std::move(data)), control_(std::move(control)) {}

bool ClusterClient::refresh_table() {
  if (!control_) {
    error_ = "no control channel to refresh the routing table";
    return false;
  }
  WireObject command;
  command.set("cmd", WireValue::of("route_table"));
  WireObject reply;
  if (!control_(command, &reply)) {
    error_ = "route_table rpc failed";
    return false;
  }
  if (!reply.boolean_or("ok", false)) {
    error_ = "route_table: " + reply.text_or("error", "failed");
    return false;
  }
  try {
    table_ = RoutingTable::decode(reply);
  } catch (const std::exception& e) {
    error_ = std::string("route_table: ") + e.what();
    return false;
  }
  return true;
}

bool ClusterClient::call(const Request& request, Response* out) {
  switch (request.op) {
    case Op::kCheckpoint:
      // Members all hold the full deployment config, so fanning the op out
      // would have every member clobber the same checkpoint path with a
      // partial view. The coordinator's publish op is the cluster-wide
      // snapshot.
      *out = Response::failure(request.id,
                               "checkpoint: use the coordinator's publish op");
      return true;
    case Op::kShardExport:
    case Op::kShardImport:
      *out = Response::failure(
          request.id, std::string(to_string(request.op)) +
                          ": coordinator-driven (migrate/publish)");
      return true;
    default:
      break;
  }
  const int shard =
      svc::routing_decision(request, table_.worker_offsets, table_.workers);
  if (shard == svc::kShardBroadcast) return call_broadcast(request, out);
  if (shard == svc::kShardNone) {
    // The in-process router answers this inline; mirror its bytes.
    *out = Response::failure(request.id, svc::kShardOutOfRange);
    return true;
  }
  return call_single(shard, request, out);
}

bool ClusterClient::call_single(int shard, const Request& request,
                                Response* out) {
  const int attempts = static_cast<int>(table_.members.size()) + 2;
  bool called = false;
  for (int i = 0; i < attempts; ++i) {
    if (shard < 0 || shard >= table_.shards) {
      error_ = "shard " + std::to_string(shard) + " out of range";
      return false;
    }
    const int m = table_.owner[static_cast<std::size_t>(shard)];
    if (m < 0 || m >= static_cast<int>(table_.members.size())) {
      if (!refresh_table()) {
        error_ = "shard " + std::to_string(shard) + " unowned (" + error_ +
                 ")";
        return called;
      }
      continue;
    }
    if (!data_(table_.members[static_cast<std::size_t>(m)], request, out)) {
      error_ = "member " +
               table_.members[static_cast<std::size_t>(m)].name +
               " unreachable";
      return false;
    }
    called = true;
    if (!out->ok && out->error == "not_owner") {
      // Mid-migration: the reply names the shard; the refreshed table
      // names its new owner. Best-effort refresh — without a control
      // channel the retry re-reads the (possibly hand-installed) table.
      shard = static_cast<int>(
          out->fields.number_or("shard", static_cast<double>(shard)));
      refresh_table();
      continue;
    }
    return true;
  }
  // Retries exhausted: surface the last (not_owner) reply to the caller.
  return called;
}

bool ClusterClient::call_broadcast(const Request& request, Response* out) {
  if (!table_.complete() && !(refresh_table() && table_.complete())) {
    error_ = "routing table incomplete";
    return false;
  }
  const int k = table_.shards;
  std::map<int, std::vector<int>> owned;  // member -> shards, ascending
  for (int s = 0; s < k; ++s) {
    owned[table_.owner[static_cast<std::size_t>(s)]].push_back(s);
  }
  if (k == 1) {
    // One shard, one owner: the member's reply IS the deployment's reply
    // (no re-homed blocks exist at K=1).
    const int m = owned.begin()->first;
    if (!data_(table_.members[static_cast<std::size_t>(m)], request, out)) {
      error_ = "member " +
               table_.members[static_cast<std::size_t>(m)].name +
               " unreachable";
      return false;
    }
    return true;
  }
  std::vector<std::pair<int, Response>> parts;  // (global shard, part)
  parts.reserve(static_cast<std::size_t>(k));
  std::string checkpoint;  // from the first member reply that carries one
  for (const auto& [m, shards] : owned) {
    const ClusterMember& member = table_.members[static_cast<std::size_t>(m)];
    Response reply;
    if (!data_(member, request, &reply)) {
      error_ = "member " + member.name + " unreachable";
      return false;
    }
    if (!reply.ok) {
      // Partial failure: surface the member's merged failure reply rather
      // than inventing one (happens only when a shard-level apply failed).
      *out = reply;
      return true;
    }
    for (const int g : shards) {
      parts.emplace_back(g, rehomed_part(reply, request.id, g));
    }
    if (checkpoint.empty() && reply.fields.has("checkpoint")) {
      checkpoint = reply.fields.text("checkpoint");
    }
  }
  std::sort(parts.begin(), parts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Response> responses;
  std::vector<int> indices;
  responses.reserve(parts.size());
  indices.reserve(parts.size());
  for (auto& [g, part] : parts) {
    indices.push_back(g);
    responses.push_back(std::move(part));
  }
  // The exact merge a single-process deployment runs, over the exact same
  // per-shard parts in the exact same (global) order. rehome_all is off
  // here: that flag is the *member-side* encoding that preserved the parts
  // across the wire; the final client merge must be the standard one so
  // the reply's shape matches the single-process router byte for byte.
  Response merged = svc::merge_shard_parts(request.op, request.id, responses,
                                           indices, k, /*rehome_all=*/false);
  svc::annotate_broadcast_reply(request.op, k, table_.epoch, checkpoint,
                                merged);
  *out = merged;
  return true;
}

}  // namespace melody::cluster
