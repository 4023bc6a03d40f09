#include "cluster/coordinator.h"

#include <chrono>
#include <utility>

#include "svc/shard.h"

namespace melody::cluster {

namespace {

using svc::WireObject;
using svc::WireValue;

WireObject ok_reply() {
  WireObject reply;
  reply.set("ok", WireValue::of(true));
  return reply;
}

WireObject fail_reply(const std::string& message) {
  WireObject reply;
  reply.set("ok", WireValue::of(false));
  reply.set("error", WireValue::of(message));
  return reply;
}

WireValue of_int(std::int64_t v) { return WireValue::of(v); }

}  // namespace

Coordinator::Coordinator(CoordinatorOptions options, DataRpc rpc)
    : options_(std::move(options)), rpc_(std::move(rpc)) {
  table_.epoch = 1;
  table_.shards = options_.shards;
  table_.workers = options_.workers;
  table_.owner.assign(static_cast<std::size_t>(options_.shards), -1);
  table_.worker_offsets =
      svc::contiguous_split(options_.workers, options_.shards);
}

WireObject Coordinator::handle(const WireObject& command) {
  std::lock_guard<std::mutex> lock(mutex_);
  try {
    const std::string cmd = command.text_or("cmd", "");
    if (cmd == "ping") return ok_reply();
    if (cmd == "join") return do_join(command);
    if (cmd == "status") return do_status();
    if (cmd == "route_table") {
      WireObject reply = ok_reply();
      const WireObject encoded = table_.encode();
      for (const auto& [key, value] : encoded.entries()) {
        reply.set(key, value);
      }
      return reply;
    }
    if (cmd == "migrate") return do_migrate(command);
    if (cmd == "drain") return do_drain(command);
    if (cmd == "publish") return do_publish(command);
    if (cmd == "heartbeat") {
      const std::string member = command.text_or("member", "");
      if (member_index(member) < 0) {
        return fail_reply("heartbeat: unknown member \"" + member + "\"");
      }
      ++heartbeats_[member];
      WireObject reply = ok_reply();
      reply.set("epoch", of_int(table_.epoch));
      return reply;
    }
    if (cmd == "spawn_args") return do_spawn_args();
    if (cmd == "shutdown") return do_shutdown();
    return fail_reply("unknown control command \"" + cmd + "\"");
  } catch (const std::exception& e) {
    return fail_reply(e.what());
  }
}

WireObject Coordinator::do_join(const WireObject& command) {
  const std::string name = command.text_or("member", "");
  if (name.empty()) return fail_reply("join: member name required");
  int idx = member_index(name);
  if (idx < 0) {
    idx = static_cast<int>(table_.members.size());
    table_.members.push_back(ClusterMember{});
    table_.members.back().name = name;
  }
  ClusterMember& member = table_.members[static_cast<std::size_t>(idx)];
  member.host = command.text_or("host", member.host);
  member.port = static_cast<int>(
      command.number_or("port", static_cast<double>(member.port)));
  member.pid = static_cast<std::int64_t>(
      command.number_or("pid", static_cast<double>(member.pid)));

  std::int64_t restored = 0;
  if (command.has("shards")) {
    // Initial assembly: the member announces the shards it serves. Filling
    // a vacant slot keeps the epoch (nothing routed there yet); taking a
    // shard over from another member is an ownership change and bumps it.
    bool reassigned = false;
    for (const double raw : command.number_list("shards")) {
      const int s = static_cast<int>(raw);
      if (s < 0 || s >= table_.shards) {
        return fail_reply("join: shard " + std::to_string(s) +
                          " out of range");
      }
      auto& owner = table_.owner[static_cast<std::size_t>(s)];
      if (owner >= 0 && owner != idx) reassigned = true;
      owner = idx;
    }
    if (reassigned) ++table_.epoch;
  }
  if (!command.has("shards") ||
      command.number_list("shards").empty()) {
    // A respawn joins bare; every shard the table still charges to this
    // member is restored from its last published envelope, then the epoch
    // advances so clients re-learn the (re-validated) ownership.
    std::vector<int> owned;
    for (int s = 0; s < table_.shards; ++s) {
      if (table_.owner[static_cast<std::size_t>(s)] == idx) owned.push_back(s);
    }
    const std::int64_t next_epoch = table_.epoch + 1;
    for (const int s : owned) {
      const auto published = published_.find(s);
      if (published == published_.end()) {
        return fail_reply("join: no published envelope for shard " +
                          std::to_string(s));
      }
      svc::Request request;
      request.op = svc::Op::kShardImport;
      request.id = next_request_id_++;
      request.shard = s;
      request.path = published->second;
      request.epoch = next_epoch;
      svc::Response response;
      if (!rpc_(member, request, &response)) {
        return fail_reply("join: shard " + std::to_string(s) +
                          " import rpc failed");
      }
      if (!response.ok) {
        return fail_reply("join: shard " + std::to_string(s) +
                          " import failed: " + response.error);
      }
      ++restored;
    }
    if (restored > 0) table_.epoch = next_epoch;
  }
  WireObject reply = ok_reply();
  reply.set("epoch", of_int(table_.epoch));
  reply.set("members", of_int(static_cast<std::int64_t>(
                           table_.members.size())));
  reply.set("restored", of_int(restored));
  return reply;
}

std::string Coordinator::migrate_shard(const int shard, const int from,
                                       const int to, double* pause_ms) {
  const std::int64_t next_epoch = table_.epoch + 1;
  const std::string path = envelope_path(shard, next_epoch, "migrate");
  const ClusterMember& source =
      table_.members[static_cast<std::size_t>(from)];
  const ClusterMember& target = table_.members[static_cast<std::size_t>(to)];

  const auto start = std::chrono::steady_clock::now();
  svc::Request export_request;
  export_request.op = svc::Op::kShardExport;
  export_request.id = next_request_id_++;
  export_request.shard = shard;
  export_request.path = path;
  export_request.detach = true;
  export_request.epoch = next_epoch;
  svc::Response response;
  if (!rpc_(source, export_request, &response)) {
    return "export rpc to " + source.name + " failed";
  }
  if (!response.ok) {
    return "export on " + source.name + " failed: " + response.error;
  }

  svc::Request import_request;
  import_request.op = svc::Op::kShardImport;
  import_request.id = next_request_id_++;
  import_request.shard = shard;
  import_request.path = path;
  import_request.epoch = next_epoch;
  if (!rpc_(target, import_request, &response)) {
    return "import rpc to " + target.name + " failed";
  }
  if (!response.ok) {
    return "import on " + target.name + " failed: " + response.error;
  }
  const auto done = std::chrono::steady_clock::now();
  if (pause_ms != nullptr) {
    *pause_ms =
        std::chrono::duration<double, std::milli>(done - start).count();
  }
  table_.owner[static_cast<std::size_t>(shard)] = to;
  table_.epoch = next_epoch;
  published_[shard] = path;
  return "";
}

WireObject Coordinator::do_migrate(const WireObject& command) {
  const int shard = static_cast<int>(command.number_or("shard", -1));
  if (shard < 0 || shard >= table_.shards) {
    return fail_reply("migrate: shard out of range");
  }
  const std::string to_name = command.text_or("to", "");
  const int to = member_index(to_name);
  if (to < 0) {
    return fail_reply("migrate: unknown member \"" + to_name + "\"");
  }
  const int from = table_.owner[static_cast<std::size_t>(shard)];
  if (from < 0) {
    return fail_reply("migrate: shard " + std::to_string(shard) +
                      " has no owner");
  }
  if (from == to) {
    return fail_reply("migrate: shard " + std::to_string(shard) +
                      " is already on " + to_name);
  }
  double pause_ms = 0.0;
  const std::string error = migrate_shard(shard, from, to, &pause_ms);
  if (!error.empty()) return fail_reply("migrate: " + error);
  WireObject reply = ok_reply();
  reply.set("epoch", of_int(table_.epoch));
  reply.set("pause_ms", WireValue::of(pause_ms));
  reply.set("path", WireValue::of(published_[shard]));
  return reply;
}

WireObject Coordinator::do_drain(const WireObject& command) {
  const std::string name = command.text_or("member", "");
  const int idx = member_index(name);
  if (idx < 0) return fail_reply("drain: unknown member \"" + name + "\"");
  std::vector<int> others;
  for (int m = 0; m < static_cast<int>(table_.members.size()); ++m) {
    if (m != idx) others.push_back(m);
  }
  if (others.empty()) return fail_reply("drain: no other members");
  std::int64_t moved = 0;
  double worst_pause_ms = 0.0;
  for (int s = 0; s < table_.shards; ++s) {
    if (table_.owner[static_cast<std::size_t>(s)] != idx) continue;
    const int to = others[static_cast<std::size_t>(moved) % others.size()];
    double pause_ms = 0.0;
    const std::string error = migrate_shard(s, idx, to, &pause_ms);
    if (!error.empty()) {
      return fail_reply("drain: shard " + std::to_string(s) + ": " + error);
    }
    worst_pause_ms = std::max(worst_pause_ms, pause_ms);
    ++moved;
  }
  WireObject reply = ok_reply();
  reply.set("moved", of_int(moved));
  reply.set("epoch", of_int(table_.epoch));
  reply.set("pause_ms", WireValue::of(worst_pause_ms));
  return reply;
}

WireObject Coordinator::do_publish(const WireObject& command) {
  const std::string only = command.text_or("member", "");
  const int only_idx = only.empty() ? -1 : member_index(only);
  if (!only.empty() && only_idx < 0) {
    return fail_reply("publish: unknown member \"" + only + "\"");
  }
  std::int64_t published = 0;
  for (int s = 0; s < table_.shards; ++s) {
    const int owner = table_.owner[static_cast<std::size_t>(s)];
    if (owner < 0) continue;
    if (only_idx >= 0 && owner != only_idx) continue;
    // No detach, no epoch change: a published snapshot is a recovery
    // floor, not a handoff — the owner keeps serving throughout.
    const std::string path = envelope_path(s, table_.epoch, "publish");
    svc::Request request;
    request.op = svc::Op::kShardExport;
    request.id = next_request_id_++;
    request.shard = s;
    request.path = path;
    svc::Response response;
    const ClusterMember& member =
        table_.members[static_cast<std::size_t>(owner)];
    if (!rpc_(member, request, &response) || !response.ok) {
      return fail_reply("publish: shard " + std::to_string(s) + " on " +
                        member.name + " failed" +
                        (response.error.empty() ? "" : ": " + response.error));
    }
    published_[s] = path;
    ++published;
  }
  WireObject reply = ok_reply();
  reply.set("published", of_int(published));
  reply.set("epoch", of_int(table_.epoch));
  return reply;
}

WireObject Coordinator::do_status() const {
  WireObject reply = ok_reply();
  reply.set("epoch", of_int(table_.epoch));
  reply.set("shards", of_int(table_.shards));
  reply.set("workers", of_int(table_.workers));
  reply.set("members", of_int(static_cast<std::int64_t>(
                           table_.members.size())));
  reply.set("expected", of_int(options_.expected_members));
  const bool ready =
      table_.complete() &&
      static_cast<int>(table_.members.size()) >= options_.expected_members;
  reply.set("ready", WireValue::of(ready));
  reply.set("shutdown", WireValue::of(shutdown_));
  return reply;
}

WireObject Coordinator::do_spawn_args() const {
  WireObject reply = ok_reply();
  reply.set("count", of_int(static_cast<std::int64_t>(
                         options_.spawn_args.size())));
  for (std::size_t i = 0; i < options_.spawn_args.size(); ++i) {
    reply.set("arg" + std::to_string(i),
              WireValue::of(options_.spawn_args[i]));
  }
  return reply;
}

WireObject Coordinator::do_shutdown() {
  // Best-effort fan-out: a member that owns no shards still honors the op
  // (the router latches the shutdown flag before it fans out).
  for (const ClusterMember& member : table_.members) {
    svc::Request request;
    request.op = svc::Op::kShutdown;
    request.id = next_request_id_++;
    svc::Response response;
    rpc_(member, request, &response);
  }
  shutdown_ = true;
  return ok_reply();
}

RoutingTable Coordinator::table() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_;
}

bool Coordinator::ready() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.complete() &&
         static_cast<int>(table_.members.size()) >= options_.expected_members;
}

bool Coordinator::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_;
}

int Coordinator::member_index(const std::string& name) const {
  for (std::size_t i = 0; i < table_.members.size(); ++i) {
    if (table_.members[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::string Coordinator::envelope_path(const int shard,
                                       const std::int64_t epoch,
                                       const char* kind) const {
  return options_.publish_dir + "/shard" + std::to_string(shard) + "_e" +
         std::to_string(epoch) + "_" + kind + ".mldymigr";
}

}  // namespace melody::cluster
