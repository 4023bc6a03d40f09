// Cluster-aware request router for clients (melody_loadgen --cluster, the
// chaos harness, the migration bit-identity tests): holds a RoutingTable,
// sends each request to the member owning its shard, and reassembles
// broadcast replies so the cluster answers with the exact bytes a
// single-process K-shard deployment would have produced.
//
// Single-shard ops route by the router's own svc::routing_decision over the
// table's worker split; a structured not_owner rejection refreshes the
// table from the coordinator and retries against the new owner, so a
// migration in flight is invisible to the caller.
//
// Broadcast ops fan out to every member owning at least one shard. In
// cluster mode members re-home each shard's reply under "shard<g>/..."
// verbatim (svc::merge_shard_parts with rehome_all), so this client can
// reconstruct the per-global-shard parts across members, order them by
// global index, and re-run the exact same merge — the fold over members is
// NOT used because some merged fields (e.g. runs_executed) only appear on
// shards that produced them, which a second-level fold cannot undo.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "cluster/routing.h"
#include "svc/protocol.h"

namespace melody::cluster {

/// Extract the part global shard `g` contributed to a cluster member's
/// re-homed broadcast reply: every "shard<g>/..." field, prefix stripped,
/// in reply order. `id` seeds the part's correlation id for the re-merge.
svc::Response rehomed_part(const svc::Response& reply, std::int64_t id,
                           int g);

class ClusterClient {
 public:
  /// Same injected transport shape as Coordinator::DataRpc — TCP in the
  /// tools, direct ShardedService submission in tests.
  using DataRpc = std::function<bool(const ClusterMember&,
                                     const svc::Request&, svc::Response*)>;
  /// Control-plane RPC to the coordinator (route_table refreshes). May be
  /// null, in which case refresh_table() fails and no table is installed.
  using ControlRpc =
      std::function<bool(const svc::WireObject&, svc::WireObject*)>;

  explicit ClusterClient(DataRpc data, ControlRpc control = nullptr);

  const RoutingTable& table() const noexcept { return table_; }

  /// Fetch the routing table from the coordinator. False (with
  /// last_error()) on transport failure, a failure reply, or no control
  /// channel.
  bool refresh_table();

  /// Route and execute one request. Returns false only on transport or
  /// routing-table failure; service-level failures land in *out with
  /// ok=false. checkpoint is refused client-side (members would race one
  /// another clobbering the same path — the coordinator's publish op is
  /// the cluster-wide snapshot), and the shard handoff ops are
  /// coordinator-driven (migrate/publish), not client ops.
  bool call(const svc::Request& request, svc::Response* out);

  const std::string& last_error() const noexcept { return error_; }

 private:
  bool call_single(int shard, const svc::Request& request,
                   svc::Response* out);
  bool call_broadcast(const svc::Request& request, svc::Response* out);

  DataRpc data_;
  ControlRpc control_;
  RoutingTable table_;
  std::string error_;
};

}  // namespace melody::cluster
