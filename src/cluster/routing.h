// Cluster routing table: which process owns which global platform shard,
// at which routing epoch. The coordinator is the single writer; members
// and clients hold read-only copies and learn about staleness through
// structured not_owner rejections (svc/protocol.h) that carry the
// responder's epoch.
//
// The table is deliberately value-typed and wire-encodable: the
// coordinator pushes it over the control protocol as one flat JSON line
// (route_table), so melody_loadgen and the chaos harness route with the
// exact same splitting arithmetic the in-process router uses
// (svc::route_worker over the planner's worker offsets).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "svc/wire.h"

namespace melody::cluster {

/// One cluster member (a melody_serve process) as the coordinator sees it.
struct ClusterMember {
  std::string name;
  std::string host = "127.0.0.1";
  int port = 0;           // data-plane port (the member's actual TCP port)
  std::int64_t pid = 0;   // for liveness checks and chaos kills

  bool operator==(const ClusterMember&) const = default;
};

struct RoutingTable {
  std::int64_t epoch = 0;
  int shards = 0;
  int workers = 0;
  /// Per global shard: index into `members`, or -1 while unassigned.
  std::vector<int> owner;
  /// shards + 1 fence posts (svc::contiguous_split of the workers, as
  /// plan_shards splits them); svc::routing_decision routes on it.
  std::vector<int> worker_offsets;
  std::vector<ClusterMember> members;

  /// Every shard has an in-range owner (the cluster can serve).
  bool complete() const noexcept;

  /// Flat wire encoding:
  ///   {"epoch":3,"shards":8,"workers":64,"owner":[0,0,1,...],
  ///    "worker_offsets":[0,8,...,64],"members":2,
  ///    "member0_name":"a","member0_host":"127.0.0.1","member0_port":7201,
  ///    "member0_pid":1234, "member1_name":...}
  svc::WireObject encode() const;
  /// Inverse of encode(). Throws svc::WireError on missing/mistyped
  /// fields and std::invalid_argument on inconsistent shapes (owner or
  /// offsets list not matching the shard count).
  static RoutingTable decode(const svc::WireObject& object);
};

}  // namespace melody::cluster
