#include "cluster/routing.h"

#include <stdexcept>

namespace melody::cluster {

bool RoutingTable::complete() const noexcept {
  if (shards < 1 || static_cast<int>(owner.size()) != shards) return false;
  for (const int m : owner) {
    if (m < 0 || m >= static_cast<int>(members.size())) return false;
  }
  return true;
}

svc::WireObject RoutingTable::encode() const {
  using svc::WireValue;
  svc::WireObject object;
  object.set("epoch", WireValue::of(epoch));
  object.set("shards", WireValue::of(static_cast<std::int64_t>(shards)));
  object.set("workers", WireValue::of(static_cast<std::int64_t>(workers)));
  std::vector<double> owners(owner.begin(), owner.end());
  object.set("owner", WireValue::of(std::move(owners)));
  std::vector<double> offsets(worker_offsets.begin(), worker_offsets.end());
  object.set("worker_offsets", WireValue::of(std::move(offsets)));
  object.set("members",
             WireValue::of(static_cast<std::int64_t>(members.size())));
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::string prefix = "member" + std::to_string(i) + "_";
    object.set(prefix + "name", WireValue::of(members[i].name));
    object.set(prefix + "host", WireValue::of(members[i].host));
    object.set(prefix + "port",
               WireValue::of(static_cast<std::int64_t>(members[i].port)));
    object.set(prefix + "pid", WireValue::of(members[i].pid));
  }
  return object;
}

RoutingTable RoutingTable::decode(const svc::WireObject& object) {
  RoutingTable table;
  table.epoch = static_cast<std::int64_t>(object.number("epoch"));
  table.shards = static_cast<int>(object.number("shards"));
  table.workers = static_cast<int>(object.number("workers"));
  for (const double m : object.number_list("owner")) {
    table.owner.push_back(static_cast<int>(m));
  }
  for (const double o : object.number_list("worker_offsets")) {
    table.worker_offsets.push_back(static_cast<int>(o));
  }
  const auto count = static_cast<std::size_t>(object.number("members"));
  for (std::size_t i = 0; i < count; ++i) {
    const std::string prefix = "member" + std::to_string(i) + "_";
    ClusterMember member;
    member.name = object.text(prefix + "name");
    member.host = object.text(prefix + "host");
    member.port = static_cast<int>(object.number(prefix + "port"));
    member.pid = static_cast<std::int64_t>(object.number(prefix + "pid"));
    table.members.push_back(std::move(member));
  }
  if (table.shards < 1 ||
      static_cast<int>(table.owner.size()) != table.shards ||
      static_cast<int>(table.worker_offsets.size()) != table.shards + 1) {
    throw std::invalid_argument("cluster: inconsistent routing table shape");
  }
  return table;
}

}  // namespace melody::cluster
