#include "svc/session.h"

#include <algorithm>
#include <stdexcept>

#include "util/binio.h"

namespace melody::svc {

namespace {
constexpr std::string_view kMagic = "MLDYSESS";
constexpr std::uint32_t kVersion = 1;
namespace binio = util::binio;
}  // namespace

void SessionRegistry::bind(const std::string& name, auction::WorkerId id) {
  if (by_name_.count(name) != 0) {
    throw std::invalid_argument("session: name already bound: " + name);
  }
  if (by_id_.count(id) != 0) {
    throw std::invalid_argument("session: id already bound: " +
                                std::to_string(id));
  }
  by_name_[name] = order_.size();
  by_id_[id] = order_.size();
  order_.push_back(Entry{name, id, 0});
  next_id_ = std::max(next_id_, id + 1);
}

auction::WorkerId SessionRegistry::intern(const std::string& name,
                                          bool* created) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    if (created != nullptr) *created = false;
    return order_[it->second].id;
  }
  const auction::WorkerId id = next_id_;
  bind(name, id);
  if (created != nullptr) *created = true;
  return id;
}

std::optional<auction::WorkerId> SessionRegistry::find(
    const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return order_[it->second].id;
}

const std::string* SessionRegistry::name_of(auction::WorkerId id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return nullptr;
  return &order_[it->second].name;
}

void SessionRegistry::count_bid(auction::WorkerId id) {
  const auto it = by_id_.find(id);
  if (it != by_id_.end()) ++order_[it->second].bids;
}

std::uint64_t SessionRegistry::bids_submitted(auction::WorkerId id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? 0 : order_[it->second].bids;
}

void SessionRegistry::save(binio::Writer& out) const {
  out.write_header(kMagic, kVersion);
  out.write_u64(order_.size());
  for (const Entry& entry : order_) {
    out.write_bytes(entry.name);
    out.write_i32(entry.id);
    out.write_u64(entry.bids);
  }
  out.write_i32(next_id_);
}

void SessionRegistry::load(binio::Reader& in) {
  in.read_header(kMagic, kVersion);
  const std::uint64_t count = in.read_u64("session count");
  std::vector<Entry> order;
  // An entry is u64 name length | name | i32 id | u64 bids.
  in.reserve(order, count, 8 + 4 + 8, "session count");
  std::unordered_map<std::string, std::size_t> by_name;
  std::unordered_map<auction::WorkerId, std::size_t> by_id;
  for (std::uint64_t k = 0; k < count; ++k) {
    Entry entry;
    entry.name = std::string(in.read_bytes("session name", 1 << 16));
    entry.id = in.read_i32("session id");
    entry.bids = in.read_u64("session bids");
    if (!by_name.emplace(entry.name, order.size()).second ||
        !by_id.emplace(entry.id, order.size()).second) {
      throw std::runtime_error("session registry: duplicate entry");
    }
    order.push_back(std::move(entry));
  }
  const auction::WorkerId next_id = in.read_i32("session next id");
  for (const Entry& entry : order) {
    if (entry.id >= next_id) {  // intern would hand out a bound id
      throw std::runtime_error(
          "session registry: next id not above every bound id");
    }
  }
  order_ = std::move(order);
  by_name_ = std::move(by_name);
  by_id_ = std::move(by_id);
  next_id_ = next_id;
}

}  // namespace melody::svc
