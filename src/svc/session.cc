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

void SessionRegistry::save(std::ostream& out) const {
  binio::write_header(out, kMagic, kVersion);
  binio::write_u64(out, order_.size());
  for (const Entry& entry : order_) {
    binio::write_bytes(out, entry.name);
    binio::write_i32(out, entry.id);
    binio::write_u64(out, entry.bids);
  }
  binio::write_i32(out, next_id_);
  if (!out) throw std::runtime_error("session registry: write failure");
}

void SessionRegistry::load(std::istream& in) {
  binio::read_header(in, kMagic, kVersion);
  const std::uint64_t count = binio::read_u64(in, "session count");
  std::vector<Entry> order;
  binio::reserve_bounded(order, count);
  std::unordered_map<std::string, std::size_t> by_name;
  std::unordered_map<auction::WorkerId, std::size_t> by_id;
  for (std::uint64_t k = 0; k < count; ++k) {
    Entry entry;
    entry.name = binio::read_bytes(in, "session name", 1 << 16);
    entry.id = binio::read_i32(in, "session id");
    entry.bids = binio::read_u64(in, "session bids");
    if (!by_name.emplace(entry.name, order.size()).second ||
        !by_id.emplace(entry.id, order.size()).second) {
      throw std::runtime_error("session registry: duplicate entry");
    }
    order.push_back(std::move(entry));
  }
  const auction::WorkerId next_id = binio::read_i32(in, "session next id");
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
