#include "svc/session.h"

#include <stdexcept>

#include "util/binio.h"

namespace melody::svc {

namespace {
constexpr std::string_view kMagic = "MLDYSESS";
constexpr std::uint32_t kVersion = 1;
namespace binio = util::binio;
}  // namespace

std::optional<std::int64_t> parse_worker_number(
    const std::string_view name, const std::int64_t bound) noexcept {
  if (name.size() < 2 || name.front() != 'w') return std::nullopt;
  std::int64_t g = 0;
  for (const char c : name.substr(1)) {
    if (c < '0' || c > '9' || g >= bound) return std::nullopt;
    g = g * 10 + (c - '0');
  }
  return g < bound ? std::optional(g) : std::nullopt;
}

std::optional<auction::WorkerId> SessionRegistry::find_spelled(
    const std::string_view name) const {
  const auto g = parse_worker_number(
      name, name_offset_ + static_cast<std::int64_t>(entries_.size()));
  if (!g || *g < name_offset_ ||
      entries_[static_cast<std::size_t>(*g - name_offset_)].name != name) {
    return std::nullopt;
  }
  return static_cast<auction::WorkerId>(*g - name_offset_);
}

bool SessionRegistry::spells(const std::string_view name,
                             const auction::WorkerId id) const noexcept {
  const std::int64_t g = name_offset_ + static_cast<std::int64_t>(id);
  return parse_worker_number(name, g + 1) == g;
}

auction::WorkerId SessionRegistry::append(std::string name,
                                          const bool spelled,
                                          const std::uint64_t bids) {
  const auto id = static_cast<auction::WorkerId>(entries_.size());
  if (!spelled) unspelled_.emplace(name, id);
  entries_.push_back(Entry{std::move(name), bids});
  return id;
}

void SessionRegistry::bind(const std::string& name, auction::WorkerId id) {
  if (find(name).has_value()) {
    throw std::invalid_argument("session: name already bound: " + name);
  }
  if (id < 0 || static_cast<std::size_t>(id) != entries_.size()) {
    throw std::invalid_argument("session: not the next id: " +
                                std::to_string(id));
  }
  append(name, spells(name, id));
}

auction::WorkerId SessionRegistry::intern(const std::string& name,
                                          bool* created) {
  const auto existing = find(name);
  if (created != nullptr) *created = !existing.has_value();
  if (existing.has_value()) return *existing;
  return append(name, spells(name, static_cast<auction::WorkerId>(size())));
}

std::optional<auction::WorkerId> SessionRegistry::find(
    const std::string& name) const {
  if (const auto id = find_spelled(name)) return id;
  const auto it = unspelled_.find(name);
  if (it == unspelled_.end()) return std::nullopt;
  return it->second;
}

const std::string* SessionRegistry::name_of(auction::WorkerId id) const {
  return has(id) ? &entries_[static_cast<std::size_t>(id)].name : nullptr;
}

void SessionRegistry::count_bid(auction::WorkerId id) {
  if (has(id)) ++entries_[static_cast<std::size_t>(id)].bids;
}

std::uint64_t SessionRegistry::bids_submitted(auction::WorkerId id) const {
  return has(id) ? entries_[static_cast<std::size_t>(id)].bids : 0;
}

void SessionRegistry::save(binio::Writer& out) const {
  out.write_header(kMagic, kVersion);
  out.write_u64(entries_.size());
  for (std::size_t k = 0; k < entries_.size(); ++k) {
    out.write_bytes(entries_[k].name);
    out.write_i32(static_cast<auction::WorkerId>(k));
    out.write_u64(entries_[k].bids);
  }
  out.write_i32(static_cast<auction::WorkerId>(entries_.size()));
}

void SessionRegistry::load(binio::Reader& in) {
  in.read_header(kMagic, kVersion);
  const std::uint64_t count = in.read_u64("session count");
  SessionRegistry loaded(name_offset_);
  // An entry is u64 name length | name | i32 id | u64 bids.
  in.reserve(loaded.entries_, count, 8 + 4 + 8, "session count");
  for (std::uint64_t k = 0; k < count; ++k) {
    std::string name(in.read_bytes("session name", 1 << 16));
    const auction::WorkerId id = in.read_i32("session id");
    const std::uint64_t bids = in.read_u64("session bids");
    if (id < 0 || static_cast<std::uint64_t>(id) != k) {
      throw std::runtime_error("session registry: id out of order");
    }
    // A name that spells its own id can repeat only a name in the map (an
    // earlier newcomer that took it); any other name may also repeat one
    // that an earlier entry spells.
    const bool spelled = loaded.spells(name, id);
    if (spelled ? loaded.unspelled_.count(name) != 0
                : loaded.find(name).has_value()) {
      throw std::runtime_error("session registry: duplicate entry");
    }
    loaded.append(std::move(name), spelled, bids);
  }
  if (in.read_i32("session next id") !=
      static_cast<auction::WorkerId>(count)) {
    throw std::runtime_error("session registry: next id is not the count");
  }
  *this = std::move(loaded);
}

}  // namespace melody::svc
