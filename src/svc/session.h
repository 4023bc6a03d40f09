// SessionRegistry: maps external worker names (arbitrary client strings,
// e.g. "w17" or "alice@example") to the dense internal auction::WorkerId
// space the platform and the estimators use. The registry is the only place
// that knows both sides; everything below the service speaks dense ids.
//
// Ids are positions: the k-th registered name holds id k, so registration
// order is part of the service's deterministic state and the registry
// serializes into the service checkpoint in that order. A name that spells
// its own id under the shard's worker-name offset ("w<offset+id>", the
// scenario population) is found by parsing it; only the other names
// (newcomers, names registered under another offset) sit in a hash map.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "auction/types.h"

namespace melody::util::binio {
class Reader;
class Writer;
}  // namespace melody::util::binio

namespace melody::svc {

/// g for a scenario name "w<g>" (one or more decimal digits, leading zeros
/// allowed) with g < bound; nullopt for any other name. Shared by the
/// router's range affinity and the registry's lookup.
std::optional<std::int64_t> parse_worker_number(std::string_view name,
                                                std::int64_t bound) noexcept;

class SessionRegistry {
 public:
  /// `name_offset` is the global number of this shard's id 0: the scenario
  /// name of id k is "w<name_offset + k>".
  explicit SessionRegistry(int name_offset = 0) : name_offset_(name_offset) {}

  /// Pre-bind a name to the next dense id (the scenario population).
  /// Throws std::invalid_argument when the name is already bound or `id`
  /// is not the next id (size()).
  void bind(const std::string& name, auction::WorkerId id);

  /// Dense id for a name, assigning the next free id to a new name.
  /// `created` (optional) reports whether this call registered the name.
  auction::WorkerId intern(const std::string& name, bool* created = nullptr);

  std::optional<auction::WorkerId> find(const std::string& name) const;

  /// External name for a dense id; nullptr when the id was never bound.
  const std::string* name_of(auction::WorkerId id) const;

  /// Count one bid submission for the worker (session statistics).
  void count_bid(auction::WorkerId id);
  std::uint64_t bids_submitted(auction::WorkerId id) const;

  std::size_t size() const noexcept { return entries_.size(); }

  /// Serialize in id order (magic "MLDYSESS" + version). load throws
  /// std::runtime_error on malformed input (an id that is not its
  /// position, a next id other than the count, a duplicate name) and
  /// replaces the registry wholesale.
  void save(util::binio::Writer& out) const;
  void load(util::binio::Reader& in);

 private:
  struct Entry {
    std::string name;
    std::uint64_t bids = 0;
  };

  bool has(auction::WorkerId id) const noexcept {
    return id >= 0 && static_cast<std::size_t>(id) < entries_.size();
  }
  /// The id whose entry `name` spells and holds ("w<name_offset_ + id>").
  std::optional<auction::WorkerId> find_spelled(std::string_view name) const;
  /// Whether `name` is "w<name_offset_ + id>" as parse_worker_number reads it.
  bool spells(std::string_view name, auction::WorkerId id) const noexcept;
  /// Appends `name` as the next id; the caller has checked that it is new
  /// and whether it spells that id (unspelled names go in the map).
  auction::WorkerId append(std::string name, bool spelled,
                           std::uint64_t bids = 0);

  std::vector<Entry> entries_;  // indexed by dense id
  std::unordered_map<std::string, auction::WorkerId> unspelled_;
  int name_offset_ = 0;
};

}  // namespace melody::svc
