// SessionRegistry: maps external worker names (arbitrary client strings,
// e.g. "w17" or "alice@example") to the dense internal auction::WorkerId
// space the platform and the estimators use. The registry is the only place
// that knows both sides; everything below the service speaks dense ids.
//
// Registration order is part of the service's deterministic state (the
// next dense id depends on it), so the registry serializes into the service
// checkpoint with its insertion order preserved.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "auction/types.h"

namespace melody::util::binio {
class Reader;
class Writer;
}  // namespace melody::util::binio

namespace melody::svc {

class SessionRegistry {
 public:
  /// Pre-bind a name to an existing dense id (the scenario population).
  /// Throws std::invalid_argument when either side is already bound.
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

  std::size_t size() const noexcept { return order_.size(); }

  /// Serialize in insertion order (magic "MLDYSESS" + version). load
  /// throws std::runtime_error on malformed input and replaces the registry
  /// wholesale.
  void save(util::binio::Writer& out) const;
  void load(util::binio::Reader& in);

 private:
  struct Entry {
    std::string name;
    auction::WorkerId id = -1;
    std::uint64_t bids = 0;
  };

  std::vector<Entry> order_;  // insertion order; index into by maps below
  std::unordered_map<std::string, std::size_t> by_name_;
  std::unordered_map<auction::WorkerId, std::size_t> by_id_;
  auction::WorkerId next_id_ = 0;
};

}  // namespace melody::svc
