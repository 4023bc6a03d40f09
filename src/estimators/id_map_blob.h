// The blob layout the map-backed estimators share (StaticEstimator,
// MlAllRunsEstimator, MlCurrentRunEstimator, GridEstimator): magic and
// version, u64 worker count, then one record per worker in ascending id
// order, each an i32 id followed by the estimator's own fields.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "auction/types.h"
#include "util/binio.h"

namespace melody::estimators {

/// Writes `states` (id -> state) in that layout; `write_fields(state)`
/// appends the fields after each id. Sorted by id so snapshots are
/// byte-identical across runs.
template <typename Map, typename WriteFields>
void save_id_map(util::binio::Writer& out, std::string_view magic,
                 std::uint32_t version, const Map& states,
                 WriteFields write_fields) {
  std::vector<auction::WorkerId> ids;
  ids.reserve(states.size());
  for (const auto& entry : states) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  out.write_header(magic, version);
  out.write_u64(ids.size());
  for (const auction::WorkerId id : ids) {
    out.write_i32(id);
    write_fields(states.at(id));
  }
}

/// Reads a blob in that layout into a new map; `read_fields(what)` parses
/// the fields after each id, with `what` as the error context. Throws
/// std::runtime_error on malformed input, a repeated id included.
template <typename Map, typename ReadFields>
Map load_id_map(util::binio::Reader& in, std::string_view magic,
                std::uint32_t version, const std::string& name,
                ReadFields read_fields) {
  in.read_header(magic, version);
  const std::uint64_t count = in.read_u64((name + " worker count").c_str());
  const std::string what = name + " record";
  Map loaded;
  for (std::uint64_t w = 0; w < count; ++w) {
    const auction::WorkerId id = in.read_i32(what.c_str());
    if (!loaded.emplace(id, read_fields(what.c_str())).second) {
      throw std::runtime_error(name + "::load: duplicate worker id");
    }
  }
  return loaded;
}

}  // namespace melody::estimators
