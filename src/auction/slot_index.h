// The id -> slot index of a per-worker column store (the platform's
// WorkerStateSoA, the MELODY estimator). Ids are slots: an id that sits in
// the slot of its own number (ids[id] == id) is found with one read of the
// owner's id column and costs no hash node. Only ids held at another slot
// (negative, sparse or shuffled ids from library callers) sit in a hash
// map. The service's ids are its registry positions, so its stores never
// touch the map, and a load rebuilds a column, not a 50k-node hash map.
//
// The index does not own the id column: every call takes the owner's
// `ids` (slot -> id, unique ids), and insert() runs before the owner
// appends the new id to it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "auction/types.h"

namespace melody::auction {

class SlotIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Slot of `id` in `ids`, or npos.
  std::size_t find(std::span<const WorkerId> ids, WorkerId id) const {
    if (id >= 0 && static_cast<std::size_t>(id) < ids.size() &&
        ids[static_cast<std::size_t>(id)] == id) {
      return static_cast<std::size_t>(id);
    }
    if (others_.empty()) return npos;
    const auto it = others_.find(id);
    return it == others_.end() ? npos : it->second;
  }

  /// Slot of `id` in `ids`. Throws std::out_of_range "unknown worker id N".
  std::size_t at(std::span<const WorkerId> ids, WorkerId id) const {
    const std::size_t slot = find(ids, id);
    if (slot == npos) {
      throw std::out_of_range("unknown worker id " + std::to_string(id));
    }
    return slot;
  }

  bool contains(std::span<const WorkerId> ids, WorkerId id) const {
    return find(ids, id) != npos;
  }

  /// Index `id` at slot ids.size(), the slot the owner appends it to next.
  /// Returns false, changing nothing, if `id` already has a slot.
  bool insert(std::span<const WorkerId> ids, WorkerId id) {
    if (contains(ids, id)) return false;
    const std::size_t slot = ids.size();
    if (id < 0 || static_cast<std::size_t>(id) != slot) {
      others_.emplace(id, slot);
    }
    return true;
  }

 private:
  std::unordered_map<WorkerId, std::size_t> others_;
};

/// Calls `visit(slot)` for every slot of `ids` in ascending id order: a
/// straight walk when the ids already ascend (every store the service
/// builds), else over a sorted permutation. Saves use it so their records
/// come out by id whatever the slot order.
template <typename Visit>
void for_each_slot_by_id(std::span<const WorkerId> ids, Visit&& visit) {
  if (std::is_sorted(ids.begin(), ids.end())) {
    for (std::size_t slot = 0; slot < ids.size(); ++slot) visit(slot);
    return;
  }
  std::vector<std::size_t> order(ids.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [ids](std::size_t x, std::size_t y) {
    return ids[x] < ids[y];
  });
  for (const std::size_t slot : order) visit(slot);
}

}  // namespace melody::auction
