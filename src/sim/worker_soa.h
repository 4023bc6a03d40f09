// The platform's worker store: the one owner of every worker's ground
// truth, laid out as a structure of arrays for the per-run hot loops. Slot
// i holds a worker's id, true cost and frequency, trajectory stream and
// latent quality at the current run; an auction::SlotIndex finds a
// worker's slot (an id equal to its slot is read off the id column with no
// hash node, so a store of position ids holds no map).
// Slot order is join order, and it is state: bid collection walks it
// against the sequential RNG and the checkpoint writes workers in it. A
// join appends one slot, a re-bid rewrites one, and the platform advances
// every stream once per run.
#pragma once

#include <cstddef>
#include <vector>

#include "auction/slot_index.h"
#include "auction/types.h"
#include "sim/worker_model.h"

namespace melody::sim {

class WorkerStateSoA {
 public:
  /// Capacity for `count` slots in every column.
  void reserve(std::size_t count);

  /// Take a worker into a new last slot, moving his stream in; O(1)
  /// amortized. Throws std::invalid_argument, leaving the store unchanged,
  /// if his id already has a slot.
  void append(SimWorker&& worker);

  std::size_t size() const noexcept { return ids_.size(); }
  const std::vector<auction::WorkerId>& ids() const noexcept { return ids_; }
  const std::vector<double>& costs() const noexcept { return cost_; }
  const std::vector<int>& frequencies() const noexcept { return frequency_; }
  const std::vector<TrajectoryStream>& trajectories() const noexcept {
    return trajectory_;
  }

  /// Dense slot of a worker id. Throws std::out_of_range "unknown worker
  /// id N" for an id with no slot.
  std::size_t slot_of(auction::WorkerId id) const {
    return index_.at(ids_, id);
  }

  bool contains(auction::WorkerId id) const {
    return index_.contains(ids_, id);
  }

  /// Re-bid: replace the true (cost, frequency) of the worker in `slot`.
  void set_bid(std::size_t slot, const auction::Bid& bid) noexcept {
    cost_[slot] = bid.cost;
    frequency_[slot] = bid.frequency;
  }

  /// Latent quality of the worker in `slot` at the current run.
  double latent_quality(std::size_t slot) const noexcept {
    return current_quality_[slot];
  }

  /// Step every stream to 1-based run `run` and refresh the latent quality
  /// column, sharded over util::shared_pool(). Each stream draws only from
  /// its own generator, so any thread count gives the same bits.
  void advance_to(int run);

  /// Per-worker true utilities for one auction outcome, written into
  /// `out[slot]` (resized to size()): payments received minus true cost per
  /// assigned task (Definition 1). A worker completes at most his true
  /// frequency of tasks; payments for assignments beyond it are forfeited
  /// (Section 7.5). One pass over the assignments in result order, so each
  /// worker's sum accumulates in that order; O(workers + assignments).
  void utilities(const auction::AllocationResult& result,
                 std::vector<double>& out) const;

 private:
  std::vector<auction::WorkerId> ids_;
  std::vector<double> cost_;       // true cost c_i
  std::vector<int> frequency_;     // true frequency n_i
  std::vector<TrajectoryStream> trajectory_;
  std::vector<double> current_quality_;  // latent quality q^r per slot
  auction::SlotIndex index_;  // id -> slot over ids_
  mutable std::vector<int> remaining_scratch_;  // utilities() frequency caps
};

}  // namespace melody::sim
