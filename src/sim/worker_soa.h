// Structure-of-arrays view over the platform's worker population for the
// per-run hot loops: contiguous id/cost/frequency arrays plus each worker's
// latent quality at the current run, with an id -> slot index replacing
// the per-step `by_id` hash map the platform used to rebuild every run.
//
// This is a *facade*: SimWorker remains the owner of all ground-truth
// state (including the trajectory stream; the checkpoint format
// serializes SimWorkers in platform order). The SoA arrays are derived
// views — slot i always describes workers[i]. They are built in full at
// construction and snapshot load; a join appends one slot, a re-bid
// rewrites one, and the platform refreshes the latent column once per run
// after advancing every stream.
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "auction/types.h"
#include "sim/worker_model.h"

namespace melody::sim {

class WorkerStateSoA {
 public:
  /// Derive the arrays from `workers` (slot i <- workers[i]); O(N).
  void rebuild(std::span<const SimWorker> workers);

  /// Describe one more worker in a new last slot; O(1) amortized. An id
  /// already present keeps its first slot in the index, as in rebuild.
  void append(const SimWorker& worker);

  std::size_t size() const noexcept { return ids_.size(); }
  const std::vector<auction::WorkerId>& ids() const noexcept { return ids_; }
  const std::vector<double>& costs() const noexcept { return cost_; }
  const std::vector<int>& frequencies() const noexcept { return frequency_; }

  /// Dense slot of a worker id. Throws std::out_of_range for unknown ids
  /// (same contract the platform's old by_id map lookup had).
  std::size_t slot_of(auction::WorkerId id) const { return index_.at(id); }

  bool contains(auction::WorkerId id) const { return index_.contains(id); }

  /// Targeted bid update mirroring SimWorker::set_true_bid — keeps the
  /// derived arrays in sync without an O(N) rebuild.
  void set_bid(std::size_t slot, const auction::Bid& bid) noexcept {
    cost_[slot] = bid.cost;
    frequency_[slot] = bid.frequency;
  }

  /// Latent quality of the worker in `slot` at the current run.
  double latent_quality(std::size_t slot) const noexcept {
    return current_quality_[slot];
  }
  void set_latent_quality(std::size_t slot, double quality) noexcept {
    current_quality_[slot] = quality;
  }

  /// Per-worker true utilities for one auction outcome, written into
  /// `out[slot]` (resized to size()). Single pass over the assignments in
  /// result order with the same per-worker frequency cap and accumulation
  /// order as SimWorker::utility — each worker's sum is the bit-identical
  /// double — replacing the platform's old O(workers x assignments)
  /// per-worker scans with O(workers + assignments).
  void utilities(const auction::AllocationResult& result,
                 std::vector<double>& out) const;

 private:
  std::vector<auction::WorkerId> ids_;
  std::vector<double> cost_;       // true cost c_i
  std::vector<int> frequency_;     // true frequency n_i
  std::vector<double> current_quality_;  // latent quality q^r per slot
  std::unordered_map<auction::WorkerId, std::size_t> index_;
  mutable std::vector<int> remaining_scratch_;  // utilities() frequency caps
};

}  // namespace melody::sim
