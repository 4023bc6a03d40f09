#include "sim/worker_soa.h"

#include <stdexcept>
#include <string>

#include "util/parallel_for.h"

namespace melody::sim {

void WorkerStateSoA::reserve(std::size_t count) {
  ids_.reserve(count);
  cost_.reserve(count);
  frequency_.reserve(count);
  trajectory_.reserve(count);
  current_quality_.reserve(count);
}

void WorkerStateSoA::append(SimWorker&& worker) {
  if (!index_.insert(ids_, worker.id())) {
    throw std::invalid_argument("worker id " + std::to_string(worker.id()) +
                                " already has a slot");
  }
  ids_.push_back(worker.id());
  cost_.push_back(worker.true_bid().cost);
  frequency_.push_back(worker.true_bid().frequency);
  current_quality_.push_back(worker.latent_quality());
  trajectory_.push_back(std::move(worker).trajectory());
}

void WorkerStateSoA::advance_to(int run) {
  util::parallel_for(
      util::shared_pool(), trajectory_.size(),
      [this, run](std::size_t i) {
        trajectory_[i].advance_to(run);
        current_quality_[i] = trajectory_[i].value();
      },
      /*min_grain=*/1024);
}

void WorkerStateSoA::utilities(const auction::AllocationResult& result,
                               std::vector<double>& out) const {
  out.assign(ids_.size(), 0.0);
  remaining_scratch_.assign(frequency_.begin(), frequency_.end());
  for (const auto& a : result.assignments) {
    const std::size_t slot = index_.find(ids_, a.worker);
    if (slot == auction::SlotIndex::npos) continue;
    if (remaining_scratch_[slot] == 0) continue;
    --remaining_scratch_[slot];
    out[slot] += a.payment - cost_[slot];
  }
}

}  // namespace melody::sim
