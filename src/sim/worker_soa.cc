#include "sim/worker_soa.h"

namespace melody::sim {

void WorkerStateSoA::rebuild(std::span<const SimWorker> workers) {
  *this = WorkerStateSoA();
  index_.reserve(workers.size());
  for (const SimWorker& w : workers) append(w);
}

void WorkerStateSoA::append(const SimWorker& worker) {
  index_.emplace(worker.id(), ids_.size());
  ids_.push_back(worker.id());
  cost_.push_back(worker.true_bid().cost);
  frequency_.push_back(worker.true_bid().frequency);
  current_quality_.push_back(worker.latent_quality());
}

void WorkerStateSoA::utilities(const auction::AllocationResult& result,
                               std::vector<double>& out) const {
  out.assign(ids_.size(), 0.0);
  remaining_scratch_.assign(frequency_.begin(), frequency_.end());
  // A worker can complete at most his true frequency of tasks; payments
  // for assignments beyond it are forfeited (Section 7.5). Assignments are
  // visited in result order, so each worker's partial sums accumulate in
  // the same order SimWorker::utility produced them.
  for (const auto& a : result.assignments) {
    const auto it = index_.find(a.worker);
    if (it == index_.end()) continue;
    const std::size_t slot = it->second;
    if (remaining_scratch_[slot] == 0) continue;
    --remaining_scratch_[slot];
    out[slot] += a.payment - cost_[slot];
  }
}

}  // namespace melody::sim
