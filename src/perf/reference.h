// Scalar (pre-SoA) reference implementations of the two hot paths the SoA
// refactor rewrites: Algorithm 1's greedy ranking / pre-allocation /
// pricing over pointer-chasing AoS state, and the MELODY Kalman/EM chain
// stored as one hash-map node per worker, fitting EM one worker at a time
// with its own frozen copy of the pre-lane-kernel fit.
//
// They are the refactor's ground truth twice over:
//   * tests/test_soa_equivalence.cc and test_mechanism_properties.cc assert
//     that the production (SoA) paths match these bit for bit on randomized
//     markets and score streams;
//   * tools/melody_perfsuite times them as the before-layout baseline, so
//     every artifact carries a falsifiable "speedup_vs_scalar".
//
// Deliberately serial and obs-free: this is the algorithm at its plainest,
// kept frozen while the production layout evolves. Do not "optimize" it.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "auction/melody_auction.h"
#include "auction/types.h"
#include "estimators/melody_estimator.h"
#include "lds/gaussian.h"
#include "lds/kalman.h"

namespace melody::perf::reference {

/// One pre-allocated task (mirror of auction::internal::PreAllocation).
struct PreAllocation {
  std::size_t task_index = 0;
  std::vector<std::size_t> winners;  // indices into the ranking queue
  std::vector<double> payments;      // parallel to winners
  double total_payment = 0.0;        // P_j
};

/// Algorithm 1 lines 1-2 over AoS profiles: qualification filter plus the
/// ranking queue (descending estimated quality per unit cost, ties by id),
/// with the ratio recomputed inside every comparison exactly as the
/// pre-refactor code did.
std::vector<const auction::WorkerProfile*> build_ranking_queue(
    std::span<const auction::WorkerProfile> workers,
    const auction::AuctionConfig& config);

/// Algorithm 1 lines 3-14: pre-allocation and pricing, walking the queue
/// through the profile pointers.
std::vector<PreAllocation> pre_allocate(
    const std::vector<const auction::WorkerProfile*>& queue,
    std::span<const auction::Task> tasks, auction::PaymentRule rule);

/// The full mechanism (stages 1 + 2 including the budget-ordered commit):
/// reference twin of auction::MelodyAuction::run.
auction::AllocationResult run_greedy(
    std::span<const auction::WorkerProfile> workers,
    std::span<const auction::Task> tasks,
    const auction::AuctionConfig& config, auction::PaymentRule rule);

/// AoS twin of estimators::MelodyEstimator: identical update semantics
/// (Theorem 3 filter step, periodic EM, window sliding, clamps) but the
/// per-worker state lives in one unordered_map node per worker — the layout
/// the SoA refactor replaced. save() emits the same MLDYTRKR binary
/// snapshot, so a full snapshot string can be compared against the
/// production estimator's for bit-identity.
class AosKalmanChain {
 public:
  explicit AosKalmanChain(estimators::MelodyEstimatorConfig config = {})
      : config_(std::move(config)) {
    config_.initial_params.validate();
  }

  void register_worker(auction::WorkerId id);
  void observe(auction::WorkerId id, const lds::ScoreSet& scores);
  double estimate(auction::WorkerId id) const;
  void save(util::binio::Writer& out) const;

  std::size_t worker_count() const noexcept { return states_.size(); }

 private:
  struct State {
    lds::Gaussian posterior;
    lds::LdsParams params;
    lds::ScoreHistory history;
    lds::Gaussian window_anchor;
    int runs_since_em = 0;
    int runs_seen = 0;
    int observed_runs = 0;
    int em_count = 0;
  };

  estimators::MelodyEstimatorConfig config_;
  std::unordered_map<auction::WorkerId, State> states_;
};

}  // namespace melody::perf::reference
