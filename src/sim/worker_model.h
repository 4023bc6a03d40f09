// Ground-truth worker models for the simulator: true (private) bids, latent
// quality trajectories, and strategic bidding policies used by the
// truthfulness experiments (Figs. 6-7).
#pragma once

#include <utility>
#include <vector>

#include "auction/types.h"
#include "sim/trajectory.h"
#include "util/rng.h"

namespace melody::sim {

/// How a strategic worker misreports relative to his true value.
enum class MisreportDirection { kHigher, kLower, kRandom };

/// A per-run bidding strategy. With probability cheat_probability the
/// worker misreports the chosen field(s) by up to `magnitude` (relative for
/// cost, absolute task count for frequency); otherwise he bids truthfully.
struct BidPolicy {
  double cheat_probability = 0.0;
  MisreportDirection direction = MisreportDirection::kRandom;
  bool cheat_cost = true;
  bool cheat_frequency = false;
  /// Relative cost perturbation bound (e.g. 0.5 -> up to +/-50%).
  double cost_magnitude = 0.5;
  /// Absolute frequency perturbation bound in tasks.
  int frequency_magnitude = 2;

  static BidPolicy truthful() { return {}; }
};

/// One simulated worker: ground truth the platform never sees.
class SimWorker {
 public:
  SimWorker(auction::WorkerId id, auction::Bid true_bid,
            TrajectoryStream trajectory)
      : id_(id), true_bid_(true_bid), trajectory_(std::move(trajectory)) {}

  auction::WorkerId id() const noexcept { return id_; }
  const auction::Bid& true_bid() const noexcept { return true_bid_; }

  /// Re-bid: replace the worker's true (cost, frequency). Online platforms
  /// accept bid updates between runs (svc `update_bid`); the new bid is
  /// what truthful bidding and utility accounting use from now on.
  void set_true_bid(const auction::Bid& bid) noexcept { true_bid_ = bid; }

  /// Latent quality q^r at the trajectory's current run r (see
  /// TrajectoryStream::value; the last value is held past its length).
  double latent_quality() const noexcept { return trajectory_.value(); }

  /// Step the latent quality forward to 1-based run `run`.
  void advance_to(int run) noexcept { trajectory_.advance_to(run); }

  const TrajectoryStream& trajectory() const noexcept { return trajectory_; }

  /// The bid submitted in a run under the given policy.
  auction::Bid submitted_bid(const BidPolicy& policy, util::Rng& rng) const;

  /// Worker's true utility for an auction outcome: payments received minus
  /// true cost per assigned task (Definition 1).
  double utility(const auction::AllocationResult& result) const;

 private:
  auction::WorkerId id_;
  auction::Bid true_bid_;
  TrajectoryStream trajectory_;
};

/// Parameter ranges for sampling a ground-truth population.
struct WorkerPopulationConfig {
  int count = 300;
  double cost_min = 1.0;
  double cost_max = 2.0;
  int frequency_min = 1;
  int frequency_max = 5;
  PopulationMix mix;
  int horizon = 1000;  // trajectory length in runs
};

/// Sample a full population with per-worker trajectories. Each worker's
/// stream starts from a copy of `rng` where his trajectory begins, and
/// `rng` then skips that trajectory's draws, so it ends where generating
/// every trajectory in full would leave it.
std::vector<SimWorker> sample_population(const WorkerPopulationConfig& config,
                                         util::Rng& rng);

}  // namespace melody::sim
