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

/// The bid submitted in a run by a worker with true bid `true_bid` under
/// the given policy.
auction::Bid submitted_bid(const auction::Bid& true_bid,
                           const BidPolicy& policy, util::Rng& rng);

/// One simulated worker: ground truth the platform never sees. This is the
/// input value a population is sampled as and a platform is built or
/// joined from; the platform's WorkerStateSoA takes it apart into columns.
class SimWorker {
 public:
  SimWorker(auction::WorkerId id, auction::Bid true_bid,
            TrajectoryStream trajectory)
      : id_(id), true_bid_(true_bid), trajectory_(std::move(trajectory)) {}

  auction::WorkerId id() const noexcept { return id_; }
  const auction::Bid& true_bid() const noexcept { return true_bid_; }

  /// Latent quality q^r at the trajectory's current run r (see
  /// TrajectoryStream::value; the last value is held past its length).
  double latent_quality() const noexcept { return trajectory_.value(); }

  /// Step the latent quality forward to 1-based run `run`.
  void advance_to(int run) noexcept { trajectory_.advance_to(run); }

  const TrajectoryStream& trajectory() const& noexcept { return trajectory_; }
  /// Moves the stream out (WorkerStateSoA::append takes it this way).
  TrajectoryStream&& trajectory() && noexcept { return std::move(trajectory_); }

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
