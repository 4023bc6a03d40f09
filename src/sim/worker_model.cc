#include "sim/worker_model.h"

#include <algorithm>
#include <cmath>

namespace melody::sim {

auction::Bid submitted_bid(const auction::Bid& true_bid,
                           const BidPolicy& policy, util::Rng& rng) {
  auction::Bid bid = true_bid;
  if (policy.cheat_probability <= 0.0 || !rng.bernoulli(policy.cheat_probability)) {
    return bid;
  }
  auto signed_magnitude = [&](double magnitude) {
    switch (policy.direction) {
      case MisreportDirection::kHigher:
        return rng.uniform(0.0, magnitude);
      case MisreportDirection::kLower:
        return -rng.uniform(0.0, magnitude);
      case MisreportDirection::kRandom:
        return rng.uniform(-magnitude, magnitude);
    }
    return 0.0;
  };
  if (policy.cheat_cost) {
    bid.cost = std::max(0.01, bid.cost * (1.0 + signed_magnitude(policy.cost_magnitude)));
  }
  if (policy.cheat_frequency) {
    const double delta =
        signed_magnitude(static_cast<double>(policy.frequency_magnitude));
    bid.frequency = std::max(
        1, bid.frequency + static_cast<int>(std::lround(delta)));
  }
  return bid;
}

std::vector<SimWorker> sample_population(const WorkerPopulationConfig& config,
                                         util::Rng& rng) {
  std::vector<SimWorker> workers;
  workers.reserve(static_cast<std::size_t>(config.count));
  const int length = std::max(config.horizon, 0);
  for (int i = 0; i < config.count; ++i) {
    const auction::Bid bid{
        rng.uniform(config.cost_min, config.cost_max),
        static_cast<int>(rng.uniform_int(config.frequency_min,
                                         config.frequency_max))};
    const TrajectoryKind kind = sample_kind(config.mix, rng);
    const TrajectoryConfig traj = sample_config(kind, config.horizon, rng);
    workers.emplace_back(static_cast<auction::WorkerId>(i), bid,
                         TrajectoryStream(traj, length, rng));
    rng.discard_normals(static_cast<std::uint64_t>(length));
  }
  return workers;
}

}  // namespace melody::sim
