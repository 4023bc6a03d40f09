// Versioned binary snapshots of the Platform (checkpoint/resume support).
//
// Layout (all integers little-endian, see util/binio.h):
//   magic "MLDYCKPT" (8 bytes) | u32 version (kCheckpointVersion)
//   u64 master_seed | i32 run
//   sequential RNG: 4 x u64 words | f64 cached_normal | u8 cached_valid
//   fault plan: f64 no_show | f64 drop | f64 corrupt | f64 churn
//               | i32 churn_min | i32 churn_max | u64 salt
//   workers: u64 count, then per worker in slot order (bid collection
//            iterates it against the sequential RNG, so it is part of the
//            deterministic state, NOT sorted; ids are unique):
//            i32 id | f64 cost | i32 frequency | trajectory stream:
//            u8 kind | f64 start_level | f64 swing | f64 period | f64 phase
//            | f64 noise_stddev | f64 min_quality | f64 max_quality
//            | i32 horizon | i32 length | i32 run | f64 drift
//            | RNG as above (4 x u64 | f64 | u8)
//            118 bytes of stream whatever the horizon; load validates it
//            (TrajectoryStream's constructor) and requires its run to be
//            min(run index, length), as stepping leaves it.
//   policies: u64 count, sorted by id (map iteration order is not
//             deterministic; sorting keeps snapshot bytes reproducible):
//             i32 id | f64 cheat_p | u8 direction | u8 cheat_cost
//             | u8 cheat_freq | f64 cost_mag | i32 freq_mag
//   utilities: u64 count, sorted by id: i32 id | f64 total
//   estimator: length-prefixed blob produced by QualityEstimator::save
//   withdrawn: u64 count, sorted by id: i32 id
//
// The bid book is not stored: it is a rank cache the next step() rebuilds
// from the collected bids, so a loaded platform starts with an empty book.
//
// Version policy: one layout per version; load() reads exactly
// kCheckpointVersion and bumps with any layout change.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/platform.h"
#include "util/atomic_file.h"
#include "util/binio.h"

namespace melody::sim {

namespace {

constexpr std::string_view kMagic = "MLDYCKPT";

namespace binio = util::binio;

void write_rng(std::ostream& out, const util::Rng::State& rng) {
  for (int i = 0; i < 4; ++i) binio::write_u64(out, rng.words[i]);
  binio::write_f64(out, rng.cached_normal);
  binio::write_u8(out, rng.cached_normal_valid ? 1 : 0);
}

util::Rng::State read_rng(std::istream& in) {
  util::Rng::State rng;
  for (int i = 0; i < 4; ++i) {
    rng.words[i] = binio::read_u64(in, "rng words");
  }
  rng.cached_normal = binio::read_f64(in, "rng cached normal");
  rng.cached_normal_valid = binio::read_u8(in, "rng cached flag") != 0;
  return rng;
}

void write_trajectory(std::ostream& out, const TrajectoryStream& stream) {
  const TrajectoryStream::State s = stream.state();
  binio::write_u8(out, static_cast<std::uint8_t>(s.config.kind));
  for (const double x : {s.config.start_level, s.config.swing,
                         s.config.period, s.config.phase,
                         s.config.noise_stddev, s.config.min_quality,
                         s.config.max_quality}) {
    binio::write_f64(out, x);
  }
  binio::write_i32(out, s.config.horizon);
  binio::write_i32(out, s.length);
  binio::write_i32(out, s.run);
  binio::write_f64(out, s.drift);
  write_rng(out, s.rng);
}

TrajectoryStream read_trajectory(std::istream& in) {
  TrajectoryStream::State s;
  s.config.kind =
      static_cast<TrajectoryKind>(binio::read_u8(in, "trajectory kind"));
  for (double* x : {&s.config.start_level, &s.config.swing, &s.config.period,
                    &s.config.phase, &s.config.noise_stddev,
                    &s.config.min_quality, &s.config.max_quality}) {
    *x = binio::read_f64(in, "trajectory config");
  }
  s.config.horizon = binio::read_i32(in, "trajectory horizon");
  s.length = binio::read_i32(in, "trajectory length");
  s.run = binio::read_i32(in, "trajectory run");
  s.drift = binio::read_f64(in, "trajectory drift");
  s.rng = read_rng(in);
  return TrajectoryStream(s);  // validates
}

}  // namespace

void Platform::save(std::ostream& out) const {
  binio::write_header(out, kMagic, kCheckpointVersion);
  binio::write_u64(out, master_seed_);
  binio::write_i32(out, run_);

  write_rng(out, rng_.state());

  binio::write_f64(out, fault_plan_.no_show_rate);
  binio::write_f64(out, fault_plan_.score_drop_rate);
  binio::write_f64(out, fault_plan_.score_corrupt_rate);
  binio::write_f64(out, fault_plan_.churn_rate);
  binio::write_i32(out, fault_plan_.churn_min_absence);
  binio::write_i32(out, fault_plan_.churn_max_absence);
  binio::write_u64(out, fault_plan_.salt);

  binio::write_u64(out, soa_.size());
  for (std::size_t slot = 0; slot < soa_.size(); ++slot) {
    binio::write_i32(out, soa_.ids()[slot]);
    binio::write_f64(out, soa_.costs()[slot]);
    binio::write_i32(out, soa_.frequencies()[slot]);
    write_trajectory(out, soa_.trajectories()[slot]);
  }

  std::vector<std::pair<auction::WorkerId, BidPolicy>> policies(
      policies_.begin(), policies_.end());
  std::sort(policies.begin(), policies.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  binio::write_u64(out, policies.size());
  for (const auto& [id, p] : policies) {
    binio::write_i32(out, id);
    binio::write_f64(out, p.cheat_probability);
    binio::write_u8(out, static_cast<std::uint8_t>(p.direction));
    binio::write_u8(out, p.cheat_cost ? 1 : 0);
    binio::write_u8(out, p.cheat_frequency ? 1 : 0);
    binio::write_f64(out, p.cost_magnitude);
    binio::write_i32(out, p.frequency_magnitude);
  }

  std::vector<std::pair<auction::WorkerId, double>> utilities(
      total_utility_.begin(), total_utility_.end());
  std::sort(utilities.begin(), utilities.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  binio::write_u64(out, utilities.size());
  for (const auto& [id, total] : utilities) {
    binio::write_i32(out, id);
    binio::write_f64(out, total);
  }

  std::ostringstream blob;
  estimator_.save(blob);
  binio::write_bytes(out, blob.str());

  std::vector<auction::WorkerId> withdrawn(withdrawn_.begin(),
                                           withdrawn_.end());
  std::sort(withdrawn.begin(), withdrawn.end());
  binio::write_u64(out, withdrawn.size());
  for (const auction::WorkerId id : withdrawn) binio::write_i32(out, id);

  if (!out) throw std::runtime_error("platform snapshot: write failure");
}

void Platform::load(std::istream& in) try {
  binio::read_header(in, kMagic, kCheckpointVersion);

  const std::uint64_t master_seed = binio::read_u64(in, "master seed");
  const std::int32_t run = binio::read_i32(in, "run index");
  if (run < 0) throw std::runtime_error("platform snapshot: negative run");

  const util::Rng::State rng = read_rng(in);

  FaultPlan plan;
  plan.no_show_rate = binio::read_f64(in, "fault no-show rate");
  plan.score_drop_rate = binio::read_f64(in, "fault drop rate");
  plan.score_corrupt_rate = binio::read_f64(in, "fault corrupt rate");
  plan.churn_rate = binio::read_f64(in, "fault churn rate");
  plan.churn_min_absence = binio::read_i32(in, "fault churn min");
  plan.churn_max_absence = binio::read_i32(in, "fault churn max");
  plan.salt = binio::read_u64(in, "fault salt");
  plan.validate();

  const std::uint64_t worker_count = binio::read_u64(in, "worker count");
  WorkerStateSoA workers;
  binio::reserve_bounded(workers, worker_count);
  for (std::uint64_t k = 0; k < worker_count; ++k) {
    const auction::WorkerId id = binio::read_i32(in, "worker id");
    auction::Bid bid;
    bid.cost = binio::read_f64(in, "worker cost");
    bid.frequency = binio::read_i32(in, "worker frequency");
    TrajectoryStream trajectory = read_trajectory(in);
    if (trajectory.run() != std::min(run, trajectory.length())) {
      throw std::runtime_error(
          "platform snapshot: trajectory out of step with the run");
    }
    workers.append(SimWorker(id, bid, std::move(trajectory)));
  }

  const std::uint64_t policy_count = binio::read_u64(in, "policy count");
  std::unordered_map<auction::WorkerId, BidPolicy> policies;
  for (std::uint64_t k = 0; k < policy_count; ++k) {
    const auction::WorkerId id = binio::read_i32(in, "policy id");
    BidPolicy p;
    p.cheat_probability = binio::read_f64(in, "policy cheat probability");
    const std::uint8_t direction = binio::read_u8(in, "policy direction");
    if (direction > 2) {
      throw std::runtime_error("platform snapshot: bad misreport direction");
    }
    p.direction = static_cast<MisreportDirection>(direction);
    p.cheat_cost = binio::read_u8(in, "policy cheat cost") != 0;
    p.cheat_frequency = binio::read_u8(in, "policy cheat frequency") != 0;
    p.cost_magnitude = binio::read_f64(in, "policy cost magnitude");
    p.frequency_magnitude = binio::read_i32(in, "policy frequency magnitude");
    policies[id] = p;
  }

  const std::uint64_t utility_count = binio::read_u64(in, "utility count");
  std::unordered_map<auction::WorkerId, double> utilities;
  for (std::uint64_t k = 0; k < utility_count; ++k) {
    const auction::WorkerId id = binio::read_i32(in, "utility id");
    utilities[id] = binio::read_f64(in, "utility total");
  }

  const std::string blob = binio::read_bytes(in, "estimator blob");

  const std::uint64_t withdrawn_count = binio::read_u64(in, "withdrawn count");
  if (withdrawn_count > worker_count) {
    throw std::runtime_error("platform snapshot: implausible withdrawals");
  }
  std::unordered_set<auction::WorkerId> withdrawn;
  for (std::uint64_t k = 0; k < withdrawn_count; ++k) {
    withdrawn.insert(binio::read_i32(in, "withdrawn id"));
  }

  // Everything parsed: commit wholesale. The estimator's own load replaces
  // its state (including the registered-worker set), so workers registered
  // at construction do not linger as stale entries.
  std::istringstream blob_stream(blob);
  estimator_.load(blob_stream);
  // Every worker must be registered with the estimator, or the next step
  // would fail: estimate() throws std::out_of_range for an unknown id (the
  // estimator already holds the snapshot's state by then).
  for (const auction::WorkerId id : workers.ids()) estimator_.estimate(id);
  master_seed_ = master_seed;
  run_ = run;
  rng_.restore(rng);
  fault_plan_ = plan;
  soa_ = std::move(workers);
  policies_ = std::move(policies);
  total_utility_ = std::move(utilities);
  last_result_ = auction::AllocationResult{};
  withdrawn_ = std::move(withdrawn);
  bid_book_.clear();
} catch (const std::logic_error& e) {
  // The validators of a fault plan, a trajectory stream or estimator
  // hyper-parameters, a repeated worker id and an unknown-worker estimate
  // throw logic_error subclasses; inside a snapshot each means malformed
  // input.
  throw std::runtime_error(std::string("platform snapshot: ") + e.what());
}

void save_checkpoint(const Platform& platform, const std::string& path) {
  util::write_file_atomically(
      path, [&platform](std::ostream& out) { platform.save(out); });
}

void load_checkpoint(Platform& platform, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  platform.load(in);
}

}  // namespace melody::sim
