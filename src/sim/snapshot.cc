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
//   utilities: u64 count, sorted by id: i32 id | f64 total. The ids are
//              exactly those of the first `count` worker slots (the slots
//              a step has credited); load refuses any other set, a count
//              above the worker count and ids that do not strictly ascend.
//   estimator: length-prefixed blob produced by QualityEstimator::save_to
//   withdrawn: u64 count, sorted by id: i32 id
//
// The bid book is not stored: it is a rank cache the next step() rebuilds
// from the collected bids, so a loaded platform starts with an empty book.
//
// Version policy: one layout per version; load() reads exactly
// kCheckpointVersion and bumps with any layout change.
#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/platform.h"
#include "util/atomic_file.h"
#include "util/binio.h"

namespace melody::sim {

namespace {

constexpr std::string_view kMagic = "MLDYCKPT";

// A worker record of the layout above (id, bid, trajectory with its rng):
// the worker count is checked against it before anything is reserved.
constexpr std::size_t kWorkerRecordBytes = 4 + 8 + 4 + 1 + 7 * 8 + 3 * 4 +
                                           8 + (4 * 8 + 8 + 1);

namespace binio = util::binio;

void write_rng(binio::Writer& out, const util::Rng::State& rng) {
  for (int i = 0; i < 4; ++i) out.write_u64(rng.words[i]);
  out.write_f64(rng.cached_normal);
  out.write_u8(rng.cached_normal_valid ? 1 : 0);
}

util::Rng::State read_rng(binio::Reader& in) {
  util::Rng::State rng;
  for (int i = 0; i < 4; ++i) {
    rng.words[i] = in.read_u64("rng words");
  }
  rng.cached_normal = in.read_f64("rng cached normal");
  rng.cached_normal_valid = in.read_u8("rng cached flag") != 0;
  return rng;
}

void write_trajectory(binio::Writer& out, const TrajectoryStream& stream) {
  const TrajectoryStream::State s = stream.state();
  out.write_u8(static_cast<std::uint8_t>(s.config.kind));
  for (const double x : {s.config.start_level, s.config.swing,
                         s.config.period, s.config.phase,
                         s.config.noise_stddev, s.config.min_quality,
                         s.config.max_quality}) {
    out.write_f64(x);
  }
  out.write_i32(s.config.horizon);
  out.write_i32(s.length);
  out.write_i32(s.run);
  out.write_f64(s.drift);
  write_rng(out, s.rng);
}

TrajectoryStream read_trajectory(binio::Reader& in) {
  TrajectoryStream::State s;
  s.config.kind = static_cast<TrajectoryKind>(in.read_u8("trajectory kind"));
  for (double* x : {&s.config.start_level, &s.config.swing, &s.config.period,
                    &s.config.phase, &s.config.noise_stddev,
                    &s.config.min_quality, &s.config.max_quality}) {
    *x = in.read_f64("trajectory config");
  }
  s.config.horizon = in.read_i32("trajectory horizon");
  s.length = in.read_i32("trajectory length");
  s.run = in.read_i32("trajectory run");
  s.drift = in.read_f64("trajectory drift");
  s.rng = read_rng(in);
  return TrajectoryStream(s);  // validates
}

}  // namespace

void Platform::save(binio::Writer& out) const {
  out.write_header(kMagic, kCheckpointVersion);
  out.write_u64(master_seed_);
  out.write_i32(run_);

  write_rng(out, rng_.state());

  out.write_f64(fault_plan_.no_show_rate);
  out.write_f64(fault_plan_.score_drop_rate);
  out.write_f64(fault_plan_.score_corrupt_rate);
  out.write_f64(fault_plan_.churn_rate);
  out.write_i32(fault_plan_.churn_min_absence);
  out.write_i32(fault_plan_.churn_max_absence);
  out.write_u64(fault_plan_.salt);

  out.write_u64(soa_.size());
  for (std::size_t slot = 0; slot < soa_.size(); ++slot) {
    out.write_i32(soa_.ids()[slot]);
    out.write_f64(soa_.costs()[slot]);
    out.write_i32(soa_.frequencies()[slot]);
    write_trajectory(out, soa_.trajectories()[slot]);
  }

  std::vector<std::pair<auction::WorkerId, BidPolicy>> policies(
      policies_.begin(), policies_.end());
  std::sort(policies.begin(), policies.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.write_u64(policies.size());
  for (const auto& [id, p] : policies) {
    out.write_i32(id);
    out.write_f64(p.cheat_probability);
    out.write_u8(static_cast<std::uint8_t>(p.direction));
    out.write_u8(p.cheat_cost ? 1 : 0);
    out.write_u8(p.cheat_frequency ? 1 : 0);
    out.write_f64(p.cost_magnitude);
    out.write_i32(p.frequency_magnitude);
  }

  const std::vector<auction::WorkerId>& ids = soa_.ids();
  out.write_u64(total_utility_.size());
  auction::for_each_slot_by_id(
      {ids.data(), total_utility_.size()}, [&](std::size_t slot) {
        out.write_i32(ids[slot]);
        out.write_f64(total_utility_[slot]);
      });

  out.write_blob([this](binio::Writer& blob) { estimator_.save_to(blob); });

  std::vector<auction::WorkerId> withdrawn(withdrawn_.begin(),
                                           withdrawn_.end());
  std::sort(withdrawn.begin(), withdrawn.end());
  out.write_u64(withdrawn.size());
  for (const auction::WorkerId id : withdrawn) out.write_i32(id);
}

void Platform::save(std::ostream& out) const {
  binio::write_stream(out, "platform snapshot",
                      [this](binio::Writer& w) { save(w); });
}

void Platform::load(binio::Reader& in) try {
  in.read_header(kMagic, kCheckpointVersion);

  const std::uint64_t master_seed = in.read_u64("master seed");
  const std::int32_t run = in.read_i32("run index");
  if (run < 0) throw std::runtime_error("platform snapshot: negative run");

  const util::Rng::State rng = read_rng(in);

  FaultPlan plan;
  plan.no_show_rate = in.read_f64("fault no-show rate");
  plan.score_drop_rate = in.read_f64("fault drop rate");
  plan.score_corrupt_rate = in.read_f64("fault corrupt rate");
  plan.churn_rate = in.read_f64("fault churn rate");
  plan.churn_min_absence = in.read_i32("fault churn min");
  plan.churn_max_absence = in.read_i32("fault churn max");
  plan.salt = in.read_u64("fault salt");
  plan.validate();

  const std::uint64_t worker_count = in.read_u64("worker count");
  WorkerStateSoA workers;
  in.reserve(workers, worker_count, kWorkerRecordBytes, "worker count");
  for (std::uint64_t k = 0; k < worker_count; ++k) {
    const auction::WorkerId id = in.read_i32("worker id");
    auction::Bid bid;
    bid.cost = in.read_f64("worker cost");
    bid.frequency = in.read_i32("worker frequency");
    TrajectoryStream trajectory = read_trajectory(in);
    if (trajectory.run() != std::min(run, trajectory.length())) {
      throw std::runtime_error(
          "platform snapshot: trajectory out of step with the run");
    }
    workers.append(SimWorker(id, bid, std::move(trajectory)));
  }

  const std::uint64_t policy_count = in.read_u64("policy count");
  std::unordered_map<auction::WorkerId, BidPolicy> policies;
  for (std::uint64_t k = 0; k < policy_count; ++k) {
    const auction::WorkerId id = in.read_i32("policy id");
    BidPolicy p;
    p.cheat_probability = in.read_f64("policy cheat probability");
    const std::uint8_t direction = in.read_u8("policy direction");
    if (direction > 2) {
      throw std::runtime_error("platform snapshot: bad misreport direction");
    }
    p.direction = static_cast<MisreportDirection>(direction);
    p.cheat_cost = in.read_u8("policy cheat cost") != 0;
    p.cheat_frequency = in.read_u8("policy cheat frequency") != 0;
    p.cost_magnitude = in.read_f64("policy cost magnitude");
    p.frequency_magnitude = in.read_i32("policy frequency magnitude");
    policies[id] = p;
  }

  // The utility column covers the leading slots a step has credited: the
  // section must name exactly the first `count` workers, by ascending id.
  const std::uint64_t utility_count = in.read_u64("utility count");
  if (utility_count > worker_count) {
    throw std::runtime_error(
        "platform snapshot: more utilities than workers");
  }
  std::vector<double> utilities(static_cast<std::size_t>(utility_count));
  auction::WorkerId previous_id = 0;
  for (std::uint64_t k = 0; k < utility_count; ++k) {
    const auction::WorkerId id = in.read_i32("utility id");
    const double total = in.read_f64("utility total");
    if (k > 0 && id <= previous_id) {
      throw std::runtime_error(
          "platform snapshot: utility ids not strictly ascending");
    }
    previous_id = id;
    if (!workers.contains(id)) {
      throw std::runtime_error(
          "platform snapshot: utility for unknown worker id " +
          std::to_string(id));
    }
    const std::size_t slot = workers.slot_of(id);
    if (slot >= utilities.size()) {
      throw std::runtime_error(
          "platform snapshot: utility for worker id " + std::to_string(id) +
          " past the stepped slots");
    }
    utilities[slot] = total;
  }

  const std::string_view blob = in.read_bytes("estimator blob");

  const std::uint64_t withdrawn_count = in.read_u64("withdrawn count");
  if (withdrawn_count > worker_count) {
    throw std::runtime_error("platform snapshot: implausible withdrawals");
  }
  std::unordered_set<auction::WorkerId> withdrawn;
  for (std::uint64_t k = 0; k < withdrawn_count; ++k) {
    withdrawn.insert(in.read_i32("withdrawn id"));
  }

  // Everything parsed: commit wholesale. The estimator's own load replaces
  // its state (including the registered-worker set), so workers registered
  // at construction do not linger as stale entries.
  binio::Reader blob_reader(blob);
  estimator_.load_from(blob_reader);
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
  binio::Writer out;
  platform.save(out);
  util::write_file_atomically(path, out.bytes());
}

void load_checkpoint(Platform& platform, const std::string& path) {
  const util::MappedFile file(path, "checkpoint");
  binio::Reader in(file.bytes());
  platform.load(in);
}

}  // namespace melody::sim
