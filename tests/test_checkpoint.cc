// Crash-resume robustness: a platform restored from a checkpoint must
// continue bit-identically to one that never stopped — same RunRecord
// stream, same estimator state, same snapshot bytes — at any thread count,
// with and without an active fault plan.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "auction/melody_auction.h"
#include "estimators/melody_estimator.h"
#include "sim/platform.h"
#include "util/atomic_file.h"
#include "util/binio.h"
#include "util/thread_pool.h"

namespace melody::sim {
namespace {

LongTermScenario small_scenario() {
  LongTermScenario s;
  s.num_workers = 40;
  s.num_tasks = 30;
  s.runs = 16;
  s.budget = 120.0;
  return s;
}

estimators::MelodyEstimatorConfig tracker_config(const LongTermScenario& s) {
  estimators::MelodyEstimatorConfig config;
  config.initial_posterior = {s.initial_mu, s.initial_sigma};
  config.reestimation_period = s.reestimation_period;
  return config;
}

FaultPlan test_plan() {
  FaultPlan plan;
  plan.no_show_rate = 0.1;
  plan.score_drop_rate = 0.1;
  plan.score_corrupt_rate = 0.05;
  plan.churn_rate = 0.2;
  plan.churn_min_absence = 2;
  plan.churn_max_absence = 5;
  return plan;
}

constexpr std::uint64_t kPopulationSeed = 3;
constexpr std::uint64_t kPlatformSeed = 44;

/// One self-owning simulation: Platform borrows its mechanism and
/// estimator, so every independent run needs its own copies.
struct Rig {
  LongTermScenario scenario;
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator;
  Platform platform;

  Rig(const LongTermScenario& s, std::vector<SimWorker> workers)
      : scenario(s),
        estimator(tracker_config(s)),
        platform(scenario, mechanism, estimator, std::move(workers),
                 kPlatformSeed) {}
};

std::vector<SimWorker> population(const LongTermScenario& s) {
  util::Rng rng(kPopulationSeed);
  return sample_population(s.population_config(), rng);
}

struct Outcome {
  std::vector<RunRecord> records;
  std::string snapshot;
  std::unordered_map<auction::WorkerId, double> estimates;
};

Outcome finish(Rig& rig, std::vector<RunRecord> prefix) {
  auto rest = rig.platform.run_all();
  prefix.insert(prefix.end(), rest.begin(), rest.end());
  std::ostringstream snap;
  rig.platform.save(snap);
  Outcome outcome{std::move(prefix), snap.str(), {}};
  for (const auction::WorkerId id : rig.platform.worker_state().ids()) {
    outcome.estimates[id] = rig.estimator.estimate(id);
  }
  return outcome;
}

Outcome run_straight(const LongTermScenario& s, const FaultPlan& plan) {
  Rig rig(s, population(s));
  if (plan.active()) rig.platform.set_fault_plan(plan);
  return finish(rig, {});
}

Outcome run_resumed(const LongTermScenario& s, const FaultPlan& plan,
                    int interrupt_after) {
  std::string checkpoint;
  std::vector<RunRecord> prefix;
  {
    Rig rig(s, population(s));
    if (plan.active()) rig.platform.set_fault_plan(plan);
    for (int r = 0; r < interrupt_after; ++r) {
      prefix.push_back(rig.platform.step());
    }
    std::ostringstream snap;
    rig.platform.save(snap);
    checkpoint = snap.str();
  }  // the "crashed" process is gone; only the checkpoint bytes survive
  // The resumed platform starts from an EMPTY population: everything it
  // needs — workers, trajectories, RNG position, fault plan, estimator
  // state — must come out of the snapshot.
  Rig rig(s, {});
  util::binio::Reader snap(checkpoint);
  rig.platform.load(snap);
  EXPECT_EQ(rig.platform.fault_plan().active(), plan.active());
  EXPECT_EQ(rig.platform.current_run(), interrupt_after + 1);
  return finish(rig, std::move(prefix));
}

void expect_identical(const Outcome& a, const Outcome& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i], b.records[i]) << "run " << i + 1;
  }
  EXPECT_EQ(a.snapshot, b.snapshot);
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (const auto& [id, estimate] : a.estimates) {
    const auto it = b.estimates.find(id);
    ASSERT_NE(it, b.estimates.end()) << "worker " << id;
    EXPECT_DOUBLE_EQ(estimate, it->second) << "worker " << id;
  }
}

class CheckpointThreadMatrix : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { util::set_shared_thread_count(GetParam()); }
  void TearDown() override { util::set_shared_thread_count(1); }
};

TEST_P(CheckpointThreadMatrix, ResumeIsBitIdenticalWithoutFaults) {
  const auto scenario = small_scenario();
  const auto straight = run_straight(scenario, FaultPlan{});
  for (const int k : {1, 7, scenario.runs - 1}) {
    expect_identical(straight, run_resumed(scenario, FaultPlan{}, k));
  }
}

TEST_P(CheckpointThreadMatrix, ResumeIsBitIdenticalWithFaults) {
  const auto scenario = small_scenario();
  const auto straight = run_straight(scenario, test_plan());
  for (const int k : {1, 7, scenario.runs - 1}) {
    expect_identical(straight, run_resumed(scenario, test_plan(), k));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CheckpointThreadMatrix,
                         ::testing::Values(1, 2, 8));

TEST(Checkpoint, SerialAndParallelRunsProduceIdenticalOutcomes) {
  const auto scenario = small_scenario();
  util::set_shared_thread_count(1);
  const auto serial = run_straight(scenario, test_plan());
  for (const int threads : {2, 8}) {
    util::set_shared_thread_count(threads);
    expect_identical(serial, run_straight(scenario, test_plan()));
  }
  util::set_shared_thread_count(1);
}

TEST(Checkpoint, SnapshotBytesAreDeterministic) {
  const auto scenario = small_scenario();
  Rig rig(scenario, population(scenario));
  rig.platform.set_policy(5, BidPolicy{.cheat_probability = 0.5});
  for (int r = 0; r < 5; ++r) rig.platform.step();
  std::ostringstream a, b;
  rig.platform.save(a);
  rig.platform.save(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Checkpoint, PoliciesSurviveResume) {
  const auto scenario = small_scenario();
  BidPolicy overbid;
  overbid.cheat_probability = 1.0;
  overbid.direction = MisreportDirection::kHigher;
  overbid.cost_magnitude = 10.0;

  auto with_policy = [&](bool through_snapshot) {
    Rig rig(scenario, population(scenario));
    rig.platform.set_policy(rig.platform.worker_state().ids().front(), overbid);
    if (through_snapshot) {
      util::binio::Writer out;
      rig.platform.save(out);
      Rig restored(scenario, {});
      util::binio::Reader snap(out.bytes());
      restored.platform.load(snap);
      return finish(restored, {});
    }
    return finish(rig, {});
  };
  expect_identical(with_policy(false), with_policy(true));
}

TEST(Checkpoint, BadMagicRejected) {
  util::binio::Reader bad(std::string_view("NOTACKPT garbage"));
  Rig rig(small_scenario(), {});
  EXPECT_THROW(rig.platform.load(bad), std::runtime_error);
}

TEST(Checkpoint, UnsupportedVersionRejected) {
  util::binio::Writer out;
  out.write_header("MLDYCKPT", 999);
  util::binio::Reader in(out.bytes());
  Rig rig(small_scenario(), {});
  EXPECT_THROW(rig.platform.load(in), std::runtime_error);
}

TEST(Checkpoint, TruncatedSnapshotRejected) {
  const auto scenario = small_scenario();
  Rig rig(scenario, population(scenario));
  for (int r = 0; r < 3; ++r) rig.platform.step();
  std::ostringstream snap;
  rig.platform.save(snap);
  const std::string bytes = snap.str();
  for (const std::size_t cut :
       {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    util::binio::Reader truncated(std::string_view(bytes).substr(0, cut));
    Rig target(scenario, {});
    EXPECT_THROW(target.platform.load(truncated), std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(Checkpoint, FileHelpersRoundTripAtomically) {
  const auto scenario = small_scenario();
  const std::string path =
      ::testing::TempDir() + "melody_checkpoint_test.bin";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  Rig rig(scenario, population(scenario));
  for (int r = 0; r < 4; ++r) rig.platform.step();
  save_checkpoint(rig.platform, path);
  // The temp file was renamed away, the checkpoint is in place.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  ASSERT_TRUE(std::ifstream(path).good());

  Rig restored(scenario, {});
  load_checkpoint(restored.platform, path);
  EXPECT_EQ(restored.platform.current_run(), rig.platform.current_run());
  expect_identical(finish(rig, {}), finish(restored, {}));
  std::remove(path.c_str());
}

/// Runs `write` in a forked child whose files may not grow past
/// `max_bytes` (SIGXFSZ ignored, so the write fails with EFBIG instead of
/// killing it). True when the child saw std::runtime_error.
bool throws_under_file_size_limit(rlim_t max_bytes,
                                  const std::function<void()>& write) {
  const pid_t child = ::fork();
  if (child == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{max_bytes, max_bytes};
    ::setrlimit(RLIMIT_FSIZE, &limit);
    try {
      write();
    } catch (const std::runtime_error&) {
      ::_exit(0);
    }
    ::_exit(1);
  }
  int status = 0;
  EXPECT_EQ(::waitpid(child, &status, 0), child);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

TEST(Checkpoint, FailedFinalFlushKeepsThePreviousFile) {
  const std::string path = ::testing::TempDir() + "melody_checkpoint_fsz.bin";
  const auto previous_content = [&path] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  std::ofstream(path, std::ios::binary) << "previous checkpoint";

  // 1000 bytes fit the stream buffer, so every write succeeds and only the
  // flush at close hits the 16-byte limit.
  EXPECT_TRUE(throws_under_file_size_limit(16, [&path] {
    util::write_file_atomically(path, std::string(1000, 'x'));
  })) << "a failed final flush went unnoticed";
  EXPECT_EQ(previous_content(), "previous checkpoint");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  // A platform checkpoint larger than the limit fails the same way.
  Rig rig(small_scenario(), population(small_scenario()));
  rig.platform.step();
  std::ostringstream blob;
  rig.platform.save(blob);
  EXPECT_TRUE(throws_under_file_size_limit(blob.str().size() - 1, [&] {
    save_checkpoint(rig.platform, path);
  }));
  EXPECT_TRUE(previous_content() == "previous checkpoint");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(Checkpoint, FailedFinalFlushOfAGatheredWriteKeepsThePreviousFile) {
  const std::string path = ::testing::TempDir() + "melody_gather_fsz.bin";
  const auto content = [&path] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  std::ofstream(path, std::ios::binary) << "previous checkpoint";
  const std::string header(16, 'h');
  const std::string first(400, 'a');
  const std::string second(584, 'b');
  const std::vector<std::string_view> parts{header, first, second};

  // 1000 bytes in three parts fit the stream buffer, so only the flush at
  // close hits the 16-byte limit.
  EXPECT_TRUE(throws_under_file_size_limit(16, [&] {
    util::write_file_atomically(path, parts);
  })) << "a failed final flush of a gathered write went unnoticed";
  EXPECT_EQ(content(), "previous checkpoint");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  util::write_file_atomically(path, parts);
  EXPECT_EQ(content(), header + first + second);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadFromMissingFileThrows) {
  Rig rig(small_scenario(), {});
  EXPECT_THROW(
      load_checkpoint(rig.platform,
                      ::testing::TempDir() + "melody_no_such_checkpoint.bin"),
      std::runtime_error);
}

/// Forwards everything to a wrapped MELODY estimator while counting the
/// register_worker calls per id — the instrument for the newcomer test.
class CountingEstimator final : public estimators::QualityEstimator {
 public:
  explicit CountingEstimator(const estimators::MelodyEstimatorConfig& config)
      : inner_(config) {}

  void register_worker(auction::WorkerId id) override {
    ++registrations_[id];
    inner_.register_worker(id);
  }
  void observe(auction::WorkerId id, const lds::ScoreSet& scores) override {
    inner_.observe(id, scores);
  }
  void observe_run(std::span<const auction::WorkerId> ids,
                   std::span<const lds::ScoreSet> scores) override {
    inner_.observe_run(ids, scores);
  }
  double estimate(auction::WorkerId id) const override {
    return inner_.estimate(id);
  }
  std::string name() const override { return inner_.name(); }
  void save(std::ostream& out) const override { inner_.save(out); }
  void load(std::istream& in) override { inner_.load(in); }

  int registrations(auction::WorkerId id) const {
    const auto it = registrations_.find(id);
    return it == registrations_.end() ? 0 : it->second;
  }

 private:
  estimators::MelodyEstimator inner_;
  std::unordered_map<auction::WorkerId, int> registrations_;
};

TEST(Checkpoint, NewcomerAfterResumeIsRegisteredExactlyOnce) {
  auto scenario = small_scenario();
  scenario.runs = 10;
  const auto config = tracker_config(scenario);

  std::string checkpoint;
  {
    auction::MelodyAuction mechanism;
    CountingEstimator estimator(config);
    Platform platform(scenario, mechanism, estimator, population(scenario),
                      kPlatformSeed);
    for (int r = 0; r < 3; ++r) platform.step();
    std::ostringstream snap;
    platform.save(snap);
    checkpoint = snap.str();
  }

  auction::MelodyAuction mechanism;
  CountingEstimator estimator(config);
  Platform platform(scenario, mechanism, estimator, {}, kPlatformSeed);
  util::binio::Reader snap(checkpoint);
  platform.load(snap);
  // The restored estimator state covers the whole population even though
  // this platform was constructed with nobody to register.
  EXPECT_EQ(estimator.registrations(population(scenario).front().id()), 0);
  EXPECT_NO_THROW(estimator.estimate(population(scenario).front().id()));

  const auction::WorkerId newcomer_id = 1000;
  TrajectoryConfig traj;
  traj.kind = TrajectoryKind::kStable;
  traj.start_level = 9.0;
  util::Rng rng(8);
  SimWorker newcomer(newcomer_id, {1.0, 5},
                     TrajectoryStream(traj, scenario.runs, rng));
  platform.add_worker(std::move(newcomer));
  EXPECT_EQ(estimator.registrations(newcomer_id), 1);

  // The newcomer participates immediately and never gets re-registered.
  platform.run_all();
  EXPECT_EQ(estimator.registrations(newcomer_id), 1);
  EXPECT_NO_THROW(estimator.estimate(newcomer_id));
}

/// Where a snapshot's utility section and the estimator blob behind it lie,
/// and the utility entries. Walks the MLDYCKPT layout in snapshot.cc.
struct UtilitySection {
  std::size_t begin = 0;  // the u64 count
  std::size_t end = 0;    // the estimator blob's u64 length
  std::vector<std::pair<auction::WorkerId, double>> entries;
};

UtilitySection utility_section(const std::string& snapshot) {
  constexpr std::size_t kWorkerBytes = 134;
  constexpr std::size_t kPolicyBytes = 4 + 8 + 3 + 8 + 4;
  util::binio::Reader in(snapshot);
  // Magic, version, seed, run, the RNG and the fault plan.
  in.read_raw(8 + 4 + 8 + 4 + (4 * 8 + 8 + 1) + (4 * 8 + 2 * 4 + 8), "skip");
  in.read_raw(in.read_u64("workers") * kWorkerBytes, "workers");
  in.read_raw(in.read_u64("policies") * kPolicyBytes, "policies");
  UtilitySection section;
  section.begin = in.position();
  const std::uint64_t count = in.read_u64("utilities");
  for (std::uint64_t k = 0; k < count; ++k) {
    const auction::WorkerId id = in.read_i32("utility id");
    section.entries.emplace_back(id, in.read_f64("utility total"));
  }
  section.end = in.position();
  return section;
}

/// `snapshot` with its utility section replaced by `entries`, in order.
std::string with_utilities(
    const std::string& snapshot,
    const std::vector<std::pair<auction::WorkerId, double>>& entries) {
  const UtilitySection section = utility_section(snapshot);
  util::binio::Writer out;
  out.write_raw(std::string_view(snapshot).substr(0, section.begin));
  out.write_u64(entries.size());
  for (const auto& [id, total] : entries) {
    out.write_i32(id);
    out.write_f64(total);
  }
  out.write_raw(std::string_view(snapshot).substr(section.end));
  return out.take();
}

std::string save_bytes(const Platform& platform) {
  util::binio::Writer out;
  platform.save(out);
  return out.take();
}

TEST(Checkpoint, UtilitySectionsTheColumnCannotHoldAreRefused) {
  // 40 workers stepped twice, then a newcomer who has not been stepped:
  // the section holds exactly the 40 credited slots, by ascending id.
  Rig rig(small_scenario(), population(small_scenario()));
  rig.platform.step();
  rig.platform.step();
  TrajectoryConfig traj;
  traj.kind = TrajectoryKind::kStable;
  util::Rng rng(8);
  const auction::WorkerId newcomer = 1000;
  rig.platform.add_worker(
      SimWorker(newcomer, {1.0, 5}, TrajectoryStream(traj, 16, rng)));
  const std::string snapshot = save_bytes(rig.platform);
  const auto entries = utility_section(snapshot).entries;
  ASSERT_EQ(entries.size(), 40u);
  ASSERT_EQ(with_utilities(snapshot, entries), snapshot);
  for (const auto& [id, total] : entries) EXPECT_NE(id, newcomer);
  EXPECT_EQ(rig.platform.worker_total_utility(newcomer), 0.0);

  // Each mutant is well formed bytes an id -> total map would take.
  auto more_than_workers = entries;
  more_than_workers.emplace_back(newcomer, 0.0);
  more_than_workers.emplace_back(5000, 1.0);
  auto descending = entries;
  std::swap(descending[3], descending[4]);
  auto repeated = entries;
  repeated[4].first = repeated[3].first;
  auto unknown = entries;
  unknown.back().first = 9999;
  auto past_the_prefix = entries;
  past_the_prefix.back().first = newcomer;
  const std::vector<std::pair<std::string,
                              std::vector<std::pair<auction::WorkerId,
                                                    double>>>>
      mutants{{"more utilities than workers", more_than_workers},
              {"utility ids not strictly ascending", descending},
              {"utility ids not strictly ascending", repeated},
              {"utility for unknown worker id 9999", unknown},
              {"utility for worker id 1000 past the stepped slots",
               past_the_prefix}};

  Rig victim(small_scenario(), population(small_scenario()));
  victim.platform.step();
  const std::string before = save_bytes(victim.platform);
  for (const auto& [message, mutant] : mutants) {
    const std::string bytes = with_utilities(snapshot, mutant);
    util::binio::Reader in(bytes);
    try {
      victim.platform.load(in);
      ADD_FAILURE() << "accepted: " << message;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(save_bytes(victim.platform), before) << message;
  }

  // The well-formed section loads, and the newcomer is still uncredited.
  util::binio::Reader in(snapshot);
  victim.platform.load(in);
  EXPECT_EQ(save_bytes(victim.platform), snapshot);
  EXPECT_EQ(victim.platform.worker_total_utility(newcomer), 0.0);
}

TEST(Checkpoint, EstimatorBlobMissingAWorkerIsRefusedNamingIt) {
  // A one-worker MLDYTRKR blob spliced into a six-worker snapshot: the
  // refusal names the first worker the estimator does not know.
  auto scenario = small_scenario();
  scenario.num_workers = 6;
  Rig rig(scenario, population(scenario));
  rig.platform.step();
  const std::string snapshot = save_bytes(rig.platform);
  const std::vector<auction::WorkerId>& ids =
      rig.platform.worker_state().ids();
  ASSERT_EQ(ids.size(), 6u);

  estimators::MelodyEstimator lone(tracker_config(scenario));
  lone.register_worker(ids[0]);
  util::binio::Writer spliced;
  const std::size_t blob_at = utility_section(snapshot).end;
  util::binio::Reader rest(std::string_view(snapshot).substr(blob_at));
  rest.read_bytes("estimator blob");
  spliced.write_raw(std::string_view(snapshot).substr(0, blob_at));
  spliced.write_blob([&lone](util::binio::Writer& blob) { lone.save_to(blob); });
  spliced.write_raw(std::string_view(snapshot).substr(blob_at + rest.position()));
  const std::string bytes = spliced.take();

  Rig victim(scenario, population(scenario));
  util::binio::Reader in(bytes);
  try {
    victim.platform.load(in);
    FAIL() << "a snapshot whose estimator lacks workers must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "platform snapshot: unknown worker id " + std::to_string(ids[1]));
  }
}

}  // namespace
}  // namespace melody::sim
