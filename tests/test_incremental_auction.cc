// Long-horizon contract of the bid book: a platform that ranks from the
// price ladder it keeps across runs (incremental ranking) must reproduce a
// platform whose mechanism ignores the book and re-sorts every run, bit
// for bit over a 200-run Fig-9 trajectory — at 1/2/8 threads, with and
// without an active fault plan, and across a mid-sequence
// checkpoint/kill/resume (MLDYCKPT carries the withdrawn set but not the
// book: the resumed platform starts with an empty book and rebuilds it in
// its first step).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "auction/melody_auction.h"
#include "estimators/melody_estimator.h"
#include "sim/platform.h"
#include "util/binio.h"
#include "util/thread_pool.h"

namespace melody::sim {
namespace {

LongTermScenario fig9_scenario() {
  LongTermScenario s;
  s.num_workers = 40;
  s.num_tasks = 30;
  s.runs = 200;
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

/// MelodyAuction ranked by rebuild: drops the platform's book from the
/// context, so greedy_core filters and sorts the worker span every run.
class RebuildAuction final : public auction::Mechanism {
 public:
  auction::AllocationResult run(
      const auction::AuctionContext& context) override {
    auction::AuctionContext rebuild = context;
    rebuild.book = nullptr;
    return inner_.run(rebuild);
  }
  std::string name() const override { return inner_.name(); }

 private:
  auction::MelodyAuction inner_;
};

struct Rig {
  LongTermScenario scenario;
  auction::MelodyAuction mechanism;
  RebuildAuction rebuild_mechanism;
  estimators::MelodyEstimator estimator;
  Platform platform;

  Rig(const LongTermScenario& s, std::vector<SimWorker> workers,
      bool rebuild = false)
      : scenario(s),
        estimator(tracker_config(s)),
        platform(scenario,
                 rebuild ? static_cast<auction::Mechanism&>(rebuild_mechanism)
                         : mechanism,
                 estimator, std::move(workers), kPlatformSeed) {}
};

std::vector<SimWorker> population(const LongTermScenario& s) {
  util::Rng rng(kPopulationSeed);
  return sample_population(s.population_config(), rng);
}

void expect_records_identical(const std::vector<RunRecord>& a,
                              const std::vector<RunRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "run " << i + 1;
  }
}

std::vector<RunRecord> run_plain(const LongTermScenario& s,
                                 const FaultPlan& plan) {
  Rig rig(s, population(s), /*rebuild=*/true);
  if (plan.active()) rig.platform.set_fault_plan(plan);
  return rig.platform.run_all();
}

/// The incremental platform with a kill/resume in the middle: step to
/// `interrupt_after`, snapshot, destroy the rig, reconstruct from an empty
/// population, load, and finish.
std::vector<RunRecord> run_incremental_resumed(const LongTermScenario& s,
                                               const FaultPlan& plan,
                                               int interrupt_after) {
  std::string checkpoint;
  std::vector<RunRecord> records;
  {
    Rig rig(s, population(s));
    if (plan.active()) rig.platform.set_fault_plan(plan);
    for (int r = 0; r < interrupt_after; ++r) {
      records.push_back(rig.platform.step());
    }
    EXPECT_EQ(rig.platform.bid_book().check_links(), "");
    std::ostringstream snap;
    rig.platform.save(snap);
    checkpoint = snap.str();
  }
  Rig rig(s, {});
  util::binio::Reader snap(checkpoint);
  rig.platform.load(snap);
  EXPECT_TRUE(rig.platform.bid_book().empty());
  EXPECT_EQ(rig.platform.current_run(), interrupt_after + 1);
  auto rest = rig.platform.run_all();
  EXPECT_EQ(rig.platform.bid_book().check_links(), "");
  records.insert(records.end(), rest.begin(), rest.end());
  return records;
}

class IncrementalMatrix : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { util::set_shared_thread_count(GetParam()); }
  void TearDown() override { util::set_shared_thread_count(1); }
};

TEST_P(IncrementalMatrix, TrajectoryBitIdenticalWithoutFaults) {
  const auto scenario = fig9_scenario();
  const auto plain = run_plain(scenario, FaultPlan{});
  expect_records_identical(
      plain, run_incremental_resumed(scenario, FaultPlan{}, 77));
}

TEST_P(IncrementalMatrix, TrajectoryBitIdenticalWithFaults) {
  const auto scenario = fig9_scenario();
  const auto plain = run_plain(scenario, test_plan());
  expect_records_identical(
      plain, run_incremental_resumed(scenario, test_plan(), 77));
}

INSTANTIATE_TEST_SUITE_P(Threads, IncrementalMatrix,
                         ::testing::Values(1, 2, 8));

TEST(IncrementalAuction, WithdrawnWorkersSitOutAndSurviveResume) {
  auto scenario = fig9_scenario();
  scenario.runs = 20;

  // Withdraw one worker on both of two identical platforms; outcomes must
  // agree (determinism of the withdrawn set), and a withdrawn worker's
  // flag must survive a checkpoint round trip.
  const auto run_with_withdrawal = [&](bool through_snapshot) {
    Rig rig(scenario, population(scenario));
    const auction::WorkerId victim = rig.platform.worker_state().ids().front();
    for (int r = 0; r < 5; ++r) rig.platform.step();
    EXPECT_TRUE(rig.platform.set_withdrawn(victim, true));
    EXPECT_TRUE(rig.platform.is_withdrawn(victim));
    std::vector<RunRecord> records;
    if (through_snapshot) {
      util::binio::Writer snap;
      rig.platform.save(snap);
      Rig restored(scenario, {});
      util::binio::Reader in(snap.bytes());
      restored.platform.load(in);
      EXPECT_TRUE(restored.platform.is_withdrawn(victim));
      return restored.platform.run_all();
    }
    return rig.platform.run_all();
  };
  expect_records_identical(run_with_withdrawal(false),
                           run_with_withdrawal(true));
}

TEST(IncrementalAuction, UpdateBidTakesEffectDeterministically) {
  auto scenario = fig9_scenario();
  scenario.runs = 20;
  const auto run_with_rebid = [&] {
    Rig rig(scenario, population(scenario));
    const auction::WorkerId worker = rig.platform.worker_state().ids().front();
    std::vector<RunRecord> records;
    for (int r = 0; r < 5; ++r) records.push_back(rig.platform.step());
    EXPECT_TRUE(rig.platform.update_bid(worker, {1.05, 5}));
    EXPECT_FALSE(rig.platform.update_bid(9999, {1.0, 1}));
    auto rest = rig.platform.run_all();
    records.insert(records.end(), rest.begin(), rest.end());
    return records;
  };
  expect_records_identical(run_with_rebid(), run_with_rebid());
}

}  // namespace
}  // namespace melody::sim
