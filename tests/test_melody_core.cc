// Public-facade tests: the full per-run workflow through melody::core::Melody.
#include "core/melody.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/binio.h"
#include "util/rng.h"

namespace melody::core {
namespace {

MelodyOptions open_options() {
  MelodyOptions options;
  options.theta_min = 0.1;
  options.theta_max = 100.0;
  options.cost_min = 0.01;
  options.cost_max = 100.0;
  options.tracker.initial_posterior = {5.5, 2.25};
  return options;
}

TEST(MelodyFacade, RegisterIsIdempotent) {
  Melody platform(open_options());
  platform.register_worker(1);
  platform.register_worker(1);
  EXPECT_TRUE(platform.is_registered(1));
  EXPECT_FALSE(platform.is_registered(2));
}

TEST(MelodyFacade, NewcomerEstimateFromInitialPosterior) {
  Melody platform(open_options());
  platform.register_worker(1);
  EXPECT_DOUBLE_EQ(platform.estimated_quality(1), 5.5);  // a = 1 default
}

TEST(MelodyFacade, AuctionRegistersUnknownBidders) {
  Melody platform(open_options());
  const std::vector<BidSubmission> bids{{1, {1.0, 2}}, {2, {1.2, 3}}};
  const std::vector<auction::Task> tasks{{0, 8.0}};
  platform.run_auction(bids, tasks, 50.0);
  EXPECT_TRUE(platform.is_registered(1));
  EXPECT_TRUE(platform.is_registered(2));
}

TEST(MelodyFacade, RunAuctionRejectsTwoBidsFromOneWorker) {
  // Worker 7's second bid would otherwise win it a second task and price
  // its first win off its own bid.
  Melody platform(open_options());
  const std::vector<BidSubmission> bids{{7, {1.0, 1}},
                                        {7, {1.1, 1}},
                                        {1, {1.2, 1}},
                                        {2, {1.3, 1}},
                                        {3, {1.4, 1}}};
  const std::vector<auction::Task> tasks{{0, 5.0}, {1, 5.0}};
  EXPECT_THROW(platform.run_auction(bids, tasks, 100.0),
               std::invalid_argument);
  // Rejected before anything was registered.
  for (const auction::WorkerId id : {7, 1, 2, 3}) {
    EXPECT_FALSE(platform.is_registered(id)) << id;
  }
}

TEST(MelodyFacade, FullRunWorkflow) {
  Melody platform(open_options());
  const std::vector<BidSubmission> bids{
      {1, {1.0, 3}}, {2, {1.2, 3}}, {3, {1.5, 3}}};
  const std::vector<auction::Task> tasks{{0, 9.0}, {1, 10.0}};
  const auto result = platform.run_auction(bids, tasks, 100.0);
  // All estimates are 5.5; task 0 needs two workers; worker 3 is critical.
  EXPECT_FALSE(result.selected_tasks.empty());

  // Requester scores the completed work; the platform digests it.
  for (const auto& a : result.assignments) {
    lds::ScoreSet set;
    set.add(7.0);
    platform.submit_scores(a.worker, set);
  }
  EXPECT_EQ(platform.end_run(), 1);
  EXPECT_EQ(platform.completed_runs(), 1);

  // Workers who scored 7 move up from 5.5; idle workers drift with the
  // transition only (mean unchanged for a = 1).
  for (const auto& a : result.assignments) {
    EXPECT_GT(platform.estimated_quality(a.worker), 5.5);
  }
}

TEST(MelodyFacade, SubmitScoresAccumulatesWithinRun) {
  Melody platform(open_options());
  platform.register_worker(1);
  lds::ScoreSet first;
  first.add(6.0);
  lds::ScoreSet second;
  second.add(8.0);
  platform.submit_scores(1, first);
  platform.submit_scores(1, second);
  platform.end_run();
  // Equivalent to one run with scores {6, 8}.
  const auto expected = lds::filter_step(
      {5.5, 2.25}, lds::ScoreSet::from(std::vector<double>{6.0, 8.0}),
      platform.tracker().params(1));
  EXPECT_NEAR(platform.tracker().posterior(1).mean, expected.mean, 1e-12);
}

TEST(MelodyFacade, SubmitScoresForUnknownWorkerThrows) {
  Melody platform(open_options());
  lds::ScoreSet set;
  set.add(5.0);
  EXPECT_THROW(platform.submit_scores(42, set), std::invalid_argument);
}

TEST(MelodyFacade, EndRunKeepsIdleWorkersFrozen) {
  Melody platform(open_options());
  platform.register_worker(1);
  platform.register_worker(2);
  const double var_before = platform.tracker().posterior(1).var;
  platform.end_run();
  // Idle workers keep their posterior (participation-indexed chain).
  EXPECT_DOUBLE_EQ(platform.tracker().posterior(1).var, var_before);
  EXPECT_DOUBLE_EQ(platform.tracker().posterior(2).var, var_before);
  EXPECT_EQ(platform.completed_runs(), 1);
}

TEST(MelodyFacade, MultipleRunsTrackImprovingWorker) {
  Melody platform(open_options());
  platform.register_worker(1);
  double level = 4.0;
  for (int r = 0; r < 50; ++r) {
    level += 0.05;
    lds::ScoreSet set;
    set.add(level);
    set.add(level);
    platform.submit_scores(1, set);
    platform.end_run();
  }
  EXPECT_NEAR(platform.estimated_quality(1), level, 1.0);
  EXPECT_EQ(platform.completed_runs(), 50);
}

TEST(MelodyFacade, EndRunMatchesPerWorkerObserve) {
  // Seven workers over three EM periods: six are scored every run, so they
  // come due together with equal histories and refit in 4-lane groups;
  // worker 7 is scored every other run and idles in between.
  const MelodyOptions options = open_options();
  Melody platform(options);
  estimators::MelodyEstimator reference(options.tracker);
  const std::vector<auction::WorkerId> ids{3, 1, 4, 5, 9, 2, 7};
  for (const auction::WorkerId id : ids) {
    platform.register_worker(id);
    reference.register_worker(id);
  }
  util::Rng rng(17);
  const int runs = 3 * options.tracker.reestimation_period;
  for (int r = 0; r < runs; ++r) {
    for (const auction::WorkerId id : ids) {
      lds::ScoreSet set;
      if (id != 7 || r % 2 == 0) {
        for (int k = 0; k < 3; ++k) set.add(rng.uniform(1.0, 10.0));
        platform.submit_scores(id, set);
      }
      reference.observe(id, set);
    }
    platform.end_run();
  }
  std::ostringstream facade_bytes;
  std::ostringstream reference_bytes;
  platform.tracker().save(facade_bytes);
  reference.save(reference_bytes);
  EXPECT_EQ(facade_bytes.str(), reference_bytes.str());
}

TEST(MelodyFacade, SubmitScoresRefusesSumsNoSnapshotCouldHold) {
  Melody platform(open_options());
  platform.register_worker(1);
  lds::ScoreSet huge;
  huge.add(1e155);  // its square overflows
  EXPECT_THROW(platform.submit_scores(1, huge), std::invalid_argument);
  lds::ScoreSet large;
  large.add(1e154);  // finite square, but two of them overflow
  platform.submit_scores(1, large);
  EXPECT_THROW(platform.submit_scores(1, large), std::invalid_argument);
  EXPECT_THROW(platform.submit_scores(1, {-3, 0.0, 0.0}),
               std::invalid_argument);

  platform.end_run();
  std::stringstream snapshot;
  platform.save(snapshot);
  Melody restored(open_options());
  ASSERT_NO_THROW(restored.load(snapshot));
  EXPECT_DOUBLE_EQ(restored.estimated_quality(1),
                   platform.estimated_quality(1));
}

TEST(MelodyFacade, SnapshotRoundTripResumesPlatform) {
  Melody original(open_options());
  const std::vector<BidSubmission> bids{{1, {1.0, 3}}, {2, {1.2, 3}},
                                        {3, {1.5, 3}}};
  const std::vector<auction::Task> tasks{{0, 9.0}};
  for (int run = 0; run < 12; ++run) {
    const auto result = original.run_auction(bids, tasks, 100.0);
    for (const auto& a : result.assignments) {
      lds::ScoreSet set;
      set.add(6.0 + 0.1 * run);
      original.submit_scores(a.worker, set);
    }
    original.end_run();
  }
  std::stringstream snapshot;
  original.save(snapshot);

  Melody restored(open_options());
  restored.load(snapshot);
  EXPECT_EQ(restored.completed_runs(), original.completed_runs());
  for (auction::WorkerId id : {1, 2, 3}) {
    ASSERT_TRUE(restored.is_registered(id));
    EXPECT_DOUBLE_EQ(restored.estimated_quality(id),
                     original.estimated_quality(id));
  }
  // Both platforms evolve identically from here.
  const auto ra = original.run_auction(bids, tasks, 100.0);
  const auto rb = restored.run_auction(bids, tasks, 100.0);
  EXPECT_EQ(ra.selected_tasks, rb.selected_tasks);
  EXPECT_DOUBLE_EQ(ra.total_payment(), rb.total_payment());
}

TEST(MelodyFacade, SaveRejectsOpenRun) {
  Melody platform(open_options());
  platform.register_worker(1);
  lds::ScoreSet set;
  set.add(5.0);
  platform.submit_scores(1, set);
  std::stringstream snapshot;
  EXPECT_THROW(platform.save(snapshot), std::runtime_error);
  platform.end_run();
  EXPECT_NO_THROW(platform.save(snapshot));
}

TEST(MelodyFacade, LoadRejectsBadHeader) {
  Melody platform(open_options());
  std::stringstream bad("WRONG\n0 0\n\n");
  EXPECT_THROW(platform.load(bad), std::runtime_error);
}

/// A facade snapshot in the documented layout: `count` as the registry
/// size, then `ids`, then the tracker blob of `source`.
std::string facade_snapshot(const Melody& source, std::uint64_t count,
                            const std::vector<auction::WorkerId>& ids) {
  util::binio::Writer w;
  w.write_header(Melody::kSnapshotMagic, Melody::kSnapshotVersion);
  w.write_i32(source.completed_runs());
  w.write_u64(count);
  for (const auction::WorkerId id : ids) w.write_i32(id);
  w.write_blob(
      [&source](util::binio::Writer& body) { source.tracker().save_to(body); });
  return w.take();
}

/// Loads `bytes` into a platform that already has state of its own and
/// expects std::runtime_error with that state left as it was.
void expect_load_refused(const std::string& bytes) {
  Melody victim(open_options());
  victim.register_worker(7);
  victim.end_run();
  std::stringstream before;
  victim.save(before);
  std::stringstream in(bytes);
  EXPECT_THROW(victim.load(in), std::runtime_error);
  std::stringstream after;
  victim.save(after);
  EXPECT_EQ(after.str(), before.str());
}

Melody two_worker_platform() {
  Melody platform(open_options());
  platform.register_worker(1);
  platform.register_worker(2);
  platform.end_run();
  return platform;
}

TEST(MelodyFacade, LoadRefusesARegistrySizeTheBytesCannotHold) {
  const Melody source = two_worker_platform();
  std::stringstream saved;
  source.save(saved);
  ASSERT_EQ(saved.str(), facade_snapshot(source, 2, {1, 2}));
  // Sizing the registry from this count used to throw std::bad_alloc.
  expect_load_refused(facade_snapshot(source, 4'000'000'000'000ull, {}));
}

TEST(MelodyFacade, LoadRefusesARepeatedWorkerId) {
  const Melody source = two_worker_platform();
  std::stringstream good(facade_snapshot(source, 2, {1, 2}));
  Melody restored(open_options());
  restored.load(good);
  EXPECT_TRUE(restored.is_registered(2));
  // With worker 1 listed twice every end_run would observe it twice and
  // worker 2 never.
  expect_load_refused(facade_snapshot(source, 2, {1, 1}));
}

TEST(MelodyFacade, LoadRefusesAWorkerTheTrackerDoesNotKnow) {
  const Melody source = two_worker_platform();
  std::stringstream good(facade_snapshot(source, 2, {2, 1}));
  Melody restored(open_options());
  restored.load(good);
  EXPECT_EQ(restored.completed_runs(), 1);
  // The next end_run would throw std::out_of_range for worker 3.
  expect_load_refused(facade_snapshot(source, 2, {1, 3}));
}

TEST(MelodyFacade, QualificationIntervalsApplied) {
  MelodyOptions options = open_options();
  options.theta_min = 6.0;  // initial estimate 5.5 is unqualified
  Melody platform(options);
  const std::vector<BidSubmission> bids{{1, {1.0, 3}}, {2, {1.0, 3}}};
  const std::vector<auction::Task> tasks{{0, 5.0}};
  const auto result = platform.run_auction(bids, tasks, 100.0);
  EXPECT_TRUE(result.selected_tasks.empty());
}

}  // namespace
}  // namespace melody::core
