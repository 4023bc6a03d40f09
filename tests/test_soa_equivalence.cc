// The bit-identity lattice locking down the SoA hot-path refactor.
//
// Two layers of evidence that the structure-of-arrays layout changed
// nothing but time:
//
//   1. Golden digests. The fig9-style long-term pipeline (reduced Table-4
//      scale) is run at 1/2/8 threads, with and without a FaultPlan, and
//      FNV-1a digests of (a) every RunRecord field, (b) the fig9 CSV rows
//      exactly as bench_fig9 formats them, (c) the estimator's binary
//      snapshot, and (d) the raw MLDYCKPT checkpoint bytes taken mid-run
//      are compared against constants captured from the pre-refactor
//      scalar build. Any layout change that perturbs a single bit of
//      output — records, CSV, snapshot bytes, or checkpoint encoding —
//      fails here with the digest that moved.
//
//   2. Scalar reference properties. 1000 randomized markets are auctioned
//      through both the production greedy core and the frozen AoS
//      reference in perf/reference.h (same for the Kalman/EM chains over
//      randomized score streams): selection, pricing, and posterior state
//      must match exactly — not approximately.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "auction/melody_auction.h"
#include "estimators/melody_estimator.h"
#include "perf/reference.h"
#include "sim/platform.h"
#include "sim/scenario.h"
#include "util/binio.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace melody::sim {
namespace {

// ---------------------------------------------------------------------------
// FNV-1a 64 digests. Doubles are hashed by bit pattern: "identical" means
// identical IEEE-754 bits, not approximately equal.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void mix_u64(std::uint64_t& h, std::uint64_t v) { mix_bytes(h, &v, 8); }

void mix_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  mix_u64(h, bits);
}

std::uint64_t digest_string(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  mix_bytes(h, s.data(), s.size());
  return h;
}

std::uint64_t digest_records(const std::vector<RunRecord>& records) {
  std::uint64_t h = kFnvOffset;
  for (const RunRecord& r : records) {
    mix_u64(h, static_cast<std::uint64_t>(r.run));
    mix_u64(h, r.estimated_utility);
    mix_u64(h, r.true_utility);
    mix_double(h, r.estimation_error);
    mix_double(h, r.total_payment);
    mix_u64(h, r.assignments);
    mix_u64(h, r.qualified_workers);
    mix_u64(h, r.no_shows);
    mix_u64(h, r.churned_out);
    mix_u64(h, r.scores_dropped);
    mix_u64(h, r.scores_corrupted);
  }
  return h;
}

/// The per-run CSV rows exactly as bench_fig9_longterm_quality.cc emits
/// them (std::to_string formatting included): estimator label, run,
/// estimation_error, true_utility.
std::uint64_t digest_csv_rows(const std::vector<RunRecord>& records) {
  std::string rows;
  for (const RunRecord& r : records) {
    rows += "MELODY," + std::to_string(r.run) + ',' +
            std::to_string(r.estimation_error) + ',' +
            std::to_string(r.true_utility) + '\n';
  }
  return digest_string(rows);
}

// ---------------------------------------------------------------------------
// The lattice: reduced fig9 scenario x {1,2,8} threads x {faults off,on},
// with a checkpoint taken mid-run and a resume leg re-validating the tail.
// ---------------------------------------------------------------------------

LongTermScenario lattice_scenario() {
  LongTermScenario s;  // Table 4 shape, reduced scale
  s.num_workers = 80;
  s.num_tasks = 60;
  s.runs = 40;  // covers several EM re-estimation periods (T = 10)
  s.budget = 250.0;
  return s;
}

FaultPlan lattice_faults() {
  FaultPlan plan;
  plan.no_show_rate = 0.05;
  plan.score_drop_rate = 0.10;
  plan.score_corrupt_rate = 0.05;
  plan.churn_rate = 0.10;
  plan.churn_min_absence = 3;
  plan.churn_max_absence = 6;
  plan.salt = 77;
  return plan;
}

estimators::MelodyEstimatorConfig tracker_config(const LongTermScenario& s) {
  estimators::MelodyEstimatorConfig config;
  config.initial_posterior = {s.initial_mu, s.initial_sigma};
  config.reestimation_period = s.reestimation_period;
  return config;
}

struct LatticeDigest {
  std::uint64_t records = 0;     // all RunRecord fields, runs 1..40
  std::uint64_t csv = 0;         // fig9-format CSV rows, runs 1..40
  std::uint64_t estimator = 0;   // MLDYTRKR snapshot after run 40
  std::uint64_t checkpoint = 0;  // raw MLDYCKPT bytes after run 20
  std::uint64_t tail = 0;        // records of runs 21..40 alone

  bool operator==(const LatticeDigest&) const = default;
};

constexpr int kCheckpointAfterRun = 20;

LatticeDigest run_lattice(int threads, bool with_faults) {
  util::set_shared_thread_count(threads);
  const LongTermScenario scenario = lattice_scenario();
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng population_rng(2017);
  Platform platform(scenario, mechanism, estimator,
                    sample_population(scenario.population_config(),
                                      population_rng),
                    2018);
  if (with_faults) platform.set_fault_plan(lattice_faults());

  std::vector<RunRecord> records;
  std::string checkpoint_bytes;
  while (!platform.finished()) {
    records.push_back(platform.step());
    if (records.back().run == kCheckpointAfterRun) {
      std::ostringstream bytes(std::ios::binary);
      platform.save(bytes);
      checkpoint_bytes = bytes.str();
    }
  }

  LatticeDigest digest;
  digest.records = digest_records(records);
  digest.csv = digest_csv_rows(records);
  std::ostringstream snapshot;
  estimator.save(snapshot);
  digest.estimator = digest_string(snapshot.str());
  digest.checkpoint = digest_string(checkpoint_bytes);
  digest.tail = digest_records(std::vector<RunRecord>(
      records.begin() + kCheckpointAfterRun, records.end()));

  // Resume leg: a fresh platform restored from the mid-run checkpoint must
  // reproduce the tail records exactly (at this thread count).
  estimators::MelodyEstimator resumed_estimator(tracker_config(scenario));
  auction::MelodyAuction resumed_mechanism;
  Platform resumed(scenario, resumed_mechanism, resumed_estimator, {}, 0);
  util::binio::Reader in(checkpoint_bytes);
  resumed.load(in);
  std::vector<RunRecord> tail;
  while (!resumed.finished()) tail.push_back(resumed.step());
  EXPECT_EQ(digest_records(tail), digest.tail)
      << "checkpoint resume diverged at " << threads << " threads";

  util::set_shared_thread_count(1);
  return digest;
}

// Golden digests captured from the pre-SoA scalar build (threads = 1, the
// serial reference path). The refactor must reproduce every one of them —
// at every thread count. If you change ANY output format or simulation
// semantics on purpose, re-capture these from a build whose equivalence to
// the previous trajectory is otherwise established, and say so in the PR.
// The estimator and checkpoint digests were re-captured once, when the
// estimator snapshot moved from text to the binary MLDYTRKR v3 record and
// MLDYCKPT to v3 (book flag); records, CSV and tail stayed unchanged, so
// the resumed trajectories are the same. The checkpoint digest alone was
// re-captured once more for MLDYCKPT v4, which replaces v3's trailing u8
// book flag (0 here) with the always-written u64 withdrawn count (0 here);
// every other byte is the v3 encoding. It was re-captured once more for
// MLDYCKPT v5, which stores each worker's trajectory stream state (config,
// length, run, drift, generator) in place of his latent array; every
// other section is the v4 encoding. All ten were re-captured when EM
// moved from a parameter-change stop to a log-likelihood stop, which
// changes the fitted theta and so every output: the new values agree at
// 1, 2 and 8 threads, the resume leg reproduces the tail, and the
// production EM matches the frozen reference under the new stop byte for
// byte (test_em_lanes).
constexpr LatticeDigest kGoldenCleanRun = {
    13868907464928162742ull,  // records
    14054192195675205412ull,  // csv
    6573178978902913118ull,   // estimator
    9462329151460902576ull,   // checkpoint
    1913384194465960735ull,   // tail
};
constexpr LatticeDigest kGoldenFaultedRun = {
    2343347810671371875ull,   // records
    14280649671611336509ull,  // csv
    5149026464382921387ull,   // estimator
    2793620806163058237ull,   // checkpoint
    15281684725239071219ull,  // tail
};

class SoaGoldenLattice : public ::testing::TestWithParam<int> {};

TEST_P(SoaGoldenLattice, CleanPipelineMatchesPreRefactorDigests) {
  const LatticeDigest digest = run_lattice(GetParam(), /*with_faults=*/false);
  EXPECT_EQ(digest.records, kGoldenCleanRun.records);
  EXPECT_EQ(digest.csv, kGoldenCleanRun.csv);
  EXPECT_EQ(digest.estimator, kGoldenCleanRun.estimator);
  EXPECT_EQ(digest.checkpoint, kGoldenCleanRun.checkpoint);
  EXPECT_EQ(digest.tail, kGoldenCleanRun.tail);
}

TEST_P(SoaGoldenLattice, FaultedPipelineMatchesPreRefactorDigests) {
  const LatticeDigest digest = run_lattice(GetParam(), /*with_faults=*/true);
  EXPECT_EQ(digest.records, kGoldenFaultedRun.records);
  EXPECT_EQ(digest.csv, kGoldenFaultedRun.csv);
  EXPECT_EQ(digest.estimator, kGoldenFaultedRun.estimator);
  EXPECT_EQ(digest.checkpoint, kGoldenFaultedRun.checkpoint);
  EXPECT_EQ(digest.tail, kGoldenFaultedRun.tail);
}

INSTANTIATE_TEST_SUITE_P(Threads, SoaGoldenLattice,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Incremental maintenance: a join appends one store slot and a re-bid
// rewrites one, so after any interleaving of joins, re-bids, withdrawals
// and runs the platform's store must equal the store a snapshot round trip
// builds from scratch.
// ---------------------------------------------------------------------------

void expect_same_store(const WorkerStateSoA& kept, const WorkerStateSoA& fresh,
                       const std::string& when) {
  ASSERT_EQ(kept.size(), fresh.size()) << when;
  EXPECT_EQ(kept.ids(), fresh.ids()) << when;
  EXPECT_EQ(kept.costs(), fresh.costs()) << when;
  EXPECT_EQ(kept.frequencies(), fresh.frequencies()) << when;
  for (std::size_t slot = 0; slot < fresh.size(); ++slot) {
    const auction::WorkerId id = fresh.ids()[slot];
    EXPECT_EQ(kept.slot_of(id), slot) << when << " id " << id;
    EXPECT_EQ(fresh.slot_of(id), slot) << when << " id " << id;
    EXPECT_EQ(kept.latent_quality(slot), fresh.latent_quality(slot))
        << when << " slot " << slot;
    EXPECT_TRUE(kept.trajectories()[slot].state() ==
                fresh.trajectories()[slot].state())
        << when << " slot " << slot;
  }
}

TEST(SoaIncremental, InterleavedJoinsRebidsAndRunsMatchASnapshotRoundTrip) {
  LongTermScenario scenario = lattice_scenario();
  scenario.num_workers = 30;
  scenario.runs = 25;
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng population_rng(41);
  Platform platform(scenario, mechanism, estimator,
                    sample_population(scenario.population_config(),
                                      population_rng),
                    42);
  util::Rng ops(43);
  auction::WorkerId next_id = 1000;
  for (int op = 0; op < 200; ++op) {
    const std::vector<auction::WorkerId>& ids = platform.worker_state().ids();
    const auction::WorkerId someone = ids[static_cast<std::size_t>(
        ops.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
    std::string when = "op " + std::to_string(op);
    switch (ops.uniform_int(0, 3)) {
      case 0: {
        util::Rng stream(util::derive_stream(42, 7, next_id));
        const TrajectoryConfig config = sample_config(
            sample_kind(scenario.mix, stream), scenario.runs, stream);
        platform.add_worker(SimWorker(
            next_id++, {ops.uniform(1.0, 2.0), 1 + op % 5},
            TrajectoryStream(config, scenario.runs, stream)));
        when += " join";
        break;
      }
      case 1:
        ASSERT_TRUE(platform.update_bid(
            someone, {ops.uniform(1.0, 2.0), 1 + op % 4}));
        when += " rebid";
        break;
      case 2:
        ASSERT_TRUE(platform.set_withdrawn(someone, ops.bernoulli(0.7)));
        when += " withdraw";
        break;
      default:
        platform.step();
        when += " run";
        break;
    }
    util::binio::Writer snapshot;
    platform.save(snapshot);
    auction::MelodyAuction fresh_mechanism;
    estimators::MelodyEstimator fresh_estimator(tracker_config(scenario));
    Platform fresh(scenario, fresh_mechanism, fresh_estimator, {}, 42);
    util::binio::Reader in(snapshot.bytes());
    fresh.load(in);
    expect_same_store(platform.worker_state(), fresh.worker_state(), when);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(platform.current_run(), scenario.runs);  // past the horizon too
}

// ---------------------------------------------------------------------------
// Property layer: 1000 randomized markets, production greedy vs the frozen
// scalar reference. Selection, pricing, and order must match EXACTLY.
// ---------------------------------------------------------------------------

struct Market {
  std::vector<auction::WorkerProfile> workers;
  std::vector<auction::Task> tasks;
  auction::AuctionConfig config;
};

Market sample_market(util::Rng& rng) {
  SraScenario scenario;
  scenario.num_workers = static_cast<int>(rng.uniform_int(5, 120));
  scenario.num_tasks = static_cast<int>(rng.uniform_int(1, 60));
  scenario.budget = rng.uniform(10.0, 500.0);
  scenario.threshold = {rng.uniform(4.0, 8.0), rng.uniform(8.0, 16.0)};
  Market market;
  market.workers = scenario.sample_workers(rng);
  market.tasks = scenario.sample_tasks(rng);
  market.config = scenario.auction_config();
  return market;
}

void expect_same_allocation(const auction::AllocationResult& soa,
                            const auction::AllocationResult& scalar,
                            int instance) {
  ASSERT_EQ(soa.selected_tasks, scalar.selected_tasks)
      << "market " << instance;
  ASSERT_EQ(soa.assignments.size(), scalar.assignments.size())
      << "market " << instance;
  for (std::size_t a = 0; a < scalar.assignments.size(); ++a) {
    EXPECT_EQ(soa.assignments[a].worker, scalar.assignments[a].worker)
        << "market " << instance << " assignment " << a;
    EXPECT_EQ(soa.assignments[a].task, scalar.assignments[a].task)
        << "market " << instance << " assignment " << a;
    // Bitwise payment equality — the pricing walk must be the same
    // arithmetic, not merely the same result to within epsilon.
    EXPECT_EQ(soa.assignments[a].payment, scalar.assignments[a].payment)
        << "market " << instance << " assignment " << a;
  }
}

TEST(SoaGreedyProperty, MatchesScalarReferenceOn1kMarketsCriticalValue) {
  util::Rng rng(0x50A11CE);
  auction::MelodyAuction mechanism(auction::PaymentRule::kCriticalValue);
  for (int i = 0; i < 1000; ++i) {
    const Market market = sample_market(rng);
    const auto soa =
        mechanism.run({market.workers, market.tasks, market.config});
    const auto scalar = perf::reference::run_greedy(
        market.workers, market.tasks, market.config,
        auction::PaymentRule::kCriticalValue);
    expect_same_allocation(soa, scalar, i);
  }
}

TEST(SoaGreedyProperty, MatchesScalarReferenceOn1kMarketsPaperRule) {
  util::Rng rng(0x50A11CF);
  auction::MelodyAuction mechanism(auction::PaymentRule::kPaperNextInQueue);
  for (int i = 0; i < 1000; ++i) {
    const Market market = sample_market(rng);
    const auto soa =
        mechanism.run({market.workers, market.tasks, market.config});
    const auto scalar = perf::reference::run_greedy(
        market.workers, market.tasks, market.config,
        auction::PaymentRule::kPaperNextInQueue);
    expect_same_allocation(soa, scalar, i);
  }
}

TEST(SoaGreedyProperty, ParallelPathMatchesScalarReferenceOnLargeMarket) {
  // One market big enough (N >= 2048) that the greedy core's rank sort
  // takes its radix path, compared against the serial AoS reference at 8
  // threads.
  SraScenario scenario;
  scenario.num_workers = 6000;
  scenario.num_tasks = 120;
  scenario.budget = 3000.0;
  scenario.threshold = {80.0, 120.0};
  util::Rng rng(31);
  const auto workers = scenario.sample_workers(rng);
  const auto tasks = scenario.sample_tasks(rng);
  const auto config = scenario.auction_config();
  const auto scalar = perf::reference::run_greedy(
      workers, tasks, config, auction::PaymentRule::kCriticalValue);
  auction::MelodyAuction mechanism;
  util::set_shared_thread_count(8);
  const auto soa = mechanism.run({workers, tasks, config});
  util::set_shared_thread_count(1);
  expect_same_allocation(soa, scalar, 0);
}

// ---------------------------------------------------------------------------
// Kalman/EM chain: production estimator vs the AoS reference over
// randomized score streams, compared through full binary snapshots (every
// field at full width — any bit difference in any posterior, parameter,
// anchor, or counter shows up).
// ---------------------------------------------------------------------------

lds::ScoreSet random_scores(util::Rng& rng, double latent) {
  lds::ScoreSet scores;
  const int count = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < count; ++i) {
    scores.add(std::clamp(rng.normal(latent, 1.5), 1.0, 10.0));
  }
  return scores;
}

TEST(SoaKalmanProperty, ChainStateMatchesAosReferenceWithEmAndWindow) {
  estimators::MelodyEstimatorConfig config;
  config.reestimation_period = 7;
  config.max_history = 12;  // exercise the sliding-window anchor fold
  estimators::MelodyEstimator soa(config);
  perf::reference::AosKalmanChain scalar(config);

  constexpr int kWorkers = 60;
  constexpr int kRuns = 50;
  for (int w = 0; w < kWorkers; ++w) {
    soa.register_worker(w);
    scalar.register_worker(w);
  }
  for (int run = 1; run <= kRuns; ++run) {
    for (int w = 0; w < kWorkers; ++w) {
      util::Rng stream(util::derive_stream(0xE57, w, run));
      const double latent = 3.0 + (w % 7);
      const lds::ScoreSet scores = random_scores(stream, latent);
      soa.observe(w, scores);
      scalar.observe(w, scores);
    }
  }
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(soa.estimate(w), scalar.estimate(w)) << "worker " << w;
  }
  util::binio::Writer soa_snapshot;
  util::binio::Writer scalar_snapshot;
  soa.save_to(soa_snapshot);
  scalar.save(scalar_snapshot);
  EXPECT_EQ(soa_snapshot.bytes(), scalar_snapshot.bytes());
}

TEST(SoaKalmanProperty, ShardedObserveRunMatchesAosReferenceAt8Threads) {
  // The filter pass leaves the calling thread only above its 16384-worker
  // grain, so the population spans three chunks: pool threads append to
  // per-slot histories concurrently. In twelve runs at T = 10 over half
  // the workers come due for EM, so the refit pass shards lanes too.
  estimators::MelodyEstimatorConfig config;
  config.reestimation_period = 10;
  estimators::MelodyEstimator soa(config);
  perf::reference::AosKalmanChain scalar(config);

  constexpr int kWorkers = 2 * 16384 + 2000;
  constexpr int kRuns = 12;
  std::vector<auction::WorkerId> ids(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    ids[static_cast<std::size_t>(w)] = w;
    soa.register_worker(w);
    scalar.register_worker(w);
  }
  util::set_shared_thread_count(8);
  for (int run = 1; run <= kRuns; ++run) {
    std::vector<lds::ScoreSet> scores(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      util::Rng stream(util::derive_stream(0xE58, w, run));
      scores[static_cast<std::size_t>(w)] =
          random_scores(stream, 2.0 + (w % 9));
    }
    soa.observe_run(ids, scores);
    for (int w = 0; w < kWorkers; ++w) {
      scalar.observe(w, scores[static_cast<std::size_t>(w)]);
    }
  }
  util::set_shared_thread_count(1);
  util::binio::Writer soa_snapshot;
  util::binio::Writer scalar_snapshot;
  soa.save_to(soa_snapshot);
  scalar.save(scalar_snapshot);
  EXPECT_EQ(soa_snapshot.bytes(), scalar_snapshot.bytes());
}

}  // namespace
}  // namespace melody::sim
