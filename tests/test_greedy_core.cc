// Direct unit tests of the internal greedy machinery shared by the primal
// and dual auctions.
#include "auction/greedy_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "perf/reference.h"
#include "util/rng.h"

namespace melody::auction::internal {
namespace {

AuctionConfig open_config() { return AuctionConfig{}; }

TEST(BuildRankingQueue, SortsByQualityPerCostDescending) {
  const std::vector<WorkerProfile> workers{
      {0, {2.0, 1}, 4.0},  // ratio 2
      {1, {1.0, 1}, 4.0},  // ratio 4
      {2, {1.0, 1}, 3.0},  // ratio 3
  };
  const auto queue = build_ranking_queue(workers, open_config());
  ASSERT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.ids[0], 1);
  EXPECT_EQ(queue.ids[1], 2);
  EXPECT_EQ(queue.ids[2], 0);
}

TEST(BuildRankingQueue, TiesBreakById) {
  const std::vector<WorkerProfile> workers{
      {5, {1.0, 1}, 3.0}, {2, {1.0, 1}, 3.0}, {9, {1.0, 1}, 3.0}};
  const auto queue = build_ranking_queue(workers, open_config());
  EXPECT_EQ(queue.ids[0], 2);
  EXPECT_EQ(queue.ids[1], 5);
  EXPECT_EQ(queue.ids[2], 9);
}

TEST(BuildRankingQueue, FiltersInvalidAndUnqualified) {
  AuctionConfig config;
  config.theta_min = 2.0;
  const std::vector<WorkerProfile> workers{
      {0, {1.0, 1}, 3.0},   // ok
      {1, {0.0, 1}, 3.0},   // zero cost
      {2, {1.0, 0}, 3.0},   // zero frequency
      {3, {1.0, 1}, 0.0},   // zero quality
      {4, {1.0, 1}, 1.5},   // below theta_min
  };
  const auto queue = build_ranking_queue(workers, config);
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.ids[0], 0);
}

TEST(PreAllocate, ResultSortedByTotalPayment) {
  const std::vector<WorkerProfile> workers{
      {0, {1.0, 5}, 4.0}, {1, {1.0, 5}, 3.0}, {2, {2.0, 5}, 4.0},
      {3, {2.0, 5}, 2.0}};
  const auto queue = build_ranking_queue(workers, open_config());
  const std::vector<Task> tasks{{0, 7.0}, {1, 3.0}, {2, 5.0}};
  const auto pre =
      pre_allocate(queue, tasks, PaymentRule::kCriticalValue);
  ASSERT_GE(pre.size(), 2u);
  for (std::size_t i = 1; i < pre.size(); ++i) {
    EXPECT_LE(pre[i - 1].total_payment, pre[i].total_payment);
  }
}

TEST(PreAllocate, PaymentsParallelWinners) {
  const std::vector<WorkerProfile> workers{
      {0, {1.0, 5}, 4.0}, {1, {1.0, 5}, 3.0}, {2, {2.0, 5}, 4.0},
      {3, {2.0, 5}, 2.0}};
  const auto queue = build_ranking_queue(workers, open_config());
  const std::vector<Task> tasks{{0, 6.0}};
  const auto pre = pre_allocate(queue, tasks, PaymentRule::kCriticalValue);
  ASSERT_EQ(pre.size(), 1u);
  EXPECT_EQ(pre[0].winners.size(), pre[0].payments.size());
  double total = 0.0;
  for (double p : pre[0].payments) total += p;
  EXPECT_NEAR(pre[0].total_payment, total, 1e-12);
}

TEST(PreAllocate, EmptyQueueProducesNothing) {
  const RankingQueue queue;
  const std::vector<Task> tasks{{0, 5.0}};
  EXPECT_TRUE(pre_allocate(queue, tasks, PaymentRule::kCriticalValue).empty());
}

TEST(Commit, AppendsAssignmentsAndSelection) {
  const std::vector<WorkerProfile> workers{{0, {1.0, 5}, 4.0},
                                           {1, {1.0, 5}, 3.0},
                                           {2, {2.0, 5}, 4.0}};
  const auto queue = build_ranking_queue(workers, open_config());
  const std::vector<Task> tasks{{7, 4.0}};
  const auto pre = pre_allocate(queue, tasks, PaymentRule::kCriticalValue);
  ASSERT_EQ(pre.size(), 1u);
  AllocationResult result;
  commit(pre[0], queue, tasks, result);
  ASSERT_EQ(result.selected_tasks.size(), 1u);
  EXPECT_EQ(result.selected_tasks[0], 7);
  ASSERT_EQ(result.assignments.size(), pre[0].winners.size());
  EXPECT_EQ(result.assignments[0].task, 7);
}

TEST(PreAllocate, PaperRuleUsesSingleReference) {
  // All winners of a task share the same payment ratio under the paper
  // rule; under the critical rule ratios may differ per winner.
  const std::vector<WorkerProfile> workers{
      {0, {1.0, 5}, 4.0}, {1, {1.2, 5}, 3.0}, {2, {2.0, 5}, 4.0},
      {3, {2.0, 5}, 2.0}};
  const auto queue = build_ranking_queue(workers, open_config());
  const std::vector<Task> tasks{{0, 6.5}};
  const auto paper = pre_allocate(queue, tasks, PaymentRule::kPaperNextInQueue);
  ASSERT_EQ(paper.size(), 1u);
  ASSERT_EQ(paper[0].winners.size(), 2u);
  const double ratio0 =
      paper[0].payments[0] / queue.quality[paper[0].winners[0]];
  const double ratio1 =
      paper[0].payments[1] / queue.quality[paper[0].winners[1]];
  EXPECT_NEAR(ratio0, ratio1, 1e-12);
}


// ---------------------------------------------------------------------------
// Depletion sweep: markets with far more tasks than worker slots, so most
// workers are used up part-way and most tasks end uncoverable — the regime
// where the live list, the prefix pricing and the early stop do their work.
// Quantized qualities, costs and thresholds make ratio and threshold ties
// common; some thresholds are zero; a monopolist (quality above the rest of
// the market combined) makes every task that needs him unpriceable.
// ---------------------------------------------------------------------------

struct DepletionMarket {
  std::vector<WorkerProfile> workers;
  std::vector<Task> tasks;
  AuctionConfig config;
};

DepletionMarket sample_depletion_market(util::Rng& rng) {
  DepletionMarket market;
  const int n = static_cast<int>(rng.uniform_int(2, 24));
  double total_quality = 0.0;
  for (int i = 0; i < n; ++i) {
    const double cost = 0.5 * static_cast<double>(rng.uniform_int(1, 6));
    const double quality = 0.5 * static_cast<double>(rng.uniform_int(1, 10));
    const int frequency = static_cast<int>(rng.uniform_int(1, 2));
    market.workers.push_back({i, {cost, frequency}, quality});
    total_quality += quality;
  }
  if (rng.bernoulli(0.5)) {
    const double cost = 0.5 * static_cast<double>(rng.uniform_int(1, 6));
    market.workers.push_back({n, {cost, 2}, total_quality + 0.5});
    total_quality += total_quality + 0.5;
  }
  const auto half_units = static_cast<std::int64_t>(2.0 * total_quality);
  const int m = n * static_cast<int>(rng.uniform_int(5, 20));
  for (int j = 0; j < m; ++j) {
    const double threshold =
        rng.bernoulli(0.1)
            ? 0.0
            : 0.5 * static_cast<double>(rng.uniform_int(1, half_units));
    market.tasks.push_back({j, threshold});
  }
  market.config.budget =
      rng.bernoulli(0.5) ? 1e12 : rng.uniform(1.0, 20.0 * total_quality);
  return market;
}

void expect_same_pre_allocation(
    const std::vector<PreAllocation>& soa,
    const std::vector<perf::reference::PreAllocation>& scalar, int market) {
  ASSERT_EQ(soa.size(), scalar.size()) << "market " << market;
  for (std::size_t t = 0; t < scalar.size(); ++t) {
    EXPECT_EQ(soa[t].task_index, scalar[t].task_index) << "market " << market;
    EXPECT_EQ(soa[t].winners, scalar[t].winners) << "market " << market;
    EXPECT_EQ(soa[t].payments, scalar[t].payments) << "market " << market;
    EXPECT_EQ(soa[t].total_payment, scalar[t].total_payment)
        << "market " << market;
  }
}

void expect_same_allocation(const AllocationResult& soa,
                            const AllocationResult& scalar, int market) {
  ASSERT_EQ(soa.selected_tasks, scalar.selected_tasks) << "market " << market;
  ASSERT_EQ(soa.assignments.size(), scalar.assignments.size())
      << "market " << market;
  for (std::size_t a = 0; a < scalar.assignments.size(); ++a) {
    EXPECT_EQ(soa.assignments[a].worker, scalar.assignments[a].worker)
        << "market " << market << " assignment " << a;
    EXPECT_EQ(soa.assignments[a].task, scalar.assignments[a].task)
        << "market " << market << " assignment " << a;
    EXPECT_EQ(soa.assignments[a].payment, scalar.assignments[a].payment)
        << "market " << market << " assignment " << a;
  }
}

void run_depletion_sweep(PaymentRule rule, std::uint64_t seed) {
  obs::ScopedEnable on(true);
  obs::Counter& uncoverable =
      obs::registry().counter("auction/tasks_uncoverable");
  obs::Counter& unpriceable =
      obs::registry().counter("auction/tasks_unpriceable");
  util::Rng rng(seed);
  MelodyAuction mechanism(rule);
  std::uint64_t total_tasks = 0;
  std::uint64_t total_uncoverable = 0;
  std::uint64_t total_unpriceable = 0;
  std::uint64_t zero_threshold_priced = 0;
  for (int i = 0; i < 400; ++i) {
    const DepletionMarket market = sample_depletion_market(rng);

    const auto queue = build_ranking_queue(market.workers, market.config);
    const auto scalar_queue =
        perf::reference::build_ranking_queue(market.workers, market.config);
    const auto pre = pre_allocate(queue, market.tasks, rule);
    expect_same_pre_allocation(
        pre, perf::reference::pre_allocate(scalar_queue, market.tasks, rule),
        i);

    const std::uint64_t uncoverable_before = uncoverable.value();
    const std::uint64_t unpriceable_before = unpriceable.value();
    const auto soa =
        mechanism.run({market.workers, market.tasks, market.config});
    const std::uint64_t run_uncoverable =
        uncoverable.value() - uncoverable_before;
    const std::uint64_t run_unpriceable =
        unpriceable.value() - unpriceable_before;
    EXPECT_EQ(run_uncoverable + run_unpriceable + pre.size(),
              market.tasks.size())
        << "market " << i;
    expect_same_allocation(
        soa,
        perf::reference::run_greedy(market.workers, market.tasks,
                                    market.config, rule),
        i);

    total_tasks += market.tasks.size();
    total_uncoverable += run_uncoverable;
    total_unpriceable += run_unpriceable;
    for (const PreAllocation& p : pre) {
      if (market.tasks[p.task_index].quality_threshold == 0.0) {
        ++zero_threshold_priced;
      }
    }
  }
  // The sweep reaches the regimes it is for.
  EXPECT_GT(2 * total_uncoverable, total_tasks);
  EXPECT_GT(total_unpriceable, 0u);
  EXPECT_GT(zero_threshold_priced, 0u);
}

TEST(PreAllocateDepletion, MatchesScalarReferenceCriticalValue) {
  run_depletion_sweep(PaymentRule::kCriticalValue, 0xDE9137);
}

TEST(PreAllocateDepletion, MatchesScalarReferencePaperRule) {
  run_depletion_sweep(PaymentRule::kPaperNextInQueue, 0xDE9138);
}

// ---------------------------------------------------------------------------
// The one rank sort: its key map and every path through it.
// ---------------------------------------------------------------------------

TEST(RankKey, PreservesTheDoubleOrderAndTiesSignedZeros) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> values{-kInf, -kMax, -2.5, -1.0, -kTiny, -0.0,
                                   0.0,   kTiny, 1e-300, 1.0, 2.5,  kMax,
                                   kInf};
  for (const double a : values) {
    for (const double b : values) {
      EXPECT_EQ(rank_key(a) < rank_key(b), a < b) << a << " vs " << b;
      EXPECT_EQ(rank_key(a) == rank_key(b), a == b) << a << " vs " << b;
    }
  }
}

TEST(RankSort, MatchesTheComparisonSortOnEveryPath) {
  util::Rng rng(0x5047);
  for (const std::size_t n : {0u, 1u, 17u, 2047u, 2048u, 5000u}) {
    for (int variant = 0; variant < 4; ++variant) {
      std::vector<RankSortEntry> entries(n);
      for (std::size_t i = 0; i < n; ++i) {
        RankSortEntry& e = entries[i];
        // Variant 0: ids and src ascending (key passes only). 1: ids
        // shuffled below, src ascending (id passes). 2: repeated ids and
        // shuffled src (src passes too). 3: full-width random keys.
        e.key = variant == 3 ? rng() : rank_key(static_cast<double>(
                                           rng.uniform_int(-3, 3)));
        e.id = variant == 2 ? static_cast<std::int32_t>(rng.uniform_int(-4, 4))
                            : static_cast<std::int32_t>(i) - 1000;
        e.src = static_cast<std::uint32_t>(i);
      }
      if (variant == 1 || variant == 3) {
        std::vector<std::int32_t> ids;
        for (const RankSortEntry& e : entries) ids.push_back(e.id);
        rng.shuffle(ids);
        for (std::size_t i = 0; i < n; ++i) entries[i].id = ids[i];
      }
      if (variant == 2) rng.shuffle(entries);
      std::vector<RankSortEntry> expect = entries;
      std::sort(expect.begin(), expect.end());
      rank_sort(entries);
      ASSERT_TRUE(entries == expect) << "n=" << n << " variant " << variant;
    }
  }
}

TEST(BuildRankingQueue, ShuffledIdsAtRadixScaleMatchScalarReference) {
  // 3000 qualified workers in shuffled (and partly negative) id order with
  // quantized bids: the rank sort takes its radix path with the id passes,
  // and ratio ties are common, so the id tie-break is what is tested.
  util::Rng rng(0x5A17);
  std::vector<WorkerId> ids;
  for (int i = 0; i < 3000; ++i) ids.push_back(7 * i - 5000);
  rng.shuffle(ids);
  std::vector<WorkerProfile> workers;
  for (const WorkerId id : ids) {
    workers.push_back({id,
                       {0.25 * static_cast<double>(rng.uniform_int(4, 12)),
                        static_cast<int>(rng.uniform_int(1, 3))},
                       0.5 * static_cast<double>(rng.uniform_int(2, 10))});
  }
  std::vector<Task> tasks;
  for (int j = 0; j < 60; ++j) {
    tasks.push_back({j, 0.5 * static_cast<double>(rng.uniform_int(2, 40))});
  }
  AuctionConfig config;
  config.budget = 400.0;

  const auto queue = build_ranking_queue(workers, config);
  const auto scalar = perf::reference::build_ranking_queue(workers, config);
  ASSERT_EQ(queue.size(), workers.size());
  ASSERT_EQ(scalar.size(), queue.size());
  for (std::size_t p = 0; p < queue.size(); ++p) {
    ASSERT_EQ(queue.ids[p], scalar[p]->id) << p;
    ASSERT_EQ(queue.quality[p], scalar[p]->estimated_quality) << p;
    ASSERT_EQ(queue.density[p],
              scalar[p]->bid.cost / scalar[p]->estimated_quality)
        << p;
    ASSERT_EQ(queue.frequency[p], scalar[p]->bid.frequency) << p;
  }
  for (const PaymentRule rule :
       {PaymentRule::kCriticalValue, PaymentRule::kPaperNextInQueue}) {
    const auto soa = MelodyAuction(rule).run({workers, tasks, config});
    ASSERT_FALSE(soa.assignments.empty());
    expect_same_allocation(
        soa, perf::reference::run_greedy(workers, tasks, config, rule), 0);
  }
}


TEST(PreAllocateDepletion, TaskOrderTiesMatchScalarReference) {
  // The task order (line 3) under ties: repeated thresholds, zero and
  // negative thresholds, and -0.0 beside +0.0, which compare equal and
  // must break by task id. 300 tasks take the comparison sort, 3000 the
  // radix sort, with task ids ascending and shuffled.
  util::Rng rng(0x7A5C);
  const std::vector<double> thresholds{-0.0, 0.0, -1.0, 0.5, 1.0, 1.0,
                                       2.5,  4.0, 4.0,  6.0, 9.5};
  for (const int m : {300, 3000}) {
    for (const bool shuffled : {false, true}) {
      DepletionMarket market;
      for (int i = 0; i < 40; ++i) {
        market.workers.push_back(
            {i,
             {0.5 * static_cast<double>(rng.uniform_int(1, 6)),
              static_cast<int>(rng.uniform_int(1, 3))},
             0.5 * static_cast<double>(rng.uniform_int(1, 10))});
      }
      std::vector<TaskId> task_ids;
      for (int j = 0; j < m; ++j) task_ids.push_back(j);
      if (shuffled) rng.shuffle(task_ids);
      for (const TaskId id : task_ids) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(thresholds.size()) - 1));
        market.tasks.push_back({id, thresholds[pick]});
      }
      market.config.budget = 1e12;
      for (const PaymentRule rule :
           {PaymentRule::kCriticalValue, PaymentRule::kPaperNextInQueue}) {
        const auto queue = build_ranking_queue(market.workers, market.config);
        const auto scalar_queue =
            perf::reference::build_ranking_queue(market.workers, market.config);
        const auto pre = pre_allocate(queue, market.tasks, rule);
        ASSERT_GT(pre.size(), 0u);
        expect_same_pre_allocation(
            pre,
            perf::reference::pre_allocate(scalar_queue, market.tasks, rule), m);
        expect_same_allocation(
            MelodyAuction(rule).run(
                {market.workers, market.tasks, market.config}),
            perf::reference::run_greedy(market.workers, market.tasks,
                                        market.config, rule),
            m);
      }
    }
  }
}

}  // namespace
}  // namespace melody::auction::internal
