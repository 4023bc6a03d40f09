// Seeded randomized property tests over the mechanism-design theorems.
//
// Coverage (one generated auction = one property instance):
//   * 1000 multi-task auctions: individual rationality (every winner's
//     payment covers his cost for every assigned task, so p_i >= n_i c_i
//     over his portfolio — Theorem 6), budget feasibility (sum p <= B),
//     frequency feasibility, and task satisfaction. Zero violations.
//   * 1000 single-task auctions: strict dominant-strategy truthfulness in
//     cost — no deviation on an 11-point grid around the true cost raises
//     utility. Zero violations. (Single-task is where the critical-value
//     argument is exact; see tests/test_truthfulness.cc's header for why
//     multi-task truthfulness is an aggregate, not per-instance, claim.)
//   * The same grid over the multi-task instances, asserted in aggregate:
//     deviating loses in expectation.
//   * SoA/scalar twin runs: the production (SoA) mechanism and the frozen
//     scalar reference (perf/reference.h) consume identical seeded streams;
//     both must satisfy IR and budget feasibility AND produce the same
//     allocation. Includes radix-scale markets (>= 2048 qualified workers,
//     asserted via the obs counter) so the linear-time rank sort — not just
//     the comparison sort — is property-tested, including a truthfulness
//     grid at that scale.
// Everything derives from fixed seeds via util::Rng, so the "random"
// instances are reproducible bit-for-bit on every platform.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "auction/melody_auction.h"
#include "obs/metrics.h"
#include "perf/reference.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace melody::auction {
namespace {

constexpr int kInstances = 1000;
constexpr double kEps = 1e-9;

struct Instance {
  std::vector<WorkerProfile> workers;
  std::vector<Task> tasks;
  AuctionConfig config;
};

/// One random auction: sizes, budget and thresholds are themselves drawn
/// from the generator, so the suite sweeps tiny starved markets and large
/// saturated ones out of a single seed.
Instance sample_instance(util::Rng& rng, int max_tasks) {
  sim::SraScenario scenario;
  scenario.num_workers = static_cast<int>(rng.uniform_int(5, 60));
  scenario.num_tasks = static_cast<int>(rng.uniform_int(1, max_tasks));
  scenario.budget = rng.uniform(10.0, 400.0);
  scenario.threshold = {rng.uniform(4.0, 8.0), rng.uniform(8.0, 16.0)};
  Instance instance;
  instance.workers = scenario.sample_workers(rng);
  instance.tasks = scenario.sample_tasks(rng);
  instance.config = scenario.auction_config();
  return instance;
}

double utility_of(const AllocationResult& result, WorkerId id,
                  double true_cost) {
  return result.payment_to(id) - true_cost * result.tasks_assigned_to(id);
}

const WorkerProfile* profile_of(const Instance& instance, WorkerId id) {
  for (const auto& w : instance.workers) {
    if (w.id == id) return &w;
  }
  return nullptr;
}

TEST(MechanismProperties, IndividualRationalityAndFeasibilityOver1kAuctions) {
  util::Rng rng(20170601);  // ICDCS'17: fixed, documented master seed
  MelodyAuction auction(PaymentRule::kCriticalValue);
  int violations = 0;
  int nonempty = 0;
  for (int i = 0; i < kInstances; ++i) {
    const Instance instance = sample_instance(rng, 40);
    const auto result =
        auction.run({instance.workers, instance.tasks, instance.config});
    if (!result.assignments.empty()) ++nonempty;

    // IR, per assignment (stronger than the portfolio claim p_i >= n_i c_i,
    // which follows by summation).
    for (const auto& a : result.assignments) {
      const WorkerProfile* w = profile_of(instance, a.worker);
      ASSERT_NE(w, nullptr);
      if (a.payment < w->bid.cost - kEps) ++violations;
    }
    for (const auto& w : instance.workers) {
      if (utility_of(result, w.id, w.bid.cost) < -kEps) ++violations;
    }
    if (!check_budget_feasibility(result, instance.config).empty()) {
      ++violations;
    }
    if (!check_frequency_feasibility(result, instance.workers).empty()) {
      ++violations;
    }
    if (!check_task_satisfaction(result, instance.workers, instance.tasks)
             .empty()) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
  // The generator must produce real markets, not degenerate empty ones.
  EXPECT_GT(nonempty, kInstances / 2);
}

TEST(MechanismProperties, PaperPaymentRuleAlsoIrAndBudgetFeasible) {
  util::Rng rng(20170602);
  MelodyAuction auction(PaymentRule::kPaperNextInQueue);
  int violations = 0;
  for (int i = 0; i < kInstances; ++i) {
    const Instance instance = sample_instance(rng, 40);
    const auto result =
        auction.run({instance.workers, instance.tasks, instance.config});
    for (const auto& a : result.assignments) {
      const WorkerProfile* w = profile_of(instance, a.worker);
      ASSERT_NE(w, nullptr);
      if (a.payment < w->bid.cost - kEps) ++violations;
    }
    if (!check_budget_feasibility(result, instance.config).empty()) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
}

/// The 11-point misreport grid spans underbidding to near-double.
constexpr double kCostGrid[] = {0.5,  0.7,  0.8,  0.9,  0.95, 1.05,
                                1.1,  1.2,  1.4,  1.7,  1.95};

TEST(MechanismProperties, SingleTaskTruthfulnessOver1kAuctions) {
  util::Rng rng(20170603);
  MelodyAuction auction(PaymentRule::kCriticalValue);
  int violations = 0;
  int probes = 0;
  for (int i = 0; i < kInstances; ++i) {
    const Instance instance = sample_instance(rng, /*max_tasks=*/1);
    const auto truthful =
        auction.run({instance.workers, instance.tasks, instance.config});
    // Probe one uniformly chosen worker per instance (probing all 60 x 11
    // re-auctions x 1000 instances would dominate the suite's runtime
    // without adding coverage: the deviator is already random).
    const std::size_t probe = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(instance.workers.size()) - 1));
    const double true_cost = instance.workers[probe].bid.cost;
    const WorkerId id = instance.workers[probe].id;
    const double baseline = utility_of(truthful, id, true_cost);
    for (double factor : kCostGrid) {
      auto deviated = instance.workers;
      deviated[probe].bid.cost = true_cost * factor;
      const auto outcome =
          auction.run({deviated, instance.tasks, instance.config});
      if (utility_of(outcome, id, true_cost) > baseline + kEps) ++violations;
      ++probes;
    }
  }
  EXPECT_EQ(violations, 0) << "out of " << probes << " deviation probes";
}

TEST(MechanismProperties, MultiTaskDeviationLosesInAggregate) {
  util::Rng rng(20170604);
  MelodyAuction auction(PaymentRule::kCriticalValue);
  double total_gain = 0.0;
  double max_gain = 0.0;
  int probes = 0;
  for (int i = 0; i < 250; ++i) {  // 250 x 11 grid = 2750 re-auctions
    const Instance instance = sample_instance(rng, 40);
    const auto truthful =
        auction.run({instance.workers, instance.tasks, instance.config});
    const std::size_t probe = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(instance.workers.size()) - 1));
    const double true_cost = instance.workers[probe].bid.cost;
    const WorkerId id = instance.workers[probe].id;
    const double baseline = utility_of(truthful, id, true_cost);
    for (double factor : kCostGrid) {
      auto deviated = instance.workers;
      deviated[probe].bid.cost = true_cost * factor;
      const auto outcome =
          auction.run({deviated, instance.tasks, instance.config});
      const double gain = utility_of(outcome, id, true_cost) - baseline;
      total_gain += gain;
      max_gain = std::max(max_gain, gain);
      ++probes;
    }
  }
  ASSERT_GT(probes, 0);
  EXPECT_LE(total_gain / probes, kEps)
      << "cheating profited in expectation (max single gain " << max_gain
      << ")";
}

// ---------------------------------------------------------------------------
// SoA/scalar twin properties: the production mechanism and the frozen scalar
// reference run on identical seeded instances. The theorems must hold on the
// SoA path directly (not only by transitivity through bit-identity), and the
// two paths must still agree allocation-for-allocation.
// ---------------------------------------------------------------------------

/// IR + budget + frequency + task-satisfaction violations in one result.
int property_violations(const AllocationResult& result,
                        const Instance& instance) {
  int violations = 0;
  for (const auto& a : result.assignments) {
    const WorkerProfile* w = profile_of(instance, a.worker);
    if (w == nullptr || a.payment < w->bid.cost - kEps) ++violations;
  }
  if (!check_budget_feasibility(result, instance.config).empty()) ++violations;
  if (!check_frequency_feasibility(result, instance.workers).empty()) {
    ++violations;
  }
  if (!check_task_satisfaction(result, instance.workers, instance.tasks)
           .empty()) {
    ++violations;
  }
  return violations;
}

void expect_same_allocation(const AllocationResult& soa,
                            const AllocationResult& scalar, int instance) {
  ASSERT_EQ(soa.selected_tasks, scalar.selected_tasks)
      << "instance " << instance;
  ASSERT_EQ(soa.assignments.size(), scalar.assignments.size())
      << "instance " << instance;
  for (std::size_t a = 0; a < scalar.assignments.size(); ++a) {
    EXPECT_EQ(soa.assignments[a].worker, scalar.assignments[a].worker)
        << "instance " << instance << " assignment " << a;
    EXPECT_EQ(soa.assignments[a].task, scalar.assignments[a].task)
        << "instance " << instance << " assignment " << a;
    EXPECT_EQ(soa.assignments[a].payment, scalar.assignments[a].payment)
        << "instance " << instance << " assignment " << a;
  }
}

TEST(MechanismProperties, SoaAndScalarTwinsBothIrAndFeasibleAndAgree) {
  util::Rng rng(20170605);
  MelodyAuction auction(PaymentRule::kCriticalValue);
  int soa_violations = 0;
  int scalar_violations = 0;
  for (int i = 0; i < 300; ++i) {
    const Instance instance = sample_instance(rng, 40);
    const auto soa =
        auction.run({instance.workers, instance.tasks, instance.config});
    const auto scalar = perf::reference::run_greedy(
        instance.workers, instance.tasks, instance.config,
        PaymentRule::kCriticalValue);
    soa_violations += property_violations(soa, instance);
    scalar_violations += property_violations(scalar, instance);
    expect_same_allocation(soa, scalar, i);
  }
  EXPECT_EQ(soa_violations, 0);
  EXPECT_EQ(scalar_violations, 0);
}

/// A market wide enough that the qualified set crosses the greedy core's
/// radix rank-sort threshold (2048 entries).
Instance sample_radix_scale_instance(util::Rng& rng) {
  sim::SraScenario scenario;
  scenario.num_workers = 6000;
  scenario.num_tasks = static_cast<int>(rng.uniform_int(40, 120));
  scenario.budget = rng.uniform(1000.0, 4000.0);
  scenario.threshold = {rng.uniform(60.0, 90.0), rng.uniform(100.0, 140.0)};
  Instance instance;
  instance.workers = scenario.sample_workers(rng);
  instance.tasks = scenario.sample_tasks(rng);
  instance.config = scenario.auction_config();
  return instance;
}

TEST(MechanismProperties, RadixScaleMarketsIrFeasibleAndMatchScalar) {
  util::Rng rng(20170606);
  MelodyAuction auction(PaymentRule::kCriticalValue);
  // Ids arrive in ascending order, so the radix path sorts on the key
  // alone (no id passes); verify the generator supplies that order, then
  // prove via the obs counter that the markets really crossed the
  // 2048-entry threshold.
  obs::ScopedEnable obs_on(true);
  obs::Counter& qualified =
      obs::registry().counter("auction/qualified_workers");
  for (int i = 0; i < 5; ++i) {
    const Instance instance = sample_radix_scale_instance(rng);
    for (std::size_t w = 1; w < instance.workers.size(); ++w) {
      ASSERT_LT(instance.workers[w - 1].id, instance.workers[w].id);
    }
    qualified.reset();
    const auto soa =
        auction.run({instance.workers, instance.tasks, instance.config});
    ASSERT_GE(qualified.value(), 2048u)
        << "market " << i << " too small to engage the radix rank sort";
    const auto scalar = perf::reference::run_greedy(
        instance.workers, instance.tasks, instance.config,
        PaymentRule::kCriticalValue);
    EXPECT_EQ(property_violations(soa, instance), 0) << "market " << i;
    expect_same_allocation(soa, scalar, i);
  }
}

TEST(MechanismProperties, RadixScaleSingleTaskTruthfulness) {
  // The misreport grid at radix scale: a deviating bid must not profit when
  // the ranking ran through the radix path either. Single-task markets keep
  // the critical-value argument exact (see the header).
  util::Rng rng(20170607);
  MelodyAuction auction(PaymentRule::kCriticalValue);
  obs::ScopedEnable obs_on(true);
  obs::Counter& qualified =
      obs::registry().counter("auction/qualified_workers");
  int violations = 0;
  int probes = 0;
  for (int i = 0; i < 3; ++i) {
    Instance instance = sample_radix_scale_instance(rng);
    instance.tasks.resize(1);
    qualified.reset();
    const auto truthful =
        auction.run({instance.workers, instance.tasks, instance.config});
    ASSERT_GE(qualified.value(), 2048u) << "market " << i;
    for (int p = 0; p < 2; ++p) {
      const std::size_t probe = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(instance.workers.size()) - 1));
      const double true_cost = instance.workers[probe].bid.cost;
      const WorkerId id = instance.workers[probe].id;
      const double baseline = utility_of(truthful, id, true_cost);
      for (double factor : kCostGrid) {
        auto deviated = instance.workers;
        deviated[probe].bid.cost = true_cost * factor;
        const auto outcome =
            auction.run({deviated, instance.tasks, instance.config});
        if (utility_of(outcome, id, true_cost) > baseline + kEps) {
          ++violations;
        }
        ++probes;
      }
    }
  }
  EXPECT_EQ(violations, 0) << "out of " << probes << " deviation probes";
}

}  // namespace
}  // namespace melody::auction
