// longterm_sim: the paper-default long-term scenario (300 workers, 500
// tasks per run, budget 800, T = 10) stepped over a fixed horizon from
// run 1, with the MELODY auction and the "melody" estimator on a 1-thread
// pool. EM refits over full score histories do most of the work; there is
// no wire and no state codec on this path.
//
// One unit of work is a fresh platform stepped kHorizon runs. A run does a
// fixed number of units, kUnitsPerSecond per second of --seconds, each on its own
// population and platform seed derived from --seed: the simulation's cost
// depends on its data (how often EM refits fire), so one seed alone would
// make runs_per_s a property of that seed. Rates are medians over units and
// quality figures means over units.

#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "auction/melody_auction.h"
#include "estimators/factory.h"
#include "estimators/melody_estimator.h"
#include "sim/platform.h"
#include "sim/scenario.h"
#include "sim/worker_model.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2ebench {

const Shape kLongtermSimShape{.busy_threads = 1, .pool_threads = 1};

namespace {

using melody::auction::AllocationResult;
using melody::auction::AuctionContext;
using melody::auction::Mechanism;
using melody::auction::WorkerId;
using melody::estimators::QualityEstimator;
using melody::lds::ScoreSet;

constexpr int kHorizon = 100;
constexpr double kUnitsPerSecond = 2.5;
constexpr std::uint64_t kUnitSalt = 0x4C54'5349'4D55'4E54ull;

/// Forwards every virtual to the wrapped mechanism and times run().
class TimedMechanism final : public Mechanism {
 public:
  explicit TimedMechanism(Mechanism& inner) : inner_(inner) {}

  AllocationResult run(const AuctionContext& context) override {
    const auto start = Clock::now();
    AllocationResult result = inner_.run(context);
    last_ms = ms_since(start);
    assignments += result.assignments.size();
    return result;
  }
  std::string name() const override { return inner_.name(); }
  bool supports_incremental() const override {
    return inner_.supports_incremental();
  }

  double last_ms = 0.0;
  std::size_t assignments = 0;

 private:
  Mechanism& inner_;
};

/// Forwards every virtual to the wrapped estimator, times observe_run and
/// estimate, and counts EM refits through MelodyEstimator's per-worker
/// reestimation_count (read outside the timed calls).
class TimedEstimator final : public QualityEstimator {
 public:
  explicit TimedEstimator(QualityEstimator& inner)
      : inner_(inner),
        melody_(dynamic_cast<melody::estimators::MelodyEstimator*>(&inner)) {}

  void register_worker(WorkerId id) override {
    inner_.register_worker(id);
    ids_.push_back(id);
  }
  void observe(WorkerId id, const ScoreSet& scores) override {
    inner_.observe(id, scores);
  }
  void observe_run(std::span<const WorkerId> ids,
                   std::span<const ScoreSet> scores) override {
    const auto start = Clock::now();
    inner_.observe_run(ids, scores);
    last_observe_ms = ms_since(start);
    const int total = refit_total();
    last_refits = total - refits;
    refits = total;
  }
  double estimate(WorkerId id) const override {
    const auto start = Clock::now();
    const double value = inner_.estimate(id);
    estimate_ms += ms_since(start);
    return value;
  }
  std::string name() const override { return inner_.name(); }
  void save(std::ostream& out) const override { inner_.save(out); }
  void load(std::istream& in) override { inner_.load(in); }

  double last_observe_ms = 0.0;
  int last_refits = 0;
  int refits = 0;
  mutable double estimate_ms = 0.0;

 private:
  int refit_total() const {
    if (melody_ == nullptr) return 0;
    int total = 0;
    for (const WorkerId id : ids_) total += melody_->reestimation_count(id);
    return total;
  }

  QualityEstimator& inner_;
  melody::estimators::MelodyEstimator* melody_;
  std::vector<WorkerId> ids_;
};

melody::sim::LongTermScenario scenario() {
  melody::sim::LongTermScenario s;  // paper defaults: N=300, M=500, B=800, T=10
  s.runs = kHorizon;
  return s;
}

/// The set-up of one unit: population, estimator, mechanism, platform.
struct Sim {
  std::unique_ptr<QualityEstimator> estimator;
  melody::auction::MelodyAuction auction;
  std::unique_ptr<TimedMechanism> timed_auction;
  std::unique_ptr<TimedEstimator> timed_estimator;
  std::unique_ptr<melody::sim::Platform> platform;

  Sim(std::uint64_t seed, bool traced) {
    const melody::sim::LongTermScenario s = scenario();
    melody::util::Rng population_rng(seed);
    auto workers = melody::sim::sample_population(s.population_config(),
                                                  population_rng);
    estimator = melody::estimators::make(
        "melody", {.initial_mu = s.initial_mu,
                   .initial_sigma = s.initial_sigma,
                   .reestimation_period = s.reestimation_period});
    Mechanism* mechanism = &auction;
    QualityEstimator* quality = estimator.get();
    if (traced) {
      timed_auction = std::make_unique<TimedMechanism>(auction);
      timed_estimator = std::make_unique<TimedEstimator>(*estimator);
      mechanism = timed_auction.get();
      quality = timed_estimator.get();
    }
    platform = std::make_unique<melody::sim::Platform>(
        s, *mechanism, *quality, std::move(workers), seed + 1);
  }
};

struct StepLayers {
  double step_ms = 0.0;
  double auction_ms = 0.0;
  double observe_ms = 0.0;
  double estimate_ms = 0.0;
  bool refit = false;
};

struct UnitResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double est_error = 0.0;
  double requester_utility = 0.0;
  std::vector<double> step_ms;
  // The platform snapshot after the horizon, sized and timed outside the
  // timed steps.
  double state_mb = 0.0;
  double save_ms = 0.0;
  std::vector<StepLayers> steps;  // traced units only
  std::size_t assignments = 0;
  int refits = 0;
};

UnitResult run_unit(std::uint64_t seed, bool traced) {
  UnitResult unit;
  const auto setup_start = Clock::now();
  Sim sim(seed, traced);
  unit.setup_s = seconds_since(setup_start);
  const double budget = sim.platform->scenario().budget;
  double error_sum = 0.0;
  double utility_sum = 0.0;
  const auto start = Clock::now();
  unit.step_ms.reserve(kHorizon);
  for (int r = 0; r < kHorizon; ++r) {
    StepLayers layers;
    if (traced) sim.timed_estimator->estimate_ms = 0.0;
    const auto step_start = Clock::now();
    const melody::sim::RunRecord record = sim.platform->step();
    unit.step_ms.push_back(ms_since(step_start));
    if (traced) {
      layers.step_ms = unit.step_ms.back();
      layers.auction_ms = sim.timed_auction->last_ms;
      layers.observe_ms = sim.timed_estimator->last_observe_ms;
      layers.estimate_ms = sim.timed_estimator->estimate_ms;
      layers.refit = sim.timed_estimator->last_refits > 0;
      unit.steps.push_back(layers);
    }
    if (!(record.total_payment <= budget * (1.0 + 1e-12))) {
      throw CheckFailure("longterm_sim: run " + std::to_string(record.run) +
                         " paid " + std::to_string(record.total_payment) +
                         " over budget " + std::to_string(budget));
    }
    error_sum += record.estimation_error;
    utility_sum += static_cast<double>(record.true_utility);
  }
  unit.wall_s = seconds_since(start);
  {
    CountingBuf buf;
    std::ostream out(&buf);
    const auto save_start = Clock::now();
    sim.platform->save(out);
    unit.save_ms = ms_since(save_start);
    unit.state_mb = static_cast<double>(buf.bytes) / 1e6;
  }
  unit.est_error = error_sum / kHorizon;
  unit.requester_utility = utility_sum / kHorizon;
  if (traced) {
    unit.assignments = sim.timed_auction->assignments;
    unit.refits = sim.timed_estimator->refits;
  }
  return unit;
}

/// The decorators must change nothing: a traced unit's quality figures
/// equal the untraced unit's on the same seed, bit for bit.
void check_same_outputs(const UnitResult& expected, const UnitResult& got) {
  if (got.est_error != expected.est_error ||
      got.requester_utility != expected.requester_utility) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "longterm_sim: the traced unit gave est_error %.17g utility "
                  "%.17g, the untraced one %.17g and %.17g",
                  got.est_error, got.requester_utility,
                  expected.est_error, expected.requester_utility);
    throw CheckFailure(buf);
  }
}

template <typename F>
std::vector<double> collect(const std::vector<UnitResult>& units, F field) {
  std::vector<double> out;
  for (const UnitResult& u : units) {
    for (const StepLayers& s : u.steps) {
      if (const auto v = field(s); v >= 0.0) out.push_back(v);
    }
  }
  return out;
}

}  // namespace

Outcome run_longterm_sim(const Args& args) {
  Outcome outcome;
  const int units = units_for(args.seconds, kUnitsPerSecond, 3);
  std::vector<UnitResult> plain;
  std::vector<UnitResult> traced;
  for (int j = 0; j < units; ++j) {
    const std::uint64_t seed = melody::util::derive_stream(
        args.seed, kUnitSalt, static_cast<std::uint64_t>(j));
    plain.push_back(run_unit(seed, false));
    if (args.trace) {
      traced.push_back(run_unit(seed, true));
      check_same_outputs(plain.back(), traced.back());
    }
  }
  outcome.attempted = plain.size() * kHorizon;

  std::vector<double> setups, rates, steps_ms, overheads, save_ms;
  double error_sum = 0.0, utility_sum = 0.0, state_mb = 0.0;
  for (std::size_t j = 0; j < plain.size(); ++j) {
    const UnitResult& u = plain[j];
    setups.push_back(u.setup_s);
    rates.push_back(kHorizon / u.wall_s);
    steps_ms.insert(steps_ms.end(), u.step_ms.begin(), u.step_ms.end());
    save_ms.push_back(u.save_ms);
    error_sum += u.est_error;
    utility_sum += u.requester_utility;
    state_mb += u.state_mb;
    if (args.trace) overheads.push_back(traced[j].wall_s / u.wall_s);
  }
  if (!args.trace) {
    std::printf("longterm_sim: %zu units of %d runs, %.1f runs/s median\n",
                plain.size(), kHorizon, median(rates));
    outcome.set("setup_s", median(setups));
    outcome.set("ops_per_s", median(rates));
    outcome.set("latency_p50_ms", quantile(steps_ms, 0.50));
    outcome.set("latency_p90_ms", quantile(steps_ms, 0.90));
    outcome.set("state_mb", state_mb / units);
    outcome.set("est_error", error_sum / units);
    outcome.set("requester_utility", utility_sum / units);
    return outcome;
  }

  const auto steps = collect(traced, [](const StepLayers& s) { return s.step_ms; });
  const auto auction = collect(traced, [](const StepLayers& s) { return s.auction_ms; });
  const auto refit = collect(traced, [](const StepLayers& s) {
    return s.refit ? s.observe_ms : -1.0;
  });
  const auto filter = collect(traced, [](const StepLayers& s) {
    return s.refit ? -1.0 : s.observe_ms;
  });
  const auto estimate = collect(traced, [](const StepLayers& s) { return s.estimate_ms; });
  const auto self = collect(traced, [](const StepLayers& s) {
    return s.step_ms - s.auction_ms - s.observe_ms - s.estimate_ms;
  });

  // The ledger of the traced units: every step is the whole, and the
  // auction, estimator update and estimate calls nested inside it the parts.
  double whole = 0.0, a = 0.0, rf = 0.0, fl = 0.0, es = 0.0;
  double assignments = 0.0, refits = 0.0;
  for (const UnitResult& u : traced) {
    for (const StepLayers& s : u.steps) {
      whole += s.step_ms;
      a += s.auction_ms;
      (s.refit ? rf : fl) += s.observe_ms;
      es += s.estimate_ms;
    }
    assignments += static_cast<double>(u.assignments) / units;
    refits += static_cast<double>(u.refits) / units;
  }
  const Ledger ledger{.title = "longterm_sim: " + std::to_string(units) +
                               " traced units of " +
                               std::to_string(kHorizon) + " steps",
                      .unit = "ms",
                      .whole = whole,
                      .parts = {{"auction.run", a},
                                {"estimators.observe_run (refit)", rf},
                                {"estimators.observe_run (filter)", fl},
                                {"estimators.estimate", es}}};
  ledger.print_and_check();
  std::printf("  unexplained remainder = sim.self (bid collection, score "
              "generation, bookkeeping)\n");

  outcome.set("sim.step_ms_p50", quantile(steps, 0.50));
  outcome.set("sim.step_ms_p99", quantile(steps, 0.99));
  outcome.set("sim.self_ms", median(self));
  outcome.set("auction.run_ms", median(auction));
  outcome.set("auction.assignments", assignments);
  outcome.set("estimators.refit_ms", median(refit));
  outcome.set("estimators.filter_ms", median(filter));
  outcome.set("estimators.estimate_ms", median(estimate));
  outcome.set("estimators.refits", refits);
  outcome.set("sim.platform_save_ms", median(save_ms));
  outcome.set("sim.platform_blob_mb", state_mb / units);
  outcome.set("trace.overhead_frac", median(overheads));
  return outcome;
}

}  // namespace e2ebench
