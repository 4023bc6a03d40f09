// Unit tests for the four quality estimators, including the MELODY
// tracker's newcomer handling and periodic EM re-estimation (Algorithm 3).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "estimators/grid_estimator.h"
#include "estimators/melody_estimator.h"
#include "estimators/ml_ar_estimator.h"
#include "estimators/ml_cr_estimator.h"
#include "estimators/static_estimator.h"
#include "obs/metrics.h"
#include "util/binio.h"
#include "util/rng.h"

namespace melody::estimators {
namespace {

lds::ScoreSet scores_of(std::initializer_list<double> values) {
  return lds::ScoreSet::from(std::vector<double>(values));
}

TEST(StaticEstimatorTest, InitialEstimateBeforeScores) {
  StaticEstimator e(5.5, 3);
  e.register_worker(1);
  EXPECT_DOUBLE_EQ(e.estimate(1), 5.5);
}

TEST(StaticEstimatorTest, AveragesWarmupThenFreezes) {
  StaticEstimator e(5.5, 2);
  e.register_worker(1);
  e.observe(1, scores_of({4.0}));
  EXPECT_DOUBLE_EQ(e.estimate(1), 4.0);
  e.observe(1, scores_of({8.0}));
  EXPECT_DOUBLE_EQ(e.estimate(1), 6.0);
  // Warm-up over: further scores are ignored.
  e.observe(1, scores_of({100.0}));
  EXPECT_DOUBLE_EQ(e.estimate(1), 6.0);
}

TEST(StaticEstimatorTest, EmptyRunsCountTowardWarmup) {
  StaticEstimator e(5.5, 2);
  e.register_worker(1);
  e.observe(1, {});
  e.observe(1, {});
  e.observe(1, scores_of({9.0}));  // arrives after warm-up: ignored
  EXPECT_DOUBLE_EQ(e.estimate(1), 5.5);
}

TEST(StaticEstimatorTest, UnknownWorkerThrows) {
  StaticEstimator e(5.5);
  EXPECT_THROW(e.estimate(99), std::out_of_range);
  EXPECT_THROW(e.observe(99, {}), std::out_of_range);
}

TEST(MlCrTest, TracksCurrentRunOnly) {
  MlCurrentRunEstimator e(5.5);
  e.register_worker(1);
  EXPECT_DOUBLE_EQ(e.estimate(1), 5.5);
  e.observe(1, scores_of({2.0, 4.0}));
  EXPECT_DOUBLE_EQ(e.estimate(1), 3.0);
  e.observe(1, scores_of({9.0}));
  EXPECT_DOUBLE_EQ(e.estimate(1), 9.0);  // history forgotten
}

TEST(MlCrTest, EmptyRunKeepsPreviousEstimate) {
  MlCurrentRunEstimator e(5.5);
  e.register_worker(1);
  e.observe(1, scores_of({7.0}));
  e.observe(1, {});
  EXPECT_DOUBLE_EQ(e.estimate(1), 7.0);
}

TEST(MlArTest, AveragesAllHistoryEqually) {
  MlAllRunsEstimator e(5.5);
  e.register_worker(1);
  EXPECT_DOUBLE_EQ(e.estimate(1), 5.5);
  e.observe(1, scores_of({2.0, 4.0}));
  EXPECT_DOUBLE_EQ(e.estimate(1), 3.0);
  e.observe(1, scores_of({9.0}));
  EXPECT_DOUBLE_EQ(e.estimate(1), 5.0);  // (2+4+9)/3
  e.observe(1, {});
  EXPECT_DOUBLE_EQ(e.estimate(1), 5.0);
}

TEST(MlArTest, SlowToAdaptByConstruction) {
  // After a long flat history, one run at a new level barely moves ML-AR
  // but fully moves ML-CR — the paper's under- vs over-fitting contrast.
  MlAllRunsEstimator ar(5.5);
  MlCurrentRunEstimator cr(5.5);
  ar.register_worker(1);
  cr.register_worker(1);
  for (int r = 0; r < 50; ++r) {
    ar.observe(1, scores_of({4.0}));
    cr.observe(1, scores_of({4.0}));
  }
  ar.observe(1, scores_of({9.0}));
  cr.observe(1, scores_of({9.0}));
  EXPECT_LT(ar.estimate(1), 4.5);
  EXPECT_DOUBLE_EQ(cr.estimate(1), 9.0);
}

TEST(MelodyEstimatorTest, NewcomerUsesInitialPosterior) {
  MelodyEstimatorConfig config;
  config.initial_posterior = {5.5, 2.25};
  config.initial_params = {0.9, 1.0, 9.0};
  MelodyEstimator e(config);
  e.register_worker(1);
  // Eq. (19): estimate is a * mu-hat^0.
  EXPECT_DOUBLE_EQ(e.estimate(1), 0.9 * 5.5);
  EXPECT_EQ(e.posterior(1).mean, 5.5);
}

TEST(MelodyEstimatorTest, ObserveAppliesTheorem3) {
  MelodyEstimatorConfig config;
  config.initial_posterior = {5.5, 2.25};
  config.initial_params = {1.0, 0.5, 2.0};
  config.reestimation_period = 0;  // isolate the Kalman path
  MelodyEstimator e(config);
  e.register_worker(1);
  const lds::ScoreSet set = scores_of({6.0, 7.0});
  e.observe(1, set);
  const lds::Gaussian expected =
      lds::filter_step({5.5, 2.25}, set, {1.0, 0.5, 2.0});
  EXPECT_NEAR(e.posterior(1).mean, expected.mean, 1e-12);
  EXPECT_NEAR(e.posterior(1).var, expected.var, 1e-12);
  EXPECT_NEAR(e.estimate(1), expected.mean, 1e-12);  // a = 1
}

TEST(MelodyEstimatorTest, EmptyObservationFreezesChainByDefault) {
  MelodyEstimatorConfig config;
  config.initial_posterior = {5.0, 1.0};
  config.initial_params = {1.0, 0.5, 2.0};
  config.reestimation_period = 0;
  MelodyEstimator e(config);
  e.register_worker(1);
  e.observe(1, {});
  // Participation-indexed chain: an idle run changes nothing.
  EXPECT_DOUBLE_EQ(e.posterior(1).mean, 5.0);
  EXPECT_DOUBLE_EQ(e.posterior(1).var, 1.0);
}

TEST(MelodyEstimatorTest, EmptyObservationPropagatesPriorWhenConfigured) {
  MelodyEstimatorConfig config;
  config.initial_posterior = {5.0, 1.0};
  config.initial_params = {1.0, 0.5, 2.0};
  config.reestimation_period = 0;
  config.advance_on_empty_runs = true;
  MelodyEstimator e(config);
  e.register_worker(1);
  e.observe(1, {});
  EXPECT_DOUBLE_EQ(e.posterior(1).mean, 5.0);
  EXPECT_DOUBLE_EQ(e.posterior(1).var, 1.5);  // variance grows by gamma
}

TEST(MelodyEstimatorTest, IdleDecayArtifactOnlyInPerRunMode) {
  // With a < 1 and a long idle stretch, per-run propagation decays the
  // estimate toward the clamp floor; the participation-indexed default
  // keeps the last posterior.
  for (bool advance : {false, true}) {
    MelodyEstimatorConfig config;
    config.initial_posterior = {6.0, 1.0};
    config.initial_params = {0.9, 0.2, 2.0};
    config.reestimation_period = 0;
    config.advance_on_empty_runs = advance;
    MelodyEstimator e(config);
    e.register_worker(1);
    for (int r = 0; r < 50; ++r) e.observe(1, {});
    if (advance) {
      EXPECT_NEAR(e.estimate(1), config.estimate_min, 1e-6);
    } else {
      EXPECT_NEAR(e.estimate(1), 0.9 * 6.0, 1e-12);
    }
  }
}

TEST(MelodyEstimatorTest, ConvergesToConstantSignal) {
  MelodyEstimatorConfig config;
  config.initial_posterior = {5.5, 2.25};
  config.initial_params = {1.0, 0.1, 4.0};
  config.reestimation_period = 0;
  MelodyEstimator e(config);
  e.register_worker(1);
  for (int r = 0; r < 100; ++r) e.observe(1, scores_of({8.0, 8.0, 8.0}));
  EXPECT_NEAR(e.estimate(1), 8.0, 0.1);
}

TEST(MelodyEstimatorTest, EmTriggersEveryTRuns) {
  MelodyEstimatorConfig config;
  config.reestimation_period = 5;
  config.min_history_for_em = 5;
  MelodyEstimator e(config);
  e.register_worker(1);
  util::Rng rng(3);
  for (int r = 1; r <= 20; ++r) {
    lds::ScoreSet set;
    for (int i = 0; i < 3; ++i) set.add(rng.uniform(4.0, 7.0));
    e.observe(1, set);
    EXPECT_EQ(e.reestimation_count(1), r / 5) << "run " << r;
  }
}

TEST(MelodyEstimatorTest, EmDisabledWhenPeriodZero) {
  MelodyEstimatorConfig config;
  config.reestimation_period = 0;
  MelodyEstimator e(config);
  e.register_worker(1);
  for (int r = 0; r < 30; ++r) e.observe(1, scores_of({5.0}));
  EXPECT_EQ(e.reestimation_count(1), 0);
}

TEST(MelodyEstimatorTest, EmRespectsMinimumHistory) {
  MelodyEstimatorConfig config;
  config.reestimation_period = 2;
  config.min_history_for_em = 10;
  MelodyEstimator e(config);
  e.register_worker(1);
  for (int r = 0; r < 9; ++r) e.observe(1, scores_of({5.0}));
  EXPECT_EQ(e.reestimation_count(1), 0);
  e.observe(1, scores_of({5.0}));
  EXPECT_EQ(e.reestimation_count(1), 1);
}

TEST(MelodyEstimatorTest, EmAdaptsParamsTowardData) {
  // Feed noisy scores with high emission variance; EM should raise eta
  // from a too-confident initial value.
  MelodyEstimatorConfig config;
  config.initial_params = {1.0, 0.5, 0.5};
  config.reestimation_period = 10;
  MelodyEstimator e(config);
  e.register_worker(1);
  util::Rng rng(7);
  for (int r = 0; r < 60; ++r) {
    lds::ScoreSet set;
    for (int i = 0; i < 5; ++i) set.add(rng.normal(5.5, 3.0));
    e.observe(1, set);
  }
  EXPECT_GT(e.params(1).eta, 2.0);
}

TEST(MelodyEstimatorTest, TracksDriftFasterThanMlAr) {
  // A rising worker: MELODY's dynamic model must lag less than ML-AR.
  MelodyEstimatorConfig config;
  config.initial_posterior = {3.0, 2.25};
  MelodyEstimator melody(config);
  MlAllRunsEstimator ar(3.0);
  melody.register_worker(1);
  ar.register_worker(1);
  util::Rng rng(11);
  double q = 3.0;
  for (int r = 0; r < 200; ++r) {
    q += 0.025;  // rises from 3 to 8
    lds::ScoreSet set;
    for (int i = 0; i < 3; ++i) set.add(rng.normal(q, 1.0));
    melody.observe(1, set);
    ar.observe(1, set);
  }
  EXPECT_LT(std::abs(melody.estimate(1) - q), std::abs(ar.estimate(1) - q));
}

TEST(MelodyEstimatorTest, RegisterIsIdempotentViaTryEmplace) {
  MelodyEstimator e;
  e.register_worker(1);
  e.observe(1, scores_of({9.0}));
  const double after = e.estimate(1);
  e.register_worker(1);  // must not reset state
  EXPECT_DOUBLE_EQ(e.estimate(1), after);
}

TEST(MelodyEstimatorTest, ExplorationBonusGrowsWhileStarved) {
  MelodyEstimatorConfig config;
  config.initial_posterior = {2.0, 1.0};
  config.reestimation_period = 0;
  config.exploration_beta = 1.0;
  MelodyEstimator explorer(config);
  config.exploration_beta = 0.0;
  MelodyEstimator plain(config);
  explorer.register_worker(1);
  plain.register_worker(1);
  double previous = explorer.estimate(1);
  for (int r = 0; r < 50; ++r) {
    explorer.observe(1, {});
    plain.observe(1, {});
    EXPECT_GE(explorer.estimate(1), previous);  // bonus only grows while idle
    previous = explorer.estimate(1);
  }
  EXPECT_GT(explorer.estimate(1), plain.estimate(1));
  EXPECT_LE(explorer.estimate(1), config.estimate_max);
}

TEST(MelodyEstimatorTest, ExplorationBonusShrinksWithObservations) {
  MelodyEstimatorConfig config;
  config.initial_posterior = {5.0, 1.0};
  config.reestimation_period = 0;
  config.exploration_beta = 1.0;
  MelodyEstimator e(config);
  e.register_worker(1);
  for (int r = 0; r < 100; ++r) e.observe(1, scores_of({5.0, 5.0, 5.0}));
  // Constantly observed: the bonus ~ sqrt(log(n)/n) -> small.
  EXPECT_NEAR(e.estimate(1), 5.0, 0.4);
}

TEST(MelodyEstimatorTest, WindowedHistoryMatchesUnboundedPosterior) {
  // Without EM, the filter is exactly sequential, so the window bound must
  // not change the posterior at all. With EM on, a window as long as the
  // horizon never slides, so it is the unbounded store: every fit and
  // every snapshot byte agree.
  constexpr int kRuns = 40;
  for (const auto& [period, window] : {std::pair{0, 5}, std::pair{10, kRuns}}) {
    MelodyEstimatorConfig unbounded;
    unbounded.reestimation_period = period;
    MelodyEstimatorConfig windowed = unbounded;
    windowed.max_history = window;
    MelodyEstimator a(unbounded), b(windowed);
    a.register_worker(1);
    b.register_worker(1);
    util::Rng rng(19);
    for (int r = 0; r < kRuns; ++r) {
      lds::ScoreSet set;
      set.add(rng.uniform(2.0, 9.0));
      a.observe(1, set);
      b.observe(1, set);
    }
    EXPECT_NEAR(a.posterior(1).mean, b.posterior(1).mean, 1e-12);
    EXPECT_NEAR(a.posterior(1).var, b.posterior(1).var, 1e-12);
    if (period == 0) continue;
    EXPECT_EQ(b.reestimation_count(1), kRuns / period);
    std::ostringstream a_snapshot, b_snapshot;
    a.save(a_snapshot);
    b.save(b_snapshot);
    EXPECT_EQ(a_snapshot.str(), b_snapshot.str());
  }
}

TEST(MelodyEstimatorTest, WindowedHistoryStillRunsEm) {
  MelodyEstimatorConfig config;
  config.reestimation_period = 10;
  config.max_history = 12;
  MelodyEstimator e(config);
  e.register_worker(1);
  util::Rng rng(23);
  for (int r = 0; r < 50; ++r) {
    lds::ScoreSet set;
    for (int s = 0; s < 3; ++s) set.add(rng.normal(6.0, 2.0));
    e.observe(1, set);
  }
  EXPECT_GE(e.reestimation_count(1), 4);
  // The windowed fit still converges near the data.
  EXPECT_NEAR(e.estimate(1), 6.0, 1.0);
}

TEST(MelodyEstimatorTest, EmCapHitsCountFitsTheCapStopped) {
  // 8 dense workers, T = 5, 10 runs: 16 fits. A three-iteration cap with a
  // zero tolerance stops every fit at the cap; an unreachable-to-miss
  // tolerance converges every fit at the earliest stop instead, after two
  // iterations (the first log-likelihood step it can test).
  auto run = [](double tolerance) {
    MelodyEstimatorConfig config;
    config.reestimation_period = 5;
    config.em_options.max_iterations = 3;
    config.em_options.tolerance = tolerance;
    MelodyEstimator estimator(config);
    std::vector<auction::WorkerId> ids;
    for (int w = 0; w < 8; ++w) {
      estimator.register_worker(w);
      ids.push_back(w);
    }
    for (int r = 0; r < 10; ++r) {
      std::vector<lds::ScoreSet> scores(ids.size());
      for (std::size_t w = 0; w < ids.size(); ++w) {
        scores[w].add(3.0 + static_cast<double>((w + r) % 5));
      }
      estimator.observe_run(ids, scores);
    }
  };
  obs::Counter& runs = obs::registry().counter("estimator/em_runs");
  obs::Counter& cap_hits = obs::registry().counter("estimator/em_cap_hits");
  obs::ScopedEnable on(true);
  std::uint64_t runs_before = runs.value();
  std::uint64_t caps_before = cap_hits.value();
  run(0.0);
  EXPECT_EQ(runs.value() - runs_before, 16u);
  EXPECT_EQ(cap_hits.value() - caps_before, 16u);

  runs_before = runs.value();
  caps_before = cap_hits.value();
  run(1e300);
  EXPECT_EQ(runs.value() - runs_before, 16u);
  EXPECT_EQ(cap_hits.value() - caps_before, 0u);

  // Collection off: nothing moves.
  obs::ScopedEnable off(false);
  runs_before = runs.value();
  caps_before = cap_hits.value();
  run(0.0);
  EXPECT_EQ(runs.value(), runs_before);
  EXPECT_EQ(cap_hits.value(), caps_before);
}

TEST(MelodyEstimatorTest, InvalidInitialParamsThrow) {
  MelodyEstimatorConfig config;
  config.initial_params = {1.0, -1.0, 1.0};
  EXPECT_THROW(MelodyEstimator{config}, std::domain_error);
}

TEST(QualityEstimatorTest, PolymorphicSaveLoadRoundTripsAllEstimators) {
  // Persistence lives on the base interface: feed each implementation the
  // same history through a base pointer, snapshot it, restore into a
  // fresh same-config instance, and compare estimates — no downcasting.
  const auto make_all = [] {
    std::vector<std::unique_ptr<QualityEstimator>> all;
    all.push_back(std::make_unique<StaticEstimator>(5.5, 10));
    all.push_back(std::make_unique<MlCurrentRunEstimator>(5.5));
    all.push_back(std::make_unique<MlAllRunsEstimator>(5.5));
    all.push_back(std::make_unique<MelodyEstimator>());
    all.push_back(std::make_unique<GridEstimator>());
    return all;
  };

  auto originals = make_all();
  util::Rng rng(29);
  std::vector<std::pair<auction::WorkerId, lds::ScoreSet>> history;
  for (int run = 0; run < 15; ++run) {
    for (auction::WorkerId id = 0; id < 6; ++id) {
      lds::ScoreSet set;
      if (rng.bernoulli(0.8)) {
        const int n = static_cast<int>(rng.uniform_int(1, 4));
        for (int s = 0; s < n; ++s) set.add(rng.uniform(1.0, 10.0));
      }
      history.emplace_back(id, set);
    }
  }
  for (auto& estimator : originals) {
    for (auction::WorkerId id = 0; id < 6; ++id) {
      estimator->register_worker(id);
    }
    for (const auto& [id, set] : history) estimator->observe(id, set);
  }

  auto restored_set = make_all();
  for (std::size_t e = 0; e < originals.size(); ++e) {
    QualityEstimator& original = *originals[e];
    QualityEstimator& restored = *restored_set[e];
    std::stringstream snapshot;
    original.save(snapshot);
    restored.load(snapshot);
    for (auction::WorkerId id = 0; id < 6; ++id) {
      EXPECT_DOUBLE_EQ(restored.estimate(id), original.estimate(id))
          << original.name() << " worker " << id;
    }
    // Snapshots are deterministic: re-saving the restored instance must
    // reproduce the original bytes.
    std::stringstream again;
    restored.save(again);
    EXPECT_EQ(again.str(), snapshot.str()) << original.name();

    // A hostile blob: this estimator's own 12-byte header, then a worker
    // count of 10^14 with no records behind it. It must fail as malformed
    // input (runtime_error), never by sizing an allocation from the count
    // (bad_alloc / length_error).
    util::binio::Writer hostile;
    hostile.write_raw(snapshot.str().substr(0, 12));
    hostile.write_u64(100'000'000'000'000ull);
    util::binio::Reader in(hostile.bytes());
    EXPECT_THROW(make_all()[e]->load_from(in), std::runtime_error)
        << original.name();
  }
}

TEST(QualityEstimatorTest, SaveLoadRejectsForeignHeader) {
  // Each estimator's loader must refuse another estimator's snapshot
  // instead of silently misreading it.
  StaticEstimator source(5.5, 10);
  source.register_worker(1);
  std::stringstream snapshot;
  source.save(snapshot);
  MlAllRunsEstimator wrong(5.5);
  EXPECT_THROW(wrong.load(snapshot), std::runtime_error);
}

// An estimator with only the pure virtuals: the base save/load and
// save_to/load_from forward to each other.
class BareEstimator final : public QualityEstimator {
 public:
  void register_worker(auction::WorkerId) override {}
  void observe(auction::WorkerId, const lds::ScoreSet&) override {}
  double estimate(auction::WorkerId) const override { return 0.0; }
  std::string name() const override { return "bare"; }
};

// Overrides only the stream pair, as a decorating wrapper does.
class StreamOnlyWrapper final : public QualityEstimator {
 public:
  explicit StreamOnlyWrapper(QualityEstimator& inner) : inner_(inner) {}
  void register_worker(auction::WorkerId id) override {
    inner_.register_worker(id);
  }
  void observe(auction::WorkerId id, const lds::ScoreSet& s) override {
    inner_.observe(id, s);
  }
  double estimate(auction::WorkerId id) const override {
    return inner_.estimate(id);
  }
  std::string name() const override { return inner_.name(); }
  void save(std::ostream& out) const override { inner_.save(out); }
  void load(std::istream& in) override { inner_.load(in); }

 private:
  QualityEstimator& inner_;
};

TEST(QualityEstimatorPersistence, OverridingNeitherPairThrowsLogicError) {
  BareEstimator bare;
  util::binio::Writer out;
  EXPECT_THROW(bare.save_to(out), std::logic_error);
  std::ostringstream stream;
  EXPECT_THROW(bare.save(stream), std::logic_error);
  const std::string bytes = "MLDYSTAT";
  util::binio::Reader in(bytes);
  EXPECT_THROW(bare.load_from(in), std::logic_error);
  std::istringstream source(bytes);
  EXPECT_THROW(bare.load(source), std::logic_error);
}

TEST(QualityEstimatorPersistence, StreamOnlyWrapperForwardsBothWays) {
  MelodyEstimator inner;
  for (auction::WorkerId id : {3, 1}) inner.register_worker(id);
  inner.observe(3, lds::ScoreSet::from(std::vector<double>{6.0, 7.0}));
  StreamOnlyWrapper wrapper(inner);
  util::binio::Writer direct;
  inner.save_to(direct);
  util::binio::Writer forwarded;
  wrapper.save_to(forwarded);
  EXPECT_EQ(forwarded.bytes(), direct.bytes());

  MelodyEstimator target;
  StreamOnlyWrapper loader(target);
  util::binio::Reader in(forwarded.bytes());
  loader.load_from(in);
  EXPECT_EQ(target.estimate(3), inner.estimate(3));
  EXPECT_EQ(target.estimate(1), inner.estimate(1));
}

}  // namespace
}  // namespace melody::estimators
