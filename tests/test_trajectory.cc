// Trajectory generators and the Fig. 1 stability classifier.
#include "sim/trajectory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/stats.h"

namespace melody::sim {
namespace {

TrajectoryConfig base_config(TrajectoryKind kind) {
  TrajectoryConfig c;
  c.kind = kind;
  c.start_level = 3.0;
  c.swing = 4.0;
  c.period = 100.0;
  c.noise_stddev = 0.1;
  c.horizon = 500;
  return c;
}

TEST(Trajectory, LengthAndClamping) {
  util::Rng rng(1);
  auto config = base_config(TrajectoryKind::kRising);
  config.start_level = 9.0;  // 9 + 4 would exceed the max of 10
  const auto q = generate_trajectory(config, 500, rng);
  ASSERT_EQ(q.size(), 500u);
  for (double v : q) {
    EXPECT_GE(v, config.min_quality);
    EXPECT_LE(v, config.max_quality);
  }
}

TEST(Trajectory, ZeroRunsIsEmpty) {
  util::Rng rng(2);
  EXPECT_TRUE(generate_trajectory(base_config(TrajectoryKind::kStable), 0, rng)
                  .empty());
}

TEST(Trajectory, RisingHasPositiveTrend) {
  util::Rng rng(3);
  const auto q = generate_trajectory(base_config(TrajectoryKind::kRising), 500,
                                     rng);
  const auto fit = util::linear_trend(q);
  EXPECT_GT(fit.slope, 0.004);  // ~4/500 per run expected
}

TEST(Trajectory, DecliningHasNegativeTrend) {
  util::Rng rng(4);
  auto config = base_config(TrajectoryKind::kDeclining);
  config.start_level = 8.0;
  const auto q = generate_trajectory(config, 500, rng);
  EXPECT_LT(util::linear_trend(q).slope, -0.004);
}

TEST(Trajectory, FluctuatingCrossesItsMeanRepeatedly) {
  util::Rng rng(5);
  auto config = base_config(TrajectoryKind::kFluctuating);
  config.start_level = 5.5;
  config.swing = 2.0;
  const auto q = generate_trajectory(config, 500, rng);
  const double m = util::mean(q);
  int crossings = 0;
  for (std::size_t i = 1; i < q.size(); ++i) {
    if ((q[i - 1] - m) * (q[i] - m) < 0.0) ++crossings;
  }
  // Five periods in 500 runs -> around 10 crossings; noise adds more.
  EXPECT_GE(crossings, 6);
}

TEST(Trajectory, StableStaysNearStartLevel) {
  util::Rng rng(6);
  auto config = base_config(TrajectoryKind::kStable);
  config.start_level = 6.0;
  config.noise_stddev = 0.05;
  const auto q = generate_trajectory(config, 500, rng);
  EXPECT_NEAR(util::mean(q), 6.0, 0.5);
  EXPECT_LT(util::variance(q), 1.0);
}

// The stream is the trajectory's one implementation; these pin it to the
// array generate_trajectory returns, bit for bit, for every kind.
constexpr TrajectoryKind kKinds[] = {
    TrajectoryKind::kRising, TrajectoryKind::kDeclining,
    TrajectoryKind::kFluctuating, TrajectoryKind::kStable};
constexpr std::uint64_t kSeeds[] = {1, 2, 17, 0xDEADBEEF};
constexpr int kLength = 57;  // odd: the last pair leaves a cached deviate

/// A generator with a half-used Box-Muller pair on odd seeds, so streams
/// also start from a valid cache.
util::Rng shared_rng(std::uint64_t seed) {
  util::Rng rng(seed);
  if (seed % 2 == 1) rng.normal();
  return rng;
}

TEST(TrajectoryStream, StepsTheBitsOfTheArrayAndTheSharedRngAgrees) {
  for (const TrajectoryKind kind : kKinds) {
    for (const std::uint64_t seed : kSeeds) {
      util::Rng array_rng = shared_rng(seed);
      const TrajectoryConfig config = sample_config(kind, 40, array_rng);
      util::Rng stream_rng = array_rng;
      const std::vector<double> q =
          generate_trajectory(config, kLength, array_rng);

      TrajectoryStream stream(config, kLength, stream_rng);
      for (int r = 1; r <= kLength; ++r) {
        stream.advance();
        ASSERT_EQ(stream.run(), r);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(stream.value()),
                  std::bit_cast<std::uint64_t>(q[static_cast<std::size_t>(r - 1)]))
            << to_string(kind) << " seed " << seed << " run " << r;
      }
      // The stream's generator, and the shared one after skipping the
      // trajectory's draws, end where generating the array left it.
      EXPECT_EQ(stream.rng().state(), array_rng.state());
      stream_rng.discard_normals(kLength);
      EXPECT_EQ(stream_rng.state(), array_rng.state());
    }
  }
}

TEST(TrajectoryStream, HoldsTheLastValuePastItsLengthAndDrawsNothing) {
  for (const TrajectoryKind kind : kKinds) {
    for (const std::uint64_t seed : kSeeds) {
      util::Rng rng = shared_rng(seed);
      TrajectoryStream stream(sample_config(kind, 40, rng), kLength, rng);
      stream.advance_to(kLength);
      const double last = stream.value();
      const util::Rng::State at_end = stream.rng().state();
      for (int r = 0; r < 20; ++r) stream.advance();
      stream.advance_to(kLength + 1000);
      EXPECT_EQ(stream.run(), kLength);
      EXPECT_EQ(stream.value(), last);
      EXPECT_EQ(stream.rng().state(), at_end);
    }
  }
  TrajectoryStream empty;
  empty.advance_to(10);
  EXPECT_EQ(empty.run(), 0);
  EXPECT_EQ(empty.value(), 0.0);
}

TEST(TrajectoryStream, SavedMidTrajectoryResumesIdentically) {
  for (const TrajectoryKind kind : kKinds) {
    for (const std::uint64_t seed : kSeeds) {
      util::Rng rng = shared_rng(seed);
      TrajectoryStream original(sample_config(kind, 40, rng), kLength, rng);
      original.advance_to(static_cast<int>(seed % 30) + 1);
      TrajectoryStream resumed(original.state());
      EXPECT_EQ(resumed.state(), original.state());
      EXPECT_EQ(resumed.value(), original.value());
      for (int r = 0; r < kLength; ++r) {
        original.advance();
        resumed.advance();
        ASSERT_EQ(resumed.value(), original.value());
      }
      EXPECT_EQ(resumed.state(), original.state());
    }
  }
}

TEST(TrajectoryStream, FastForwardToRunKReadsTheArrayAtRunK) {
  for (const TrajectoryKind kind : kKinds) {
    for (const std::uint64_t seed : kSeeds) {
      util::Rng rng = shared_rng(seed);
      const TrajectoryConfig config = sample_config(kind, 40, rng);
      util::Rng array_rng = rng;
      const std::vector<double> q = generate_trajectory(config, kLength, array_rng);
      for (const int k : {1, 2, 9, 30, kLength - 1, kLength, kLength + 5}) {
        TrajectoryStream newcomer(config, kLength, rng);
        newcomer.advance_to(k);
        const std::size_t index =
            static_cast<std::size_t>(std::min(k, kLength) - 1);
        EXPECT_EQ(newcomer.value(), q[index]) << "k " << k;
      }
    }
  }
}

TEST(TrajectoryStream, RejectsImplausibleStates) {
  util::Rng rng(11);
  const TrajectoryStream good(sample_config(TrajectoryKind::kFluctuating, 40, rng),
                              kLength, rng);
  const auto rejects = [&good](auto&& edit) {
    TrajectoryStream::State s = good.state();
    edit(s);
    EXPECT_THROW(TrajectoryStream{s}, std::invalid_argument);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  rejects([](auto& s) { s.config.kind = static_cast<TrajectoryKind>(4); });
  rejects([&](auto& s) { s.config.start_level = nan; });
  rejects([&](auto& s) { s.config.swing = inf; });
  rejects([&](auto& s) { s.config.phase = -inf; });
  rejects([&](auto& s) { s.config.noise_stddev = nan; });
  rejects([](auto& s) { s.config.noise_stddev = -1.0; });
  rejects([](auto& s) { s.config.period = 0.0; });
  rejects([&](auto& s) { s.config.min_quality = nan; });
  rejects([](auto& s) { s.config.min_quality = 11.0; });
  rejects([&](auto& s) { s.drift = inf; });
  rejects([](auto& s) { s.drift = 1e300; });
  rejects([&](auto& s) { s.rng.cached_normal = nan; });
  rejects([](auto& s) { s.length = -1; });
  rejects([](auto& s) { s.run = -1; });
  rejects([](auto& s) { s.run = s.length + 1; });
  rejects([](auto& s) {
    for (auto& w : s.rng.words) w = 0;
  });
  EXPECT_THROW(TrajectoryStream(TrajectoryConfig{}, -3, rng),
               std::invalid_argument);
  EXPECT_NO_THROW(TrajectoryStream{good.state()});
}

TEST(RngDiscard, LeavesTheStateNormalDrawsLeave) {
  for (const std::uint64_t seed : kSeeds) {
    for (std::uint64_t n = 0; n < 9; ++n) {
      util::Rng drawn = shared_rng(seed);
      util::Rng skipped = drawn;
      for (std::uint64_t k = 0; k < n; ++k) drawn.normal();
      skipped.discard_normals(n);
      EXPECT_EQ(skipped.state(), drawn.state()) << "seed " << seed << " n " << n;
      EXPECT_EQ(skipped.normal(), drawn.normal());
    }
  }
}

TEST(Stability, ClassifierOnSyntheticCurves) {
  util::Rng rng(7);
  auto stable_config = base_config(TrajectoryKind::kStable);
  stable_config.noise_stddev = 0.05;
  EXPECT_TRUE(is_stable(generate_trajectory(stable_config, 500, rng)));

  auto rising_config = base_config(TrajectoryKind::kRising);
  EXPECT_FALSE(is_stable(generate_trajectory(rising_config, 500, rng)));
}

TEST(Stability, ShortCurvesAreStable) {
  EXPECT_TRUE(is_stable(std::vector<double>{}));
  EXPECT_TRUE(is_stable(std::vector<double>{5.0}));
}

TEST(Stability, HighVarianceIsUnstableEvenWithoutTrend) {
  // Symmetric zig-zag: zero slope but large variance.
  std::vector<double> q;
  for (int i = 0; i < 100; ++i) q.push_back(i % 2 == 0 ? 2.0 : 9.0);
  EXPECT_FALSE(is_stable(q));
}

TEST(Stability, CustomCriteria) {
  std::vector<double> q;
  for (int i = 0; i < 100; ++i) q.push_back(5.0 + 0.01 * i);
  StabilityCriteria lax;
  lax.max_abs_slope = 0.1;
  EXPECT_TRUE(is_stable(q, lax));
  StabilityCriteria strict;
  strict.max_abs_slope = 0.001;
  EXPECT_FALSE(is_stable(q, strict));
}

TEST(PopulationMixTest, SampleKindRespectsProportions) {
  util::Rng rng(8);
  PopulationMix mix;  // defaults: 8.5% stable
  int counts[4] = {0, 0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<int>(sample_kind(mix, rng))];
  }
  EXPECT_NEAR(counts[static_cast<int>(TrajectoryKind::kStable)] /
                  static_cast<double>(n),
              0.085, 0.01);
  EXPECT_NEAR(counts[static_cast<int>(TrajectoryKind::kRising)] /
                  static_cast<double>(n),
              0.305, 0.02);
}

TEST(PopulationMixTest, DegenerateMix) {
  util::Rng rng(9);
  PopulationMix only_stable{0.0, 0.0, 0.0, 1.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_kind(only_stable, rng), TrajectoryKind::kStable);
  }
}

TEST(SampleConfig, KindSpecificShapes) {
  util::Rng rng(10);
  const auto rising = sample_config(TrajectoryKind::kRising, 1000, rng);
  EXPECT_EQ(rising.kind, TrajectoryKind::kRising);
  EXPECT_GT(rising.swing, 0.0);
  EXPECT_LE(rising.start_level + rising.swing, 10.0);

  const auto stable = sample_config(TrajectoryKind::kStable, 1000, rng);
  EXPECT_EQ(stable.swing, 0.0);
  EXPECT_LE(stable.noise_stddev, 0.1);

  const auto fluct = sample_config(TrajectoryKind::kFluctuating, 1000, rng);
  EXPECT_GT(fluct.period, 0.0);
}

TEST(ToString, AllKinds) {
  EXPECT_EQ(to_string(TrajectoryKind::kRising), "rising");
  EXPECT_EQ(to_string(TrajectoryKind::kDeclining), "declining");
  EXPECT_EQ(to_string(TrajectoryKind::kFluctuating), "fluctuating");
  EXPECT_EQ(to_string(TrajectoryKind::kStable), "stable");
}

}  // namespace
}  // namespace melody::sim
