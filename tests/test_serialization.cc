// Tracker snapshot round-trips: a restarted platform must continue exactly
// where the old one stopped.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "estimators/melody_estimator.h"
#include "util/binio.h"
#include "util/rng.h"

namespace melody::estimators {
namespace {

MelodyEstimatorConfig test_config() {
  MelodyEstimatorConfig config;
  config.reestimation_period = 7;
  return config;
}

MelodyEstimator populated_estimator(std::uint64_t seed) {
  MelodyEstimator e(test_config());
  util::Rng rng(seed);
  for (auction::WorkerId id = 0; id < 12; ++id) e.register_worker(id);
  for (int run = 0; run < 30; ++run) {
    for (auction::WorkerId id = 0; id < 12; ++id) {
      lds::ScoreSet set;
      if (rng.bernoulli(0.7)) {
        const int n = static_cast<int>(rng.uniform_int(1, 4));
        for (int s = 0; s < n; ++s) set.add(rng.uniform(1.0, 10.0));
      }
      e.observe(id, set);
    }
  }
  return e;
}

TEST(Serialization, RoundTripPreservesState) {
  MelodyEstimator original = populated_estimator(3);
  std::stringstream snapshot;
  original.save(snapshot);

  MelodyEstimator restored(test_config());  // same config as the original
  restored.load(snapshot);
  ASSERT_EQ(restored.worker_count(), original.worker_count());
  for (auction::WorkerId id = 0; id < 12; ++id) {
    EXPECT_DOUBLE_EQ(restored.estimate(id), original.estimate(id));
    EXPECT_DOUBLE_EQ(restored.posterior(id).mean, original.posterior(id).mean);
    EXPECT_DOUBLE_EQ(restored.posterior(id).var, original.posterior(id).var);
    EXPECT_EQ(restored.params(id), original.params(id));
    EXPECT_EQ(restored.reestimation_count(id), original.reestimation_count(id));
  }
}

TEST(Serialization, RestoredTrackerEvolvesIdentically) {
  MelodyEstimator original = populated_estimator(5);
  std::stringstream snapshot;
  original.save(snapshot);
  MelodyEstimator restored(test_config());
  restored.load(snapshot);

  // Feed both the same future and compare.
  util::Rng rng(99);
  for (int run = 0; run < 20; ++run) {
    for (auction::WorkerId id = 0; id < 12; ++id) {
      lds::ScoreSet set;
      const int n = static_cast<int>(rng.uniform_int(0, 3));
      for (int s = 0; s < n; ++s) set.add(rng.uniform(1.0, 10.0));
      original.observe(id, set);
      restored.observe(id, set);
    }
  }
  for (auction::WorkerId id = 0; id < 12; ++id) {
    EXPECT_DOUBLE_EQ(restored.estimate(id), original.estimate(id));
    EXPECT_EQ(restored.reestimation_count(id), original.reestimation_count(id));
  }
}

TEST(Serialization, SnapshotIsDeterministic) {
  MelodyEstimator a = populated_estimator(7);
  MelodyEstimator b = populated_estimator(7);
  std::stringstream sa, sb;
  a.save(sa);
  b.save(sb);
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(Serialization, BadHeaderRejected) {
  std::stringstream bad("NOT_A_SNAPSHOT\n0\n");
  MelodyEstimator e;
  EXPECT_THROW(e.load(bad), std::runtime_error);
}

TEST(Serialization, TruncatedInputRejected) {
  MelodyEstimator original = populated_estimator(9);
  std::stringstream snapshot;
  original.save(snapshot);
  const std::string text = snapshot.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  MelodyEstimator e;
  EXPECT_THROW(e.load(truncated), std::runtime_error);
}

TEST(Serialization, CorruptParamsRejected) {
  // One well-formed record whose gamma is negative.
  namespace binio = util::binio;
  std::stringstream bad;
  binio::write_header(bad, MelodyEstimator::kBlobMagic,
                      MelodyEstimator::kBlobVersion);
  binio::write_u64(bad, 1);
  binio::write_i32(bad, 0);
  for (const double v : {5.5, 2.25, 5.5, 2.25, 1.0, -1.0, 9.0}) {
    binio::write_f64(bad, v);
  }
  for (int k = 0; k < 4; ++k) binio::write_i32(bad, 0);
  binio::write_u32(bad, 0);
  ASSERT_EQ(bad.str().size(), 20u + 80u);  // header + count, one record
  MelodyEstimator e;
  // Invalid hyper-parameters in a blob are malformed input: runtime_error,
  // per QualityEstimator::load's contract.
  EXPECT_THROW(e.load(bad), std::runtime_error);
}

TEST(Serialization, OldFormatVersionRejected) {
  // The text snapshot of the previous format version: refused, and the
  // error names the format and version this build reads.
  std::stringstream text(
      "MELODY_TRACKER v2\n1\n0 5.5 2.25 5.5 2.25 1 1 9 0 0 0 0 0\n");
  MelodyEstimator e;
  try {
    e.load(text);
    FAIL() << "a text snapshot must not load";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("MLDYTRKR"), std::string::npos) << what;
    EXPECT_NE(what.find("version 3"), std::string::npos) << what;
  }
  // A binary header at another version is refused with that version named.
  std::stringstream old_version;
  util::binio::write_header(old_version, MelodyEstimator::kBlobMagic, 2);
  util::binio::write_u64(old_version, 0);
  try {
    e.load(old_version);
    FAIL() << "version 2 must not load";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("unsupported version 2"),
              std::string::npos)
        << error.what();
  }
}

TEST(Serialization, WindowedTrackerRoundTrips) {
  MelodyEstimatorConfig config;
  config.reestimation_period = 5;
  config.max_history = 8;  // force the window to slide
  MelodyEstimator original(config);
  original.register_worker(1);
  util::Rng rng(13);
  for (int run = 0; run < 40; ++run) {
    lds::ScoreSet set;
    set.add(rng.uniform(3.0, 8.0));
    original.observe(1, set);
  }
  std::stringstream snapshot;
  original.save(snapshot);
  MelodyEstimator restored(config);
  restored.load(snapshot);
  // Continue both and compare: the window anchor must round-trip too.
  for (int run = 0; run < 10; ++run) {
    lds::ScoreSet set;
    set.add(rng.uniform(3.0, 8.0));
    original.observe(1, set);
    lds::ScoreSet same = set;
    restored.observe(1, same);
  }
  EXPECT_DOUBLE_EQ(restored.estimate(1), original.estimate(1));
}

TEST(Serialization, EmptyTrackerRoundTrips) {
  MelodyEstimator e;
  std::stringstream snapshot;
  e.save(snapshot);
  MelodyEstimator restored;
  restored.load(snapshot);
  EXPECT_EQ(restored.worker_count(), 0u);
}

TEST(Serialization, LoadReplacesExistingState) {
  MelodyEstimator source = populated_estimator(11);
  std::stringstream snapshot;
  source.save(snapshot);

  MelodyEstimator target;
  target.register_worker(500);
  target.load(snapshot);
  EXPECT_EQ(target.worker_count(), 12u);
  EXPECT_THROW(target.estimate(500), std::out_of_range);
}

}  // namespace
}  // namespace melody::estimators
