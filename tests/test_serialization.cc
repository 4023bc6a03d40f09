// Tracker snapshot round-trips: a restarted platform must continue exactly
// where the old one stopped.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

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

/// A one-worker MLDYTRKR blob: the seven f64 fields (posterior, anchor,
/// a, gamma, eta), the four i32 run counters and the history's score sets.
std::string one_record_blob(const std::array<double, 7>& fields,
                            const std::array<int, 4>& counters = {},
                            const std::vector<lds::ScoreSet>& history = {}) {
  util::binio::Writer out;
  out.write_header(MelodyEstimator::kBlobMagic, MelodyEstimator::kBlobVersion);
  out.write_u64(1);
  out.write_i32(0);
  for (const double v : fields) out.write_f64(v);
  for (const int v : counters) out.write_i32(v);
  out.write_u32(static_cast<std::uint32_t>(history.size()));
  for (const lds::ScoreSet& set : history) {
    out.write_i32(set.count);
    out.write_f64(set.sum);
    out.write_f64(set.sum_squares);
  }
  return out.take();
}

constexpr std::array<double, 7> kValidFields = {5.5, 2.25, 5.5, 2.25,
                                                1.0, 1.0,  9.0};

void load_blob(MelodyEstimator& e, const std::string& blob) {
  util::binio::Reader in(blob);
  e.load_from(in);
}

TEST(Serialization, CorruptParamsRejected) {
  // One well-formed record whose gamma is negative.
  std::array<double, 7> fields = kValidFields;
  fields[5] = -1.0;
  const std::string bad = one_record_blob(fields);
  ASSERT_EQ(bad.size(), 20u + 80u);  // header + count, one record
  MelodyEstimator e;
  // Invalid hyper-parameters in a blob are malformed input: runtime_error,
  // per QualityEstimator's load contract.
  EXPECT_THROW(load_blob(e, bad), std::runtime_error);
  MelodyEstimator good;
  load_blob(good, one_record_blob(kValidFields, {1, 2, 1, 0},
                                  {{2, 11.0, 60.5}, {0, 0.0, 0.0}}));
  EXPECT_EQ(good.estimate(0), 5.5);
}

TEST(Serialization, NonFiniteFieldsAndNegativeCountsRejected) {
  // NaN passes every ordered comparison of the range checks; a NaN or
  // infinite field, a negative count or a non-finite score sum would
  // otherwise load and make estimate() NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t field = 0; field < kValidFields.size(); ++field) {
    for (const double value : {nan, inf, -inf}) {
      std::array<double, 7> fields = kValidFields;
      fields[field] = value;
      MelodyEstimator e;
      EXPECT_THROW(load_blob(e, one_record_blob(fields)), std::runtime_error)
          << "field " << field << " = " << value;
    }
  }
  for (std::size_t counter = 0; counter < 4; ++counter) {
    std::array<int, 4> counters = {1, 1, 1, 1};
    counters[counter] = -1;
    MelodyEstimator e;
    EXPECT_THROW(load_blob(e, one_record_blob(kValidFields, counters)),
                 std::runtime_error)
        << "counter " << counter;
  }
  for (const lds::ScoreSet& set :
       {lds::ScoreSet{-3, 12.0, 50.0}, lds::ScoreSet{2, nan, 50.0},
        lds::ScoreSet{2, 11.0, inf}, lds::ScoreSet{1, -inf, 4.0}}) {
    MelodyEstimator e;
    EXPECT_THROW(load_blob(e, one_record_blob(kValidFields, {1, 1, 1, 0},
                                              {{1, 5.0, 25.0}, set})),
                 std::runtime_error)
        << "score set " << set.count << " " << set.sum << " "
        << set.sum_squares;
  }
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
  util::binio::Writer old_version;
  old_version.write_header(MelodyEstimator::kBlobMagic, 2);
  old_version.write_u64(0);
  try {
    load_blob(e, old_version.bytes());
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
