// Deterministic mutation fuzzing of the MLDYCKPT platform snapshot.
//
// The corpus is one v4 blob that carries every section with content: a
// withdrawn worker, a bidding policy, an active fault plan, utilities and
// a MELODY estimator with history. Mutants come from util::Rng-seeded byte
// flips, truncations and rewritten u64 counts, within a fixed budget. Each
// one goes to Platform::load, which must either accept it (the platform
// then steps once) or throw std::runtime_error. Run under ASan+UBSan
// (`ctest -L state`), a crash, an out-of-bounds read or any other
// exception fails the suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "auction/melody_auction.h"
#include "estimators/melody_estimator.h"
#include "sim/platform.h"
#include "util/binio.h"
#include "util/rng.h"

namespace melody::sim {
namespace {

namespace binio = util::binio;

LongTermScenario fuzz_scenario() {
  LongTermScenario s;
  s.num_workers = 12;
  s.num_tasks = 8;
  s.runs = 8;
  s.budget = 40.0;
  return s;
}

estimators::MelodyEstimatorConfig tracker_config(const LongTermScenario& s) {
  estimators::MelodyEstimatorConfig config;
  config.initial_posterior = {s.initial_mu, s.initial_sigma};
  config.reestimation_period = s.reestimation_period;
  return config;
}

struct Rig {
  LongTermScenario scenario;
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator;
  Platform platform;

  Rig(const LongTermScenario& s, std::vector<SimWorker> workers)
      : scenario(s),
        estimator(tracker_config(s)),
        platform(scenario, mechanism, estimator, std::move(workers), 7) {}
};

/// The corpus blob: three runs in, with a withdrawn worker, one cheating
/// policy and a fault plan, so every MLDYCKPT section is non-empty.
std::string corpus_blob() {
  const LongTermScenario s = fuzz_scenario();
  util::Rng population_rng(5);
  Rig rig(s, sample_population(s.population_config(), population_rng));
  FaultPlan plan;
  plan.no_show_rate = 0.1;
  plan.score_drop_rate = 0.1;
  plan.churn_rate = 0.1;
  rig.platform.set_fault_plan(plan);
  BidPolicy cheat;
  cheat.cheat_probability = 0.5;
  cheat.cheat_frequency = true;
  rig.platform.set_policy(rig.platform.workers()[1].id(), cheat);
  for (int r = 0; r < 3; ++r) rig.platform.step();
  const auction::WorkerId withdrawn = rig.platform.workers()[4].id();
  EXPECT_TRUE(rig.platform.set_withdrawn(withdrawn, true));
  std::ostringstream out;
  rig.platform.save(out);
  return out.str();
}

/// Offsets of every u64 count in a well-formed blob: the worker count,
/// each trajectory length, the policy and utility counts, the estimator
/// blob length and the withdrawn count. Walks the layout in snapshot.cc.
std::vector<std::size_t> count_offsets(const std::string& blob) {
  std::istringstream in(blob);
  std::vector<std::size_t> offsets;
  const auto skip = [&in](std::streamoff bytes) {
    in.seekg(bytes, std::ios::cur);
  };
  const auto count_here = [&]() {
    offsets.push_back(static_cast<std::size_t>(in.tellg()));
    return binio::read_u64(in, "count");
  };
  skip(8 + 4 + 8 + 4);           // magic, version, master seed, run
  skip(4 * 8 + 8 + 1);           // rng words, cached normal, flag
  skip(4 * 8 + 2 * 4 + 8);       // fault plan
  const std::uint64_t workers = count_here();
  for (std::uint64_t k = 0; k < workers; ++k) {
    skip(4 + 8 + 4);             // id, cost, frequency
    const std::uint64_t len = count_here();
    skip(static_cast<std::streamoff>(8 * len));
  }
  skip(static_cast<std::streamoff>(count_here() * (4 + 8 + 3 + 8 + 4)));
  skip(static_cast<std::streamoff>(count_here() * (4 + 8)));
  skip(static_cast<std::streamoff>(count_here()));  // estimator blob
  const std::uint64_t withdrawn = count_here();
  skip(static_cast<std::streamoff>(4 * withdrawn));
  EXPECT_EQ(static_cast<std::size_t>(in.tellg()), blob.size());
  return offsets;
}

void put_u64(std::string& blob, std::size_t at, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    blob[at + static_cast<std::size_t>(b)] =
        static_cast<char>((value >> (8 * b)) & 0xffu);
  }
}

std::uint64_t get_u64(const std::string& blob, std::size_t at) {
  std::uint64_t value = 0;
  for (int b = 0; b < 8; ++b) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                 blob[at + static_cast<std::size_t>(b)]))
             << (8 * b);
  }
  return value;
}

/// One mutant: 1-4 byte flips, a truncation, or a rewritten count.
std::string mutate(const std::string& corpus,
                   const std::vector<std::size_t>& counts, util::Rng& rng) {
  std::string blob = corpus;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      const auto flips = rng.uniform_int(1, 4);
      for (std::int64_t f = 0; f < flips; ++f) {
        blob[pick(blob.size())] ^=
            static_cast<char>(1u << rng.uniform_int(0, 7));
      }
      break;
    }
    case 1:
      blob.resize(pick(blob.size()));
      break;
    default: {
      const std::size_t at = counts[pick(counts.size())];
      const std::uint64_t old = get_u64(blob, at);
      const std::uint64_t values[] = {
          0,           1,           old - 1,
          old + 1,     old * 2,     std::uint64_t{1} << 31,
          std::uint64_t{1} << 32,   std::uint64_t{1} << 62,
          std::numeric_limits<std::uint64_t>::max()};
      put_u64(blob, at, values[pick(std::size(values))]);
      break;
    }
  }
  return blob;
}

TEST(CheckpointFuzz, CorpusWalksAndRoundTrips) {
  const std::string corpus = corpus_blob();
  EXPECT_EQ(count_offsets(corpus).size(), 5u + fuzz_scenario().num_workers);
  Rig rig(fuzz_scenario(), {});
  std::istringstream in(corpus);
  rig.platform.load(in);
  EXPECT_TRUE(rig.platform.is_withdrawn(rig.platform.workers()[4].id()));
  std::ostringstream again;
  rig.platform.save(again);
  EXPECT_EQ(again.str(), corpus);
}

TEST(CheckpointFuzz, MutantsLoadAndStepOrThrowRuntimeError) {
  const std::string corpus = corpus_blob();
  const std::vector<std::size_t> counts = count_offsets(corpus);
  util::Rng rng(0xC4EC'F022);
  constexpr int kBudget = 4000;
  int accepted = 0;
  for (int k = 0; k < kBudget; ++k) {
    const std::string mutant = mutate(corpus, counts, rng);
    Rig rig(fuzz_scenario(), {});
    std::istringstream in(mutant);
    try {
      rig.platform.load(in);
    } catch (const std::runtime_error&) {
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << k << " threw a non-runtime_error: "
                    << e.what();
      continue;
    }
    ++accepted;
    EXPECT_NO_THROW(rig.platform.step()) << "mutant " << k;
  }
  // Flips inside latent qualities, utilities and the RNG state are
  // well-formed snapshots of a different platform: some mutants load.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kBudget);
}

}  // namespace
}  // namespace melody::sim
