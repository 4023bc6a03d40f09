// Deterministic mutation fuzzing of the MLDYCKPT platform snapshot.
//
// The corpus is one v5 blob that carries every section with content: a
// withdrawn worker, a bidding policy, an active fault plan, utilities and
// a MELODY estimator with history. Mutants come from util::Rng-seeded byte
// flips, truncations and rewritten u64 counts, within a fixed budget, plus
// targeted rewrites of every trajectory-stream field. Each one goes to
// Platform::load, which must either accept it (every worker's estimate is
// finite, the platform then steps once, and every latent quality it scores
// from and every estimate after the step is finite) or throw
// std::runtime_error. Run under ASan+UBSan (`ctest -L state`), a crash, an
// out-of-bounds read or any other exception fails the suite.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
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
  rig.platform.set_policy(rig.platform.worker_state().ids()[1], cheat);
  for (int r = 0; r < 3; ++r) rig.platform.step();
  const auction::WorkerId withdrawn = rig.platform.worker_state().ids()[4];
  EXPECT_TRUE(rig.platform.set_withdrawn(withdrawn, true));
  std::ostringstream out;
  rig.platform.save(out);
  return out.str();
}

// A worker record is i32 id | f64 cost | i32 frequency, then the stream.
constexpr std::size_t kIdBeforeStream = 4 + 8 + 4;

// Byte offsets of the fields inside one worker's trajectory-stream record
// (see the layout in snapshot.cc).
constexpr std::size_t kKind = 0;
constexpr std::size_t kStartLevel = 1;
constexpr std::size_t kSwing = 9;
constexpr std::size_t kPeriod = 17;
constexpr std::size_t kPhase = 25;
constexpr std::size_t kNoise = 33;
constexpr std::size_t kMinQuality = 41;
constexpr std::size_t kMaxQuality = 49;
constexpr std::size_t kHorizon = 57;
constexpr std::size_t kLength = 61;
constexpr std::size_t kRun = 65;
constexpr std::size_t kDrift = 69;
constexpr std::size_t kCachedNormal = 109;
constexpr std::size_t kStreamBytes = 118;

/// Offsets of every u64 count in a well-formed blob (the worker count, the
/// policy and utility counts, the estimator blob length and the withdrawn
/// count) and of each worker's trajectory-stream record. Walks the layout
/// in snapshot.cc.
struct Layout {
  std::vector<std::size_t> counts;
  std::vector<std::size_t> streams;
};

Layout walk(const std::string& blob) {
  binio::Reader in(blob);
  Layout layout;
  const auto skip = [&in](std::uint64_t bytes) {
    in.read_raw(static_cast<std::size_t>(bytes), "skip");
  };
  const auto count_here = [&]() {
    layout.counts.push_back(in.position());
    return in.read_u64("count");
  };
  skip(8 + 4 + 8 + 4);           // magic, version, master seed, run
  skip(4 * 8 + 8 + 1);           // rng words, cached normal, flag
  skip(4 * 8 + 2 * 4 + 8);       // fault plan
  const std::uint64_t workers = count_here();
  for (std::uint64_t k = 0; k < workers; ++k) {
    skip(kIdBeforeStream);       // id, cost, frequency
    layout.streams.push_back(in.position());
    skip(kStreamBytes);
  }
  skip(count_here() * (4 + 8 + 3 + 8 + 4));
  skip(count_here() * (4 + 8));
  skip(count_here());  // estimator blob
  const std::uint64_t withdrawn = count_here();
  skip(4 * withdrawn);
  EXPECT_EQ(in.remaining(), 0u);
  return layout;
}

void put_u64(std::string& blob, std::size_t at, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    blob[at + static_cast<std::size_t>(b)] =
        static_cast<char>((value >> (8 * b)) & 0xffu);
  }
}

void put_u32(std::string& blob, std::size_t at, std::uint32_t value) {
  for (int b = 0; b < 4; ++b) {
    blob[at + static_cast<std::size_t>(b)] =
        static_cast<char>((value >> (8 * b)) & 0xffu);
  }
}

void put_f64(std::string& blob, std::size_t at, double value) {
  put_u64(blob, at, std::bit_cast<std::uint64_t>(value));
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

/// An accepted snapshot must hold each worker id once, step, score from
/// finite latent qualities and estimate every worker's quality finitely.
void expect_steps_on_finite_latents(Rig& rig, const std::string& what) {
  Platform& platform = rig.platform;
  const WorkerStateSoA& soa = platform.worker_state();
  std::set<auction::WorkerId> ids(soa.ids().begin(), soa.ids().end());
  EXPECT_EQ(ids.size(), soa.size()) << what;
  const auto expect_finite_estimates = [&](const char* when) {
    for (const auction::WorkerId id : soa.ids()) {
      EXPECT_TRUE(std::isfinite(rig.estimator.estimate(id)))
          << what << " worker " << id << " " << when;
    }
  };
  expect_finite_estimates("before the step");
  EXPECT_NO_THROW(platform.step()) << what;
  for (std::size_t slot = 0; slot < soa.size(); ++slot) {
    EXPECT_TRUE(std::isfinite(soa.latent_quality(slot)))
        << what << " slot " << slot;
  }
  expect_finite_estimates("after the step");
}

TEST(CheckpointFuzz, CorpusWalksAndRoundTrips) {
  const std::string corpus = corpus_blob();
  const Layout layout = walk(corpus);
  EXPECT_EQ(layout.counts.size(), 5u);
  EXPECT_EQ(layout.streams.size(),
            static_cast<std::size_t>(fuzz_scenario().num_workers));
  Rig rig(fuzz_scenario(), {});
  binio::Reader in(corpus);
  rig.platform.load(in);
  EXPECT_TRUE(rig.platform.is_withdrawn(rig.platform.worker_state().ids()[4]));
  std::ostringstream again;
  rig.platform.save(again);
  EXPECT_EQ(again.str(), corpus);
}

TEST(CheckpointFuzz, MutantsLoadAndStepOrThrowRuntimeError) {
  const std::string corpus = corpus_blob();
  const std::vector<std::size_t> counts = walk(corpus).counts;
  util::Rng rng(0xC4EC'F022);
  constexpr int kBudget = 4000;
  int accepted = 0;
  for (int k = 0; k < kBudget; ++k) {
    const std::string mutant = mutate(corpus, counts, rng);
    Rig rig(fuzz_scenario(), {});
    binio::Reader in(mutant);
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
    expect_steps_on_finite_latents(rig, "mutant " + std::to_string(k));
  }
  // Flips inside stream generators, utilities and the RNG state are
  // well-formed snapshots of a different platform: some mutants load.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kBudget);
}

TEST(CheckpointFuzz, TrajectoryFieldRewritesLoadAndStepOrThrow) {
  const std::string corpus = corpus_blob();
  const std::vector<std::size_t> streams = walk(corpus).streams;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  constexpr auto kIntMax = std::numeric_limits<std::int32_t>::max();
  constexpr auto kIntMin = std::numeric_limits<std::int32_t>::min();
  using Edit = std::function<void(std::string&, std::size_t)>;
  const auto f64 = [](std::size_t field, double value) -> Edit {
    return [=](std::string& blob, std::size_t at) {
      put_f64(blob, at + field, value);
    };
  };
  const auto i32 = [](std::size_t field, std::int32_t value) -> Edit {
    return [=](std::string& blob, std::size_t at) {
      put_u32(blob, at + field, static_cast<std::uint32_t>(value));
    };
  };
  // Rewrites every well-formed loader must refuse.
  std::vector<std::pair<std::string, Edit>> rejected;
  for (const int kind : {4, 5, 128, 255}) {
    rejected.emplace_back("kind " + std::to_string(kind),
                          [kind](std::string& blob, std::size_t at) {
                            blob[at + kKind] = static_cast<char>(kind);
                          });
  }
  for (const auto& [name, field] :
       std::vector<std::pair<std::string, std::size_t>>{
           {"start_level", kStartLevel}, {"swing", kSwing},
           {"period", kPeriod},          {"phase", kPhase},
           {"noise", kNoise},            {"min", kMinQuality},
           {"max", kMaxQuality},         {"drift", kDrift},
           {"cached normal", kCachedNormal}}) {
    rejected.emplace_back(name + " NaN", f64(field, nan));
    rejected.emplace_back(name + " +Inf", f64(field, inf));
    rejected.emplace_back(name + " -Inf", f64(field, -inf));
  }
  rejected.emplace_back("min above max", f64(kMinQuality, 10.5));
  rejected.emplace_back("zero period", [&](std::string& blob, std::size_t at) {
    blob[at + kKind] = static_cast<char>(TrajectoryKind::kFluctuating);
    put_f64(blob, at + kPeriod, 0.0);
  });
  rejected.emplace_back("run past length", i32(kRun, fuzz_scenario().runs + 1));
  rejected.emplace_back("run out of step", i32(kRun, 2));
  rejected.emplace_back("negative run", i32(kRun, -1));
  rejected.emplace_back("negative length", i32(kLength, -1));
  rejected.emplace_back("length INT_MIN", i32(kLength, kIntMin));
  rejected.emplace_back("zero length", i32(kLength, 0));  // run 3 > 0
  // Rewrites that describe a different but well-formed platform.
  std::vector<std::pair<std::string, Edit>> accepted{
      {"huge length", i32(kLength, kIntMax)},
      {"horizon 0", i32(kHorizon, 0)},
      {"negative horizon", i32(kHorizon, -5)},
      {"horizon INT_MIN", i32(kHorizon, kIntMin)},
      {"horizon INT_MAX", i32(kHorizon, kIntMax)},
      {"fluctuating", [](std::string& blob, std::size_t at) {
         blob[at + kKind] = static_cast<char>(TrajectoryKind::kFluctuating);
       }}};

  const auto load = [](const std::string& blob, Rig& rig) {
    binio::Reader in(blob);
    rig.platform.load(in);
  };
  for (const std::size_t at : {streams.front(), streams.back()}) {
    for (const auto& [name, edit] : rejected) {
      std::string mutant = corpus;
      edit(mutant, at);
      Rig rig(fuzz_scenario(), {});
      EXPECT_THROW(load(mutant, rig), std::runtime_error) << name;
    }
    for (const auto& [name, edit] : accepted) {
      std::string mutant = corpus;
      edit(mutant, at);
      Rig rig(fuzz_scenario(), {});
      try {
        load(mutant, rig);
      } catch (const std::exception& e) {
        ADD_FAILURE() << name << " was refused: " << e.what();
        continue;
      }
      for (int r = 0; r < 10; ++r) {  // past the scenario's horizon too
        expect_steps_on_finite_latents(rig, name);
      }
    }
  }
}

TEST(CheckpointFuzz, RepeatedWorkerIdIsRefused) {
  const std::string corpus = corpus_blob();
  const std::vector<std::size_t> streams = walk(corpus).streams;
  const auto id_at = [&](std::size_t k) {
    return streams[k] - kIdBeforeStream;
  };
  for (const auto& [k, j] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 0}, {0, 1}, {streams.size() - 1, 4}}) {
    std::string mutant = corpus;
    mutant.replace(id_at(k), 4, corpus, id_at(j), 4);
    Rig rig(fuzz_scenario(), {});
    binio::Reader in(mutant);
    EXPECT_THROW(rig.platform.load(in), std::runtime_error)
        << "worker " << k << " given worker " << j << "'s id";
    EXPECT_EQ(rig.platform.worker_state().size(), 0u);
  }
}

}  // namespace
}  // namespace melody::sim
