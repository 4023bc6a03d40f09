#include "perf/suite.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "auction/bid_book.h"
#include "auction/melody_auction.h"
#include "estimators/factory.h"
#include "estimators/melody_estimator.h"
#include "obs/metrics.h"
#include "perf/reference.h"
#include "sim/platform.h"
#include "sim/scenario.h"
#include "sim/worker_model.h"
#include "util/build_info.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace melody::perf {

namespace {

/// Optimizer sink: every bench body folds a result-derived value in here so
/// the work cannot be dead-code eliminated.
volatile double g_sink = 0.0;

double wall_now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now_ms() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

std::int64_t peak_rss_kb_now() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss);  // KiB on Linux
}

/// Time `body` K times (after one untimed warm-up) and fill wall_ms/cpu_ms
/// sorted by ascending wall time, preserving the wall<->cpu pairing.
void time_repeats(int repeats, const std::function<void()>& body,
                  std::vector<double>& wall_ms, std::vector<double>& cpu_ms) {
  body();  // warm-up: page in inputs, size the allocator pools
  std::vector<std::pair<double, double>> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int k = 0; k < repeats; ++k) {
    const double wall0 = wall_now_ms();
    const double cpu0 = cpu_now_ms();
    body();
    const double cpu1 = cpu_now_ms();
    const double wall1 = wall_now_ms();
    samples.emplace_back(wall1 - wall0, cpu1 - cpu0);
  }
  std::sort(samples.begin(), samples.end());
  wall_ms.clear();
  cpu_ms.clear();
  for (const auto& [wall, cpu] : samples) {
    wall_ms.push_back(wall);
    cpu_ms.push_back(cpu);
  }
}

/// Run the matrix entry: K timed repeats with obs off (the production
/// default), an optional scalar-reference timing for the
/// speedup_vs_scalar counter, then one instrumented pass that harvests the
/// obs phase timers into BenchmarkResult::phases.
BenchmarkResult measure(std::string name, int repeats,
                        std::vector<std::pair<std::string, double>> config,
                        const std::function<void()>& body,
                        const std::function<void()>& scalar_body) {
  BenchmarkResult result;
  result.name = std::move(name);
  result.repeats = repeats;
  result.config = std::move(config);
  if (scalar_body) {
    // Paired design: alternate production and scalar repeats (after one
    // warm-up of each) so allocator state, page residency, and any clock
    // or load drift hit both sides equally — timing one side's full block
    // first would hand the other a pre-warmed process and bias the
    // speedup ratio.
    std::vector<std::pair<double, double>> samples;
    std::vector<std::pair<double, double>> scalar_samples;
    {
      obs::ScopedEnable off(false);
      body();
      scalar_body();
      for (int k = 0; k < repeats; ++k) {
        double wall0 = wall_now_ms();
        double cpu0 = cpu_now_ms();
        body();
        samples.emplace_back(wall_now_ms() - wall0, cpu_now_ms() - cpu0);
        wall0 = wall_now_ms();
        cpu0 = cpu_now_ms();
        scalar_body();
        scalar_samples.emplace_back(wall_now_ms() - wall0,
                                    cpu_now_ms() - cpu0);
      }
    }
    std::sort(samples.begin(), samples.end());
    std::vector<double> scalar_wall;
    for (const auto& [wall, cpu] : samples) {
      result.wall_ms.push_back(wall);
      result.cpu_ms.push_back(cpu);
    }
    for (const auto& [wall, cpu] : scalar_samples) {
      scalar_wall.push_back(wall);
    }
    result.median_wall_ms = median(result.wall_ms);
    result.median_cpu_ms = median(result.cpu_ms);
    result.counters.emplace_back("scalar_median_wall_ms",
                                 median(scalar_wall));
    result.counters.emplace_back(
        "speedup_vs_scalar",
        result.median_wall_ms > 0.0
            ? median(scalar_wall) / result.median_wall_ms
            : 0.0);
  } else {
    obs::ScopedEnable off(false);
    time_repeats(repeats, body, result.wall_ms, result.cpu_ms);
    result.median_wall_ms = median(result.wall_ms);
    result.median_cpu_ms = median(result.cpu_ms);
  }
  obs::registry().reset();
  {
    obs::ScopedEnable on(true);
    body();
  }
  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  for (const auto& entry : snapshot.summaries) {
    if (!entry.is_timer || entry.stats.count == 0) continue;
    PhaseStats phase;
    phase.name = entry.name;
    phase.count = static_cast<std::int64_t>(entry.stats.count);
    phase.sum_ms = entry.stats.sum * 1e3;
    phase.p50_ms = entry.stats.p50 * 1e3;
    phase.p90_ms = entry.stats.p90 * 1e3;
    phase.p99_ms = entry.stats.p99 * 1e3;
    result.phases.push_back(std::move(phase));
  }
  obs::registry().reset();
  result.peak_rss_kb = peak_rss_kb_now();
  return result;
}

// ---------------------------------------------------------------------------
// Matrix entries. Inputs are sampled once per bench (setup, untimed); the
// timed bodies are pure functions of those inputs so every repeat measures
// the same work.

BenchmarkResult bench_greedy_scoring(bool quick, int repeats) {
  const int num_workers = quick ? 20000 : 100000;
  sim::SraScenario scenario;
  scenario.num_workers = num_workers;
  scenario.num_tasks = 500;
  scenario.budget = 2000.0;
  util::Rng rng(0x9ECD);
  const std::vector<auction::WorkerProfile> workers =
      scenario.sample_workers(rng);
  const std::vector<auction::Task> tasks = scenario.sample_tasks(rng);
  const auction::AuctionConfig config = scenario.auction_config();
  return measure(
      "greedy_scoring_100k", repeats,
      {{"workers", static_cast<double>(num_workers)},
       {"tasks", 500.0},
       {"budget", scenario.budget},
       {"seed", 0x9ECD}},
      [&] {
        auction::MelodyAuction mechanism(auction::PaymentRule::kCriticalValue);
        g_sink = g_sink +
                 mechanism.run({workers, tasks, config}).total_payment();
      },
      [&] {
        g_sink = g_sink +
                 reference::run_greedy(workers, tasks, config,
                                       auction::PaymentRule::kCriticalValue)
                     .total_payment();
      });
}

BenchmarkResult bench_auction_scale(bool quick, int repeats) {
  const int num_workers = quick ? 100000 : 1000000;
  sim::SraScenario scenario;
  scenario.num_workers = num_workers;
  scenario.num_tasks = 1000;
  scenario.budget = 8000.0;
  util::Rng rng(0xA5CA1E);
  const std::vector<auction::WorkerProfile> workers =
      scenario.sample_workers(rng);
  const std::vector<auction::Task> tasks = scenario.sample_tasks(rng);
  const auction::AuctionConfig config = scenario.auction_config();
  return measure(
      "auction_scale_1m", repeats,
      {{"workers", static_cast<double>(num_workers)},
       {"tasks", 1000.0},
       {"budget", scenario.budget},
       {"seed", 0xA5CA1E}},
      [&] {
        auction::MelodyAuction mechanism(auction::PaymentRule::kCriticalValue);
        g_sink = g_sink +
                 mechanism.run({workers, tasks, config}).total_payment();
      },
      nullptr);
}

BenchmarkResult bench_greedy_incremental(bool quick, int repeats) {
  // Low-churn re-run regime: a standing market where ~2% of the bids move
  // between consecutive auctions (rolling / continuous operation). The
  // production side keeps the persistent price-ladder bid book and ranks
  // the greedy queue from the ladder image; the scalar reference applies the
  // identical churn to a plain profile vector and re-sorts from scratch
  // every round — the pre-PR-8 full-rebuild path. Allocation is
  // bit-identical by construction (the ladder holds the exact permutation
  // the rebuild sorts into); the tests assert that, this entry times it.
  const int num_workers = quick ? 20000 : 100000;
  const int rounds = 8;
  const int dirty_per_round = num_workers / 50;  // 2% of bids move per run
  sim::SraScenario scenario;
  scenario.num_workers = num_workers;
  scenario.num_tasks = 64;
  scenario.budget = 1200.0;
  util::Rng rng(0x1ADDE4);
  const std::vector<auction::WorkerProfile> base =
      scenario.sample_workers(rng);
  const std::vector<auction::Task> tasks = scenario.sample_tasks(rng);
  const auction::AuctionConfig config = scenario.auction_config();

  // Setup, untimed: the book exists before the first measured round, like
  // a service that has been running. It persists across repeats — that is
  // the point — so per-side epoch counters key the churn streams and the
  // paired repeats of the two sides see the same delta sequence.
  auction::BidBook book;
  book.bulk_load(base);
  std::vector<auction::WorkerProfile> scalar_profiles = base;
  std::uint64_t book_epoch = 0;
  std::uint64_t scalar_epoch = 0;

  // Deterministic churn for (epoch, round): dirty_per_round re-bids with a
  // fresh cost from the scenario's sampling range. Pure function of the
  // counters, so both sides replay identical sequences.
  const auto churn = [&](std::uint64_t epoch, int round,
                         const std::function<void(std::size_t,
                                                  const auction::WorkerProfile&)>&
                             touch) {
    util::Rng round_rng(util::derive_stream(
        0xC4A2, epoch, static_cast<std::uint64_t>(round)));
    for (int d = 0; d < dirty_per_round; ++d) {
      const auto slot = static_cast<std::size_t>(
          round_rng.uniform_int(0, num_workers - 1));
      auction::WorkerProfile profile = base[slot];
      profile.bid.cost = round_rng.uniform(1.0, 2.0);
      touch(slot, profile);
    }
  };

  return measure(
      "greedy_incremental_100k", repeats,
      {{"workers", static_cast<double>(num_workers)},
       {"tasks", 64.0},
       {"budget", scenario.budget},
       {"rounds", static_cast<double>(rounds)},
       {"dirty_per_round", static_cast<double>(dirty_per_round)},
       {"seed", static_cast<double>(0x1ADDE4)}},
      [&] {
        auction::MelodyAuction mechanism(auction::PaymentRule::kCriticalValue);
        std::vector<auction::BidDelta> deltas;
        double payment = 0.0;
        for (int round = 0; round < rounds; ++round) {
          deltas.clear();
          churn(book_epoch, round,
                [&](std::size_t, const auction::WorkerProfile& profile) {
                  deltas.push_back(
                      {auction::BidDelta::Kind::kUpsert, profile});
                });
          book.apply(deltas);
          auction::AuctionContext context{{}, tasks, config};
          context.book = &book;
          context.deltas = deltas;
          payment += mechanism.run(context).total_payment();
        }
        ++book_epoch;
        g_sink = g_sink + payment;
      },
      [&] {
        auction::MelodyAuction mechanism(auction::PaymentRule::kCriticalValue);
        double payment = 0.0;
        for (int round = 0; round < rounds; ++round) {
          churn(scalar_epoch, round,
                [&](std::size_t slot, const auction::WorkerProfile& profile) {
                  scalar_profiles[slot] = profile;
                });
          payment +=
              mechanism.run({scalar_profiles, tasks, config}).total_payment();
        }
        ++scalar_epoch;
        g_sink = g_sink + payment;
      });
}

/// Deterministic per-(worker, run) score sets for the estimator chains:
/// three scores in [1, 10] drawn from the counter-based stream the
/// simulation itself uses.
std::vector<std::vector<lds::ScoreSet>> make_score_table(int num_workers,
                                                         int runs,
                                                         std::uint64_t seed) {
  std::vector<std::vector<lds::ScoreSet>> table(
      static_cast<std::size_t>(runs));
  for (int run = 0; run < runs; ++run) {
    auto& row = table[static_cast<std::size_t>(run)];
    row.resize(static_cast<std::size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) {
      util::Rng rng(util::derive_stream(seed, static_cast<std::uint64_t>(w),
                                        static_cast<std::uint64_t>(run)));
      for (int k = 0; k < 3; ++k) {
        row[static_cast<std::size_t>(w)].add(rng.uniform(1.0, 10.0));
      }
    }
  }
  return table;
}

BenchmarkResult bench_kalman_chain(const std::string& name, bool with_em,
                                   bool quick, int repeats) {
  // The filter-only variant runs a population large enough that per-worker
  // state outgrows the cache, with scattered (shuffled) worker ids — the
  // service regime, where ids are client-assigned handles, not dense
  // indices. That is where the layouts diverge: the batch SoA update
  // streams the state arrays in slot order regardless of id values, while
  // the AoS map pays a dependent cache miss per worker per run. The EM
  // variant is smaller (EM dominates) and keeps dense ids.
  const int num_workers =
      with_em ? (quick ? 200 : 500) : (quick ? 10000 : 50000);
  const int runs = with_em ? (quick ? 60 : 120) : (quick ? 10 : 20);
  estimators::MelodyEstimatorConfig config;
  config.reestimation_period = with_em ? 10 : 0;
  if (with_em) config.max_history = 20;
  const auto scores = make_score_table(num_workers, runs, 0xBE9C4);
  std::vector<auction::WorkerId> ids(static_cast<std::size_t>(num_workers));
  std::iota(ids.begin(), ids.end(), with_em ? 0 : 100000);
  if (!with_em) {
    // Deterministic Fisher-Yates shuffle; registration and observation use
    // the same order, so the batch path's slot-order fast path stays
    // applicable (as it is on the platform) while the id VALUES scatter.
    util::Rng shuffle_rng(0xD15C0);
    for (std::size_t i = ids.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          shuffle_rng.uniform_int(0, static_cast<std::int64_t>(i)));
      std::swap(ids[i], ids[j]);
    }
  }
  return measure(
      name, repeats,
      {{"workers", static_cast<double>(num_workers)},
       {"runs", static_cast<double>(runs)},
       {"reestimation_period",
        static_cast<double>(config.reestimation_period)},
       {"max_history", static_cast<double>(config.max_history)},
       {"seed", static_cast<double>(0xBE9C4)}},
      [&] {
        estimators::MelodyEstimator estimator(config);
        for (auction::WorkerId id : ids) estimator.register_worker(id);
        for (int run = 0; run < runs; ++run) {
          estimator.observe_run(ids, scores[static_cast<std::size_t>(run)]);
        }
        g_sink = g_sink + estimator.estimate(ids[0]);
      },
      [&] {
        reference::AosKalmanChain chain(config);
        for (auction::WorkerId id : ids) chain.register_worker(id);
        for (int run = 0; run < runs; ++run) {
          const auto& row = scores[static_cast<std::size_t>(run)];
          for (std::size_t w = 0; w < ids.size(); ++w) {
            chain.observe(ids[w], row[w]);
          }
        }
        g_sink = g_sink + chain.estimate(ids[0]);
      });
}

BenchmarkResult bench_platform_step(bool quick, int repeats) {
  sim::LongTermScenario scenario;
  scenario.num_workers = 300;
  scenario.num_tasks = 500;
  scenario.runs = quick ? 30 : 100;
  util::Rng population_rng(2017);
  const std::vector<sim::SimWorker> population =
      sim::sample_population(scenario.population_config(), population_rng);
  return measure(
      "platform_step", repeats,
      {{"workers", static_cast<double>(scenario.num_workers)},
       {"tasks", static_cast<double>(scenario.num_tasks)},
       {"runs", static_cast<double>(scenario.runs)},
       {"budget", scenario.budget},
       {"seed", 2018.0}},
      [&] {
        auction::MelodyAuction mechanism;
        // Same shared-registry construction melody_sim/melody_serve use, so
        // this entry times the production estimator stack, not a local copy.
        const auto estimator = estimators::make(
            "melody", {.initial_mu = scenario.initial_mu,
                       .initial_sigma = scenario.initial_sigma,
                       .reestimation_period = scenario.reestimation_period});
        sim::Platform platform(scenario, mechanism, *estimator, population,
                               2018);
        double error = 0.0;
        while (!platform.finished()) error += platform.step().estimation_error;
        g_sink = g_sink + error;
      },
      nullptr);
}

}  // namespace

std::string current_date() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  localtime_r(&now, &tm);
  char buffer[16];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%d", &tm);
  return buffer;
}

PerfArtifact run_suite(const SuiteOptions& options, std::ostream& log) {
  const auto selected = [&](const std::string& name) {
    return options.only.empty() ||
           std::find(options.only.begin(), options.only.end(), name) !=
               options.only.end();
  };
  if (options.threads > 0) util::set_shared_thread_count(options.threads);

  PerfArtifact artifact;
  artifact.date = current_date();
  artifact.git_sha = util::build_git_sha();
  artifact.quick = options.quick;
  artifact.threads = util::shared_thread_count();
  artifact.repeats =
      options.repeats > 0 ? options.repeats : (options.quick ? 3 : 5);

  const bool quick = options.quick;
  const int repeats = artifact.repeats;
  const std::vector<std::pair<std::string,
                              std::function<BenchmarkResult()>>> matrix = {
      {"greedy_scoring_100k",
       [&] { return bench_greedy_scoring(quick, repeats); }},
      {"greedy_incremental_100k",
       [&] { return bench_greedy_incremental(quick, repeats); }},
      {"auction_scale_1m", [&] { return bench_auction_scale(quick, repeats); }},
      {"kalman_chain",
       [&] { return bench_kalman_chain("kalman_chain", false, quick, repeats); }},
      {"kalman_em_chain",
       [&] {
         return bench_kalman_chain("kalman_em_chain", true, quick, repeats);
       }},
      {"platform_step", [&] { return bench_platform_step(quick, repeats); }},
  };
  for (const std::string& name : options.only) {
    const auto named = [&name](const auto& bench) {
      return bench.first == name;
    };
    if (std::none_of(matrix.begin(), matrix.end(), named)) {
      throw std::invalid_argument("unknown benchmark '" + name + "'");
    }
  }
  for (const auto& [name, bench] : matrix) {
    if (!selected(name)) continue;
    BenchmarkResult result = bench();
    char line[160];
    const double speedup = result.counter_or("speedup_vs_scalar", 0.0);
    if (speedup > 0.0) {
      std::snprintf(line, sizeof line,
                    "%-22s median %10.3f ms  cpu %10.3f ms  %5.2fx vs scalar\n",
                    result.name.c_str(), result.median_wall_ms,
                    result.median_cpu_ms, speedup);
    } else {
      std::snprintf(line, sizeof line,
                    "%-22s median %10.3f ms  cpu %10.3f ms\n",
                    result.name.c_str(), result.median_wall_ms,
                    result.median_cpu_ms);
    }
    log << line << std::flush;
    artifact.benchmarks.push_back(std::move(result));
  }
  validate(artifact);
  return artifact;
}

}  // namespace melody::perf
