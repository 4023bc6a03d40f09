// Fig. 8 — Running time of the MELODY auction (Theorem 8: O(NM)).
//
//   (a) running time vs number of workers, M in {500, 5000}, B = 800;
//   (b) running time vs number of tasks,  N in {500, 2000}, B = 800.
// The paper's claim is linear growth in both N and M. Each series is
// fitted by least squares of its median time against N·M; the slope and
// r² of that fit are the check.
//
// Extension beyond the paper:
//   (c) serial vs parallel wall clock for the long-term pipeline at large
//       N — a ParallelSweep of 8 replicas sharded across the pool; and
//   (d) a single large-N platform, where the per-(worker, run) score
//       streams and the estimator's sharded observe_run carry the
//       parallelism inside one replica.
// Both report a speedup relative to the threads=1 entry of the same
// family. Output is bit-identical across thread counts, so the speedup is
// free of any accuracy trade-off.
//
// Every time is the median of a fixed number of steady_clock samples taken
// after one untimed warm-up call.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "auction/melody_auction.h"
#include "bench_common.h"
#include "estimators/melody_estimator.h"
#include "obs/metrics.h"
#include "sim/parallel_sweep.h"
#include "sim/platform.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace melody;

constexpr int kAuctionRepeats = 31;  // timed samples per Fig. 8a/8b point
constexpr int kPhaseRepeats = 3;     // instrumented replays per point
constexpr int kParallelRepeats = 9;  // timed samples per Fig. 8c/8d entry
constexpr int kThreadCounts[] = {1, 2, 4, 8};  // threads=1 first: baseline

/// Keeps each timed result observable so the call cannot be elided.
volatile double g_sink = 0.0;

/// Median wall-clock milliseconds of `repeats` calls of `body`, after one
/// untimed warm-up call.
template <typename Body>
double median_ms(int repeats, Body&& body) {
  body();
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    body();
    samples.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return util::median(std::move(samples));
}

double timer_sum_seconds(const obs::MetricsSnapshot& snapshot,
                         std::string_view name) {
  for (const auto& s : snapshot.summaries) {
    if (s.name == name) return s.stats.sum;
  }
  return 0.0;
}

struct AuctionPoint {
  double ms = 0.0;
  double rank_ms = 0.0;
  double prealloc_ms = 0.0;
  double commit_ms = 0.0;
};

AuctionPoint time_auction(int workers, int tasks) {
  sim::SraScenario scenario;
  scenario.num_workers = workers;
  scenario.num_tasks = tasks;
  scenario.budget = 800.0;
  util::Rng rng(static_cast<std::uint64_t>(workers) * 1000003 + tasks);
  const auto worker_profiles = scenario.sample_workers(rng);
  const auto task_list = scenario.sample_tasks(rng);
  const auto config = scenario.auction_config();
  auction::MelodyAuction melody;
  const auto run = [&] {
    g_sink = melody.run({worker_profiles, task_list, config}).total_payment();
  };
  AuctionPoint point;
  point.ms = median_ms(kAuctionRepeats, run);

  // Per-phase breakdown (Theorem 8's stages measured separately): a few
  // obs-enabled replays OUTSIDE the timed samples, so the headline time
  // stays an uninstrumented measurement. Per-auction milliseconds.
  const obs::MetricsSnapshot before = obs::registry().snapshot();
  {
    obs::ScopedEnable enable(true);
    for (int i = 0; i < kPhaseRepeats; ++i) run();
  }
  const obs::MetricsSnapshot after = obs::registry().snapshot();
  const auto phase_ms = [&](std::string_view name) {
    return (timer_sum_seconds(after, name) - timer_sum_seconds(before, name)) *
           1e3 / kPhaseRepeats;
  };
  point.rank_ms = phase_ms("auction/rank_sort");
  point.prealloc_ms = phase_ms("auction/pre_allocate");
  point.commit_ms = phase_ms("auction/commit");
  return point;
}

/// One Fig. 8a/8b series: times every (N, M) point, prints and mirrors the
/// rows, then fits median time against N·M.
void auction_series(const std::string& panel, const std::string& series,
                    const std::vector<std::pair<int, int>>& points,
                    bench::Reporter& rows, bench::Reporter& fits) {
  util::TablePrinter table({"N", "M", "median ms", "rank ms", "prealloc ms",
                            "commit ms"});
  std::vector<double> nm;
  std::vector<double> ms;
  for (const auto& [workers, tasks] : points) {
    const AuctionPoint p = time_auction(workers, tasks);
    table.add_row({std::to_string(workers), std::to_string(tasks),
                   util::TablePrinter::format(p.ms, 3),
                   util::TablePrinter::format(p.rank_ms, 3),
                   util::TablePrinter::format(p.prealloc_ms, 3),
                   util::TablePrinter::format(p.commit_ms, 3)});
    rows.row({panel, series, std::to_string(workers), std::to_string(tasks),
              std::to_string(p.ms), std::to_string(p.rank_ms),
              std::to_string(p.prealloc_ms), std::to_string(p.commit_ms)});
    nm.push_back(static_cast<double>(workers) * tasks);
    ms.push_back(p.ms);
  }
  table.print("Fig. " + panel + " — " + series);
  const util::LinearFit fit = util::linear_fit(nm, ms);
  const double slope_ns = fit.slope * 1e6;  // ns per unit of N·M
  std::printf("fit vs N·M: slope %.3f ns, intercept %.3f ms, r² %.4f\n",
              slope_ns, fit.intercept, fit.r_squared);
  fits.row({panel, series, std::to_string(slope_ns),
            std::to_string(fit.intercept), std::to_string(fit.r_squared)});
}

sim::LongTermScenario large_scenario(int workers) {
  sim::LongTermScenario scenario;
  scenario.num_workers = workers;
  scenario.num_tasks = 500;
  scenario.runs = 2;
  scenario.budget = 800.0;
  return scenario;
}

sim::EstimatorFactory melody_estimator_factory(
    const sim::LongTermScenario& scenario) {
  estimators::MelodyEstimatorConfig config;
  config.initial_posterior = {scenario.initial_mu, scenario.initial_sigma};
  config.reestimation_period = scenario.reestimation_period;
  return [config] {
    return std::make_unique<estimators::MelodyEstimator>(config);
  };
}

/// One Fig. 8c/8d family at `workers`: times `body` on the shared pool at
/// each thread count and reports the speedup against the threads=1 entry.
template <typename Body>
void thread_family(const std::string& panel, int workers, Body&& body,
                   util::TablePrinter& table, bench::Reporter& csv) {
  double serial_ms = 0.0;
  for (const int threads : kThreadCounts) {
    util::set_shared_thread_count(threads);
    const double ms = median_ms(kParallelRepeats, body);
    if (threads == 1) serial_ms = ms;
    const double speedup = serial_ms / ms;
    table.add_row({panel, std::to_string(workers), std::to_string(threads),
                   util::TablePrinter::format(ms, 1),
                   util::TablePrinter::format(speedup, 2)});
    csv.row({panel, std::to_string(workers), std::to_string(threads),
             std::to_string(ms), std::to_string(speedup)});
  }
  util::set_shared_thread_count(1);
}

}  // namespace

int main() {
  bench::banner("Fig. 8a/8b — MELODY auction running time (Theorem 8: O(NM))");
  bench::Reporter rows("fig8_running_time.csv",
                       {"panel", "series", "workers", "tasks", "median_ms",
                        "rank_ms", "prealloc_ms", "commit_ms"});
  bench::Reporter fits("fig8_linear_fit.csv",
                       {"panel", "series", "slope_ns_per_nm", "intercept_ms",
                        "r2"});
  for (const int tasks : {500, 5000}) {
    std::vector<std::pair<int, int>> points;
    for (int workers = 100; workers <= 700; workers += 150) {
      points.emplace_back(workers, tasks);
    }
    auction_series("8a", "M=" + std::to_string(tasks), points, rows, fits);
  }
  for (const int workers : {500, 2000}) {
    std::vector<std::pair<int, int>> points;
    for (int tasks = 500; tasks <= 4500; tasks += 1000) {
      points.emplace_back(workers, tasks);
    }
    auction_series("8b", "N=" + std::to_string(workers), points, rows, fits);
  }
  std::printf("(Theorem 8: time grows linearly in N and in M — r² near 1 "
              "on every series)\n");

  bench::banner("Fig. 8c/8d — parallel wall clock (bit-identical output)");
  bench::Reporter speedups("fig8_speedup.csv",
                           {"panel", "workers", "threads", "median_ms",
                            "speedup"});
  util::TablePrinter table({"panel", "N", "threads", "median ms", "speedup"});
  // 8c: replica-level parallelism, 8 long-term replicas at N workers.
  const std::vector<std::uint64_t> seeds{11, 12, 13, 14, 15, 16, 17, 18};
  for (const int workers : {2000, 4000}) {
    const auto scenario = large_scenario(workers);
    sim::ParallelSweep sweep;
    sweep.add_seed_grid(
        "melody", scenario, seeds,
        [] { return std::make_unique<auction::MelodyAuction>(); },
        melody_estimator_factory(scenario));
    thread_family(
        "8c", workers,
        [&] { g_sink = sweep.run().merged.true_utility.sum(); }, table,
        speedups);
  }
  // 8d: intra-replica parallelism — one platform, large N, where score
  // generation and the estimator's observe_run shard across the pool.
  auto scenario = large_scenario(4000);
  scenario.runs = 3;
  const auto factory = melody_estimator_factory(scenario);
  thread_family(
      "8d", scenario.num_workers,
      [&] {
        auction::MelodyAuction mechanism;
        auto estimator = factory();
        util::Rng population_rng(7);
        sim::Platform platform(scenario, mechanism, *estimator,
                               sim::sample_population(
                                   scenario.population_config(), population_rng),
                               8);
        g_sink = static_cast<double>(platform.run_all().size());
      },
      table, speedups);
  table.print();
  std::printf("(speedup is against the threads=1 entry of the same panel "
              "and N; a single-core host shows ~1x)\n");
  return 0;
}
