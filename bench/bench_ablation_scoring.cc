// Ablation A7 — oracle scores vs majority-voting agreement scores.
//
// The paper's Section 7.7 generates scores directly from the emission
// model (an "oracle" requester); footnote 5 notes that real platforms often
// score by unsupervised aggregation instead. This bench runs the same
// population twice — once with oracle Gaussian scores, once with
// weighted-majority agreement scores — and compares MELODY's quality
// tracking and the consensus accuracy it enables.
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "auction/melody_auction.h"
#include "bench_common.h"
#include "estimators/melody_estimator.h"
#include "sim/labeling.h"
#include "sim/scenario.h"
#include "sim/score_gen.h"
#include "sim/worker_model.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace melody;

constexpr int kRuns = 300;
constexpr int kWorkers = 80;
constexpr int kTasks = 40;
constexpr int kClasses = 4;

struct Outcome {
  double tracking_error = 0.0;   // mean |q - estimate| over workers, late runs
  double consensus_accuracy = 0.0;  // fraction of batches aggregated correctly
};

Outcome run(bool oracle_scores) {
  sim::LongTermScenario scenario;
  scenario.num_workers = kWorkers;
  scenario.num_tasks = kTasks;
  scenario.runs = kRuns;
  scenario.budget = 250.0;
  estimators::MelodyEstimatorConfig config;
  config.initial_posterior = {scenario.initial_mu, scenario.initial_sigma};
  config.reestimation_period = scenario.reestimation_period;
  estimators::MelodyEstimator estimator(config);
  auction::MelodyAuction mechanism;
  util::Rng rng(71);  // identical population + task stream for both modes
  auto workers = sim::sample_population(scenario.population_config(), rng);
  for (const auto& w : workers) estimator.register_worker(w.id());

  const sim::LabelingModel labeling;
  util::RunningStats error;
  int batches = 0, correct = 0;
  for (int run = 1; run <= kRuns; ++run) {
    for (auto& w : workers) w.advance_to(run);
    std::vector<auction::WorkerProfile> profiles;
    for (const auto& w : workers) {
      profiles.push_back({w.id(), w.true_bid(), estimator.estimate(w.id())});
    }
    const auto tasks = scenario.sample_tasks(rng);
    const auto result =
        mechanism.run({profiles, tasks, scenario.auction_config()});

    std::unordered_map<auction::WorkerId, lds::ScoreSet> collected;
    for (const auto& task : tasks) {
      const auto crowd = result.workers_of(task.id);
      if (crowd.empty()) continue;
      sim::LabelingTask batch{task.id, kClasses,
                              static_cast<int>(rng.uniform_int(0, kClasses - 1))};
      std::vector<double> skills, weights;
      for (auction::WorkerId w : crowd) {
        skills.push_back(workers[static_cast<std::size_t>(w)].latent_quality());
        weights.push_back(estimator.estimate(w));
      }
      const auto outcome =
          sim::run_labeling_task(labeling, batch, crowd, skills, weights, rng);
      ++batches;
      correct += outcome.aggregate_correct ? 1 : 0;
      for (std::size_t l = 0; l < outcome.labels.size(); ++l) {
        const auction::WorkerId w = outcome.labels[l].worker;
        if (oracle_scores) {
          collected[w].add(sim::generate_score(
              scenario.score_model,
              workers[static_cast<std::size_t>(w)].latent_quality(), rng));
        } else {
          collected[w].add(outcome.scores[l]);
        }
      }
    }
    for (const auto& w : workers) {
      const auto it = collected.find(w.id());
      estimator.observe(w.id(),
                        it == collected.end() ? lds::ScoreSet{} : it->second);
      if (run > kRuns / 2) {
        error.add(std::abs(w.latent_quality() - estimator.estimate(w.id())));
      }
    }
  }
  return {error.mean(), static_cast<double>(correct) / batches};
}

}  // namespace

int main() {
  bench::banner("Ablation A7 — oracle vs majority-voting scores");
  const Outcome oracle = run(/*oracle_scores=*/true);
  const Outcome voting = run(/*oracle_scores=*/false);
  util::TablePrinter table(
      {"scoring", "tracking error", "consensus accuracy"});
  table.add_row({"oracle (Eq. 13)",
                 util::TablePrinter::format(oracle.tracking_error, 3),
                 util::TablePrinter::format(100.0 * oracle.consensus_accuracy,
                                            1) + "%"});
  table.add_row({"majority voting",
                 util::TablePrinter::format(voting.tracking_error, 3),
                 util::TablePrinter::format(100.0 * voting.consensus_accuracy,
                                            1) + "%"});
  table.print();
  bench::Reporter csv("ablation_scoring.csv",
                      {"scoring", "tracking_error", "consensus_accuracy"});
  csv.row({"oracle", std::to_string(oracle.tracking_error),
           std::to_string(oracle.consensus_accuracy)});
  csv.row({"voting", std::to_string(voting.tracking_error),
           std::to_string(voting.consensus_accuracy)});
  std::printf("(agreement scores are binary (agree/disagree), so the tracker "
              "sees a coarser, biased signal than the oracle — the paper's "
              "claim that its metrics \"can be incorporated naturally\" "
              "carries this cost)\n");
  return 0;
}
