// melody_sim — command-line driver for the long-term crowdsourcing
// simulation (the Table-4 experiment with every knob exposed).
//
// Usage:
//   melody_sim [--workers N] [--tasks M] [--runs R] [--budget B]
//              [--estimator melody|static|ml-cr|ml-ar]
//              [--reestimation-period T] [--exploration-beta BETA]
//              [--payment-rule critical|paper] [--seed S]
//              [--threads T] [--csv out.csv] [--metrics-json out.json]
//              [--checkpoint PATH] [--checkpoint-every N] [--resume PATH]
//              [--faults SPEC] [--quiet]
//
// Prints the per-run series (downsampled) and the summary metrics; with
// --csv, writes the full per-run records. With --metrics-json, enables the
// observability layer and writes a JSON-lines stream: one "platform/run"
// and one "auction/result" event per run, followed by the metric summaries
// (auction-phase timers, estimator update stats, thread-pool counters).
// Metrics never perturb the simulation: outputs are bit-identical with the
// flag on or off, at any --threads value.
//
// Robustness runtime: --checkpoint writes crash-safe platform snapshots
// (every --checkpoint-every runs, plus one after the final run); --resume
// restores one and continues, bit-identical to a run that never stopped.
// --faults installs a deterministic fault plan (see sim/fault.h), e.g.
// "no-show=0.05,drop=0.1,corrupt=0.02,churn=0.1".
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "auction/melody_auction.h"
#include "estimators/factory.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "sim/metrics.h"
#include "sim/platform.h"
#include "svc/config.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace melody;

struct Options {
  // The shared scenario/estimator/checkpoint half is the same validated
  // aggregate melody_serve parses (svc::ServiceConfig::from_flags), so the
  // two tools document and check identical knobs identically.
  svc::ServiceConfig service;
  std::string csv_path;
  std::string metrics_path;
  std::string resume_path;
  int threads = 1;
  bool quiet = false;
};

// All getter calls live here so the --help text is generated from the same
// calls that parse (util::CommandLine runs it over an empty Flags).
Options read_options(const util::Flags& flags) {
  Options o;
  o.service = svc::ServiceConfig::from_flags(flags, /*serve_flags=*/false);
  o.threads = static_cast<int>(flags.get_int(
      "threads", 1, "T",
      "worker threads (0: all hardware threads, 1: serial); output is "
      "bit-identical for every T"));
  o.csv_path = flags.get_string("csv", "", "PATH",
                                "write the full per-run records as CSV");
  o.metrics_path = flags.get_string(
      "metrics-json", "", "PATH",
      "enable observability and write a JSON-lines stream (per-run events, "
      "phase timers, estimator stats); never changes the outputs");
  o.resume_path = flags.get_string(
      "resume", "", "PATH",
      "resume from a snapshot written with the same scenario flags; "
      "bit-identical to a run that never stopped");
  o.quiet = flags.get_bool("quiet", false, "", "suppress the run table");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  util::CommandLine<Options> cli("melody_sim",
                                 "Long-term crowdsourcing simulation (the "
                                 "Table-4 experiment with every knob "
                                 "exposed).",
                                 1, read_options);
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;
  const Options& options = cli.options();

  const svc::ServiceConfig& config = options.service;
  const sim::LongTermScenario& scenario = config.scenario;
  try {
    config.validate();
  } catch (const std::exception& e) {
    return cli.usage(e.what());
  }

  // Shared estimator registry: the same construction melody_serve and the
  // perf suite use, so the four call sites cannot drift apart.
  auto estimator =
      estimators::make(config.estimator, config.estimator_params());
  if (estimator == nullptr) {
    return cli.usage("estimator must be one of " + estimators::known_kinds());
  }
  const auction::PaymentRule rule = config.payment_rule;
  const std::string payment_rule_name =
      rule == auction::PaymentRule::kCriticalValue ? "critical" : "paper";

  util::set_shared_thread_count(options.threads);

  std::optional<obs::MetricsFile> metrics;
  if (!options.metrics_path.empty()) {
    try {
      metrics.emplace(options.metrics_path);
    } catch (const std::exception& e) {
      return cli.usage(e.what());
    }
  }

  auction::MelodyAuction mechanism(rule);
  util::Rng population_rng(config.seed);
  sim::Platform platform(
      scenario, mechanism, *estimator,
      sim::sample_population(scenario.population_config(), population_rng),
      config.seed + 1);
  try {
    if (!options.resume_path.empty()) {
      sim::load_checkpoint(platform, options.resume_path);
    }
    if (cli.flags().has("faults")) platform.set_fault_plan(config.faults);
  } catch (const std::exception& e) {
    return cli.usage(e.what());
  }

  std::vector<sim::RunRecord> records;
  const int first_run = platform.current_run();
  if (config.checkpoint_path.empty()) {
    records = platform.run_all();
  } else {
    records.reserve(static_cast<std::size_t>(scenario.runs));
    while (platform.current_run() <= scenario.runs) {
      records.push_back(platform.step());
      if (config.checkpoint_every > 0 &&
          records.back().run % config.checkpoint_every == 0) {
        sim::save_checkpoint(platform, config.checkpoint_path);
      }
    }
    sim::save_checkpoint(platform, config.checkpoint_path);
  }

  if (metrics) metrics->finish();

  if (!options.csv_path.empty()) {
    util::CsvWriter csv(options.csv_path);
    csv.write_row({"run", "estimated_utility", "true_utility",
                   "estimation_error", "total_payment", "assignments",
                   "no_shows", "churned_out", "scores_dropped",
                   "scores_corrupted"});
    for (const auto& r : records) {
      csv.write_numeric_row({static_cast<double>(r.run),
                             static_cast<double>(r.estimated_utility),
                             static_cast<double>(r.true_utility),
                             r.estimation_error, r.total_payment,
                             static_cast<double>(r.assignments),
                             static_cast<double>(r.no_shows),
                             static_cast<double>(r.churned_out),
                             static_cast<double>(r.scores_dropped),
                             static_cast<double>(r.scores_corrupted)});
    }
  }

  if (!options.quiet && !records.empty()) {
    util::TablePrinter table({"run", "true utility", "est. error", "payment"});
    const std::size_t step =
        std::max<std::size_t>(1, records.size() / 20);
    for (std::size_t k = step - 1; k < records.size(); k += step) {
      const auto& record = records[k];
      table.add_row(std::to_string(record.run),
                    {static_cast<double>(record.true_utility),
                     record.estimation_error, record.total_payment},
                    2);
    }
    table.print(config.estimator + " / " + payment_rule_name + " payments");
  }

  const auto summary = sim::summarize(records);
  std::printf("\nsummary over %zu runs (%s estimator, %d thread%s):\n",
              records.size(), config.estimator.c_str(),
              util::shared_thread_count(),
              util::shared_thread_count() == 1 ? "" : "s");
  if (first_run > 1) {
    std::printf("  resumed at run %d from %s\n", first_run,
                options.resume_path.c_str());
  }
  if (platform.fault_plan().active()) {
    std::printf("  fault plan: %s\n", platform.fault_plan().describe().c_str());
  }
  std::printf("  mean true utility:      %.2f\n", summary.mean_true_utility);
  std::printf("  mean estimated utility: %.2f\n",
              summary.mean_estimated_utility);
  std::printf("  mean estimation error:  %.4f\n",
              summary.mean_estimation_error);
  std::printf("  mean total payment:     %.2f (budget %.2f)\n",
              summary.mean_total_payment, scenario.budget);
  if (!options.csv_path.empty()) {
    std::printf("  per-run CSV: %s\n", options.csv_path.c_str());
  }
  if (!config.checkpoint_path.empty()) {
    std::printf("  checkpoint: %s\n", config.checkpoint_path.c_str());
  }
  if (metrics) {
    std::printf("  metrics JSON-lines: %s (%zu lines)\n",
                options.metrics_path.c_str(), metrics->lines_written());
  }
  return 0;
}
