// melody_audit — run one MELODY auction over bids and tasks read from CSV
// files and print the allocation, payments, and feasibility audit. Lets a
// platform operator replay a round offline and inspect exactly why each
// worker won or lost.
//
// Usage:
//   melody_audit --workers workers.csv --tasks tasks.csv --budget B
//                [--payment-rule critical|paper]
//                [--theta-min X --theta-max X --cost-min X --cost-max X]
//                [--dual-target U] [--metrics]
//
// workers.csv: header + rows  id,cost,frequency,estimated_quality
// tasks.csv:   header + rows  id,quality_threshold
//
// With --dual-target, runs the dual form instead (footnote 6) and reports
// the minimum budget for the target utility. With --metrics, enables the
// observability layer for the replay and prints the metric summaries
// (phase timers in milliseconds, counters) after the audit.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "auction/dual_sra.h"
#include "auction/melody_auction.h"
#include "obs/metrics.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace melody;

struct Options {
  std::string workers_path;
  std::string tasks_path;
  std::string rule_name;
  auction::AuctionConfig config;
  std::int64_t dual_target = -1;
  bool with_metrics = false;
};

// All getter calls live here so the --help text is generated from the same
// calls that parse (util::CommandLine runs it over an empty Flags).
Options read_options(const util::Flags& flags) {
  Options o;
  o.workers_path = flags.get_string(
      "workers", "", "CSV",
      "required; rows: id,cost,frequency,estimated_quality");
  o.tasks_path = flags.get_string("tasks", "", "CSV",
                                  "required; rows: id,quality_threshold");
  o.config.budget = flags.get_double("budget", 0.0, "B", "auction budget");
  o.config.theta_min = flags.get_double("theta-min", 0.0, "X",
                                        "qualification: minimum quality");
  o.config.theta_max = flags.get_double("theta-max", 1e18, "X",
                                        "qualification: maximum quality");
  o.config.cost_min =
      flags.get_double("cost-min", 0.0, "X", "qualification: minimum cost");
  o.config.cost_max =
      flags.get_double("cost-max", 1e18, "X", "qualification: maximum cost");
  o.rule_name = flags.get_string("payment-rule", "critical", "RULE",
                                 "payment rule: critical|paper");
  o.dual_target = flags.get_int(
      "dual-target", -1, "U",
      "run the dual form (footnote 6): report the minimum budget that "
      "reaches target utility U");
  o.with_metrics = flags.get_bool(
      "metrics", false, "",
      "print observability summaries (phase timers in ms, counters) "
      "collected during the replay");
  return o;
}

double parse_double(const std::string& cell, const char* what) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(cell, &consumed);
    if (consumed != cell.size()) throw std::invalid_argument(cell);
    return value;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("bad ") + what + " value '" + cell +
                             "'");
  }
}

std::vector<auction::WorkerProfile> load_workers(const std::string& path) {
  const util::CsvRows rows = util::read_csv_file(path);
  if (rows.size() < 2) throw std::runtime_error("workers.csv: no data rows");
  std::vector<auction::WorkerProfile> workers;
  for (std::size_t r = 1; r < rows.size(); ++r) {  // skip header
    const auto& row = rows[r];
    if (row.size() != 4) {
      throw std::runtime_error("workers.csv: expected 4 columns per row");
    }
    auction::WorkerProfile w;
    w.id = static_cast<auction::WorkerId>(parse_double(row[0], "worker id"));
    w.bid.cost = parse_double(row[1], "cost");
    w.bid.frequency = static_cast<int>(parse_double(row[2], "frequency"));
    w.estimated_quality = parse_double(row[3], "estimated_quality");
    workers.push_back(w);
  }
  return workers;
}

std::vector<auction::Task> load_tasks(const std::string& path) {
  const util::CsvRows rows = util::read_csv_file(path);
  if (rows.size() < 2) throw std::runtime_error("tasks.csv: no data rows");
  std::vector<auction::Task> tasks;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != 2) {
      throw std::runtime_error("tasks.csv: expected 2 columns per row");
    }
    tasks.push_back(
        {static_cast<auction::TaskId>(parse_double(row[0], "task id")),
         parse_double(row[1], "quality_threshold")});
  }
  return tasks;
}

void print_allocation(const auction::AllocationResult& result,
                      const std::vector<auction::WorkerProfile>& workers,
                      const std::vector<auction::Task>& tasks,
                      const auction::AuctionConfig& config) {
  util::TablePrinter assignments({"task", "worker", "payment", "bid cost"});
  for (const auto& a : result.assignments) {
    double cost = 0.0;
    for (const auto& w : workers) {
      if (w.id == a.worker) cost = w.bid.cost;
    }
    assignments.add_row({std::to_string(a.task), std::to_string(a.worker),
                         util::TablePrinter::format(a.payment, 4),
                         util::TablePrinter::format(cost, 4)});
  }
  assignments.print("Assignments");
  std::printf("\nselected tasks: %zu of %zu | total payment: %.4f\n",
              result.selected_tasks.size(), tasks.size(),
              result.total_payment());

  const std::string budget_check =
      auction::check_budget_feasibility(result, config);
  const std::string frequency_check =
      auction::check_frequency_feasibility(result, workers);
  const std::string satisfaction_check =
      auction::check_task_satisfaction(result, workers, tasks);
  std::printf("audit: budget %s | frequency %s | satisfaction %s\n",
              budget_check.empty() ? "OK" : budget_check.c_str(),
              frequency_check.empty() ? "OK" : frequency_check.c_str(),
              satisfaction_check.empty() ? "OK" : satisfaction_check.c_str());
}

void print_metrics_summary() {
  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  if (!snapshot.summaries.empty()) {
    util::TablePrinter timers({"timer", "count", "mean", "p50", "max"});
    for (const auto& s : snapshot.summaries) {
      if (!s.is_timer) continue;
      // Phase timers record seconds; milliseconds read better at replay
      // scale (one auction ~ microseconds-to-milliseconds per phase).
      timers.add_row({s.name, std::to_string(s.stats.count),
                      util::TablePrinter::format(s.stats.mean * 1e3, 4),
                      util::TablePrinter::format(s.stats.p50 * 1e3, 4),
                      util::TablePrinter::format(s.stats.max * 1e3, 4)});
    }
    timers.print("Timers (ms)");
    util::TablePrinter values({"summary", "count", "mean", "p50", "max"});
    bool any_value = false;
    for (const auto& s : snapshot.summaries) {
      if (s.is_timer) continue;
      any_value = true;
      values.add_row({s.name, std::to_string(s.stats.count),
                      util::TablePrinter::format(s.stats.mean, 4),
                      util::TablePrinter::format(s.stats.p50, 4),
                      util::TablePrinter::format(s.stats.max, 4)});
    }
    if (any_value) values.print("Summaries");
  }
  if (!snapshot.counters.empty()) {
    util::TablePrinter counters({"counter", "value"});
    for (const auto& c : snapshot.counters) {
      counters.add_row({c.name, std::to_string(c.value)});
    }
    counters.print("Counters");
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::CommandLine<Options> cli("melody_audit",
                                 "Replay one MELODY auction from CSV "
                                 "bids/tasks and audit the allocation.",
                                 1, read_options);
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;
  const Options& options = cli.options();
  try {
    if (options.workers_path.empty() || options.tasks_path.empty()) {
      return cli.usage("--workers and --tasks are required");
    }

    const auction::AuctionConfig& config = options.config;
    auction::PaymentRule rule;
    if (options.rule_name == "critical") {
      rule = auction::PaymentRule::kCriticalValue;
    } else if (options.rule_name == "paper") {
      rule = auction::PaymentRule::kPaperNextInQueue;
    } else {
      return cli.usage("payment-rule must be critical or paper");
    }

    const auto workers = load_workers(options.workers_path);
    const auto tasks = load_tasks(options.tasks_path);
    if (options.with_metrics) obs::set_enabled(true);

    if (options.dual_target >= 0) {
      const auto dual = auction::run_dual_sra(
          workers, tasks, config, static_cast<std::size_t>(options.dual_target), rule);
      std::printf("dual SRA: target %lld %s; required budget %.4f\n",
                  static_cast<long long>(options.dual_target),
                  dual.target_met ? "met" : "NOT met", dual.required_budget);
      print_allocation(dual.allocation, workers, tasks, config);
      if (options.with_metrics) print_metrics_summary();
      return 0;
    }

    auction::MelodyAuction auction(rule);
    print_allocation(auction.run({workers, tasks, config}), workers, tasks,
                     config);
    if (options.with_metrics) print_metrics_summary();
    return 0;
  } catch (const std::exception& e) {
    return cli.usage(e.what());
  }
}
