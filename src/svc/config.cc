#include "svc/config.h"

#include <cmath>
#include <stdexcept>

#include "util/flags.h"

namespace melody::svc {

void ServiceConfig::validate() const {
  if (scenario.num_workers <= 0 || scenario.num_tasks <= 0 ||
      scenario.runs <= 0 || !std::isfinite(scenario.budget) ||
      scenario.budget < 0.0) {
    throw std::invalid_argument(
        "svc: workers/tasks/runs must be positive, budget finite and "
        "non-negative");
  }
  if (!estimators::known(estimator)) {
    throw std::invalid_argument("svc: estimator must be one of " +
                                estimators::known_kinds());
  }
  if (checkpoint_every < 0) {
    throw std::invalid_argument("svc: checkpoint_every must be non-negative");
  }
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    throw std::invalid_argument(
        "svc: checkpoint_every requires a checkpoint path");
  }
  if (shards < 1) {
    throw std::invalid_argument("svc: shards must be at least 1");
  }
  if (shards > scenario.num_workers || shards > scenario.num_tasks) {
    throw std::invalid_argument(
        "svc: shards must not exceed the worker population or the task "
        "count (every shard needs a non-empty sub-market)");
  }
  if (queue_capacity < 1) {
    throw std::invalid_argument("svc: queue_capacity must be at least 1");
  }
  if (worker_name_offset < 0) {
    throw std::invalid_argument("svc: worker_name_offset must be >= 0");
  }
}

ServiceConfig ServiceConfig::from_flags(const util::Flags& flags,
                                        bool serve_flags) {
  ServiceConfig c;
  c.scenario.num_workers = static_cast<int>(
      flags.get_int("workers", 300, "N", "scenario population size"));
  c.scenario.num_tasks = static_cast<int>(
      flags.get_int("tasks", 500, "M", "tasks published per run"));
  c.scenario.runs = static_cast<int>(
      flags.get_int("runs", 1000, "R", "scripted run horizon"));
  c.scenario.budget =
      flags.get_double("budget", 800.0, "B", "per-run auction budget");
  c.scenario.reestimation_period = static_cast<int>(flags.get_int(
      "reestimation-period", 10, "T", "estimator re-estimation period"));
  c.estimator =
      flags.get_string("estimator", "melody", "NAME",
                       "quality estimator: " + estimators::known_kinds());
  c.exploration_beta = flags.get_double("exploration-beta", 0.0, "BETA",
                                        "exploration bonus weight");
  const std::string rule = flags.get_string(
      "payment-rule", "critical", "RULE", "payment rule: critical|paper");
  if (rule == "critical") {
    c.payment_rule = auction::PaymentRule::kCriticalValue;
  } else if (rule == "paper") {
    c.payment_rule = auction::PaymentRule::kPaperNextInQueue;
  } else {
    throw std::invalid_argument("payment-rule must be critical or paper");
  }
  c.seed = static_cast<std::uint64_t>(flags.get_int(
      "seed", 2017, "S", "master seed (same derivations as melody_sim)"));
  const std::string faults_spec = flags.get_string(
      "faults", "", "SPEC",
      "deterministic fault plan, e.g. no-show=0.05,drop=0.1 (see "
      "sim/fault.h)");
  if (!faults_spec.empty()) c.faults = sim::FaultPlan::parse(faults_spec);
  c.checkpoint_path = flags.get_string(
      "checkpoint", "", "PATH",
      "write checkpoints to PATH (atomic tmp+rename); one is written on "
      "shutdown");
  c.checkpoint_every = static_cast<int>(flags.get_int(
      "checkpoint-every", 0, "N", "also checkpoint after every N-th run"));
  if (!serve_flags) return c;

  c.batch.min_bids = static_cast<int>(flags.get_int(
      "batch-min-bids", 0, "N",
      "run once N bids are pending (0: off; no trigger at all defaults to "
      "one run per full participation round)"));
  c.batch.max_delay = flags.get_double(
      "batch-max-delay", 0.0, "SEC",
      "run once the oldest pending bid is SEC old (0: off)");
  c.batch.budget_target = flags.get_double(
      "batch-budget", 0.0, "B",
      "run once submit_tasks budget accrues to B (0: off)");
  c.batch.per_task_arrival = flags.has_switch(
      "rolling",
      "rolling auction: every submit_tasks queues one run against the "
      "standing bid book");
  c.manual_clock = flags.has_switch(
      "manual-clock",
      "drive the service clock with tick ops instead of the wall clock "
      "(deterministic traces)");
  c.exit_after_runs = static_cast<int>(flags.get_int(
      "exit-after-runs", 0, "N",
      "shut down after N runs have executed this session (0: never)"));
  c.shards = static_cast<int>(flags.get_int(
      "shards", 1, "K",
      "platform shards the worker population splits across (1: the plain "
      "single-platform service)"));
  c.queue_capacity = flags.get_int(
      "queue-capacity", 128, "N",
      "bounded request queue size per shard; a full queue rejects with "
      "retry_after_ms");
  return c;
}

}  // namespace melody::svc
