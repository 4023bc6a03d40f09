#include "svc/config.h"

#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "util/flags.h"
#include "util/json.h"

namespace melody::svc {

namespace {

/// How one flag-settable field is named and documented.
struct FlagDoc {
  const char* name;
  const char* hint;  // empty for a switch
  std::string description;
};

/// The one list of flag-settable fields, in --help order: calls
/// visit(doc, field) for each, with `field` a reference into `c`. Parsing,
/// writing and --help all walk it, so a field cannot reach one and miss
/// another. Every default is the field's value in a default ServiceConfig.
template <typename Config, typename Visit>
void for_each_flag(Config& c, bool serve_flags, Visit&& visit) {
  visit({"workers", "N", "scenario population size"}, c.scenario.num_workers);
  visit({"tasks", "M", "tasks published per run"}, c.scenario.num_tasks);
  visit({"runs", "R", "scripted run horizon"}, c.scenario.runs);
  visit({"budget", "B", "per-run auction budget"}, c.scenario.budget);
  visit({"reestimation-period", "T", "estimator re-estimation period"},
        c.scenario.reestimation_period);
  visit({"estimator", "NAME",
         "quality estimator: " + estimators::known_kinds()},
        c.estimator);
  visit({"exploration-beta", "BETA", "exploration bonus weight"},
        c.exploration_beta);
  visit({"payment-rule", "RULE", "payment rule: critical|paper"},
        c.payment_rule);
  visit({"seed", "S", "master seed (same derivations as melody_sim)"}, c.seed);
  visit({"faults", "SPEC",
         "deterministic fault plan, e.g. no-show=0.05,drop=0.1 (see "
         "sim/fault.h)"},
        c.faults);
  visit({"checkpoint", "PATH",
         "write checkpoints to PATH (atomic tmp+rename); one is written on "
         "shutdown"},
        c.checkpoint_path);
  visit({"checkpoint-every", "N", "also checkpoint after every N-th run"},
        c.checkpoint_every);
  // melody_sim shares the half above without the knobs that only exist
  // online.
  if (!serve_flags) return;
  visit({"batch-min-bids", "N",
         "run once N bids are pending (0: off; no trigger at all defaults to "
         "one run per full participation round)"},
        c.batch.min_bids);
  visit({"batch-max-delay", "SEC",
         "run once the oldest pending bid is SEC old (0: off)"},
        c.batch.max_delay);
  visit({"batch-budget", "B",
         "run once submit_tasks budget accrues to B (0: off)"},
        c.batch.budget_target);
  visit({"rolling", "",
         "rolling auction: every submit_tasks queues one run against the "
         "standing bid book"},
        c.batch.per_task_arrival);
  visit({"manual-clock", "",
         "drive the service clock with tick ops instead of the wall clock "
         "(deterministic traces)"},
        c.manual_clock);
  visit({"exit-after-runs", "N",
         "shut down after N runs have executed this session (0: never)"},
        c.exit_after_runs);
  visit({"shards", "K",
         "platform shards the worker population splits across (1: the plain "
         "single-platform service)"},
        c.shards);
  visit({"queue-capacity", "N",
         "bounded request queue size per shard; a full queue rejects with "
         "retry_after_ms"},
        c.queue_capacity);
}

// The flag text of each field type; read_flag parses it back exactly.
std::string flag_text(bool v) { return v ? "true" : "false"; }
template <typename T>  // ints, and the seed as the signed value --seed parses
std::string flag_text(T v) {
  return std::to_string(static_cast<std::int64_t>(v));
}
std::string flag_text(double v) {  // 17 significant digits
  return util::json::write(util::json::Value::of(v));
}
std::string flag_text(const std::string& v) { return v; }
std::string flag_text(auction::PaymentRule r) {
  return r == auction::PaymentRule::kPaperNextInQueue ? "paper" : "critical";
}
std::string flag_text(const sim::FaultPlan& plan) {
  return plan == sim::FaultPlan{} ? "" : plan.describe();
}

void parse_flag_text(const std::string& text, auction::PaymentRule& rule) {
  if (text != "critical" && text != "paper") {
    throw std::invalid_argument("payment-rule must be critical or paper");
  }
  rule = text == "paper" ? auction::PaymentRule::kPaperNextInQueue
                         : auction::PaymentRule::kCriticalValue;
}
void parse_flag_text(const std::string& text, std::string& s) { s = text; }
void parse_flag_text(const std::string& text, sim::FaultPlan& plan) {
  plan = sim::FaultPlan::parse(text);  // "" is the empty plan
}

/// Registers the flag for --help with the field's current (default) value
/// and overwrites the field when the flag is set.
template <typename T>
void read_flag(const util::Flags& flags, const FlagDoc& doc, T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    field = flags.has_switch(doc.name, doc.description);
  } else if constexpr (std::is_integral_v<T>) {
    const std::int64_t value =
        flags.get_int(doc.name, static_cast<std::int64_t>(field), doc.hint,
                      doc.description);
    if (sizeof(T) < sizeof value && !std::in_range<T>(value)) {
      throw std::invalid_argument("--" + std::string(doc.name) +
                                  " is out of range: " + std::to_string(value));
    }
    field = static_cast<T>(value);
  } else if constexpr (std::is_same_v<T, double>) {
    field = flags.get_double(doc.name, field, doc.hint, doc.description);
  } else {
    parse_flag_text(flags.get_string(doc.name, flag_text(field), doc.hint,
                                     doc.description),
                    field);
  }
}

}  // namespace

void ServiceConfig::validate() const {
  if (scenario.num_workers <= 0 || scenario.num_tasks <= 0 ||
      scenario.runs <= 0 || !std::isfinite(scenario.budget) ||
      scenario.budget < 0.0 || !std::isfinite(exploration_beta) ||
      !std::isfinite(batch.max_delay) || !std::isfinite(batch.budget_target)) {
    throw std::invalid_argument(
        "svc: workers/tasks/runs must be positive, budget finite and "
        "non-negative, exploration beta and batch triggers finite");
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
  for_each_flag(c, serve_flags, [&flags](const FlagDoc& doc, auto& field) {
    read_flag(flags, doc, field);
  });
  return c;
}

std::vector<std::string> ServiceConfig::to_flags() const {
  std::vector<std::string> out;
  for_each_flag(*this, true, [&out](const FlagDoc& doc, const auto& field) {
    out.push_back("--" + std::string(doc.name) + "=" + flag_text(field));
  });
  return out;
}

}  // namespace melody::svc
