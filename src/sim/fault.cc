#include "sim/fault.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/json.h"

namespace melody::sim {

namespace {

/// Root of every fault stream: one mix separating it from the score
/// streams derived directly from master_seed.
std::uint64_t fault_master(const FaultPlan& plan, std::uint64_t master_seed) {
  return util::derive_stream(master_seed, plan.salt);
}

void check_rate(double rate, const char* name) {
  if (!(rate >= 0.0 && rate <= 1.0)) {
    throw std::invalid_argument(std::string("FaultPlan: ") + name +
                                " must be in [0, 1]");
  }
}

double parse_rate(const std::string& value, const std::string& key) {
  try {
    std::size_t consumed = 0;
    const double rate = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return rate;
  } catch (const std::exception&) {
    throw std::invalid_argument("FaultPlan: " + key + " expects a number, got '" +
                                value + "'");
  }
}

std::int64_t parse_int(const std::string& value, const std::string& key) {
  try {
    std::size_t consumed = 0;
    const std::int64_t parsed = std::stoll(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("FaultPlan: " + key +
                                " expects an integer, got '" + value + "'");
  }
}

}  // namespace

bool FaultPlan::active() const noexcept {
  return no_show_rate > 0.0 || score_drop_rate > 0.0 ||
         score_corrupt_rate > 0.0 || churn_rate > 0.0;
}

void FaultPlan::validate() const {
  check_rate(no_show_rate, "no-show");
  check_rate(score_drop_rate, "drop");
  check_rate(score_corrupt_rate, "corrupt");
  check_rate(churn_rate, "churn");
  if (churn_min_absence < 1 || churn_max_absence < churn_min_absence) {
    throw std::invalid_argument(
        "FaultPlan: need 1 <= churn-min <= churn-max");
  }
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::istringstream in(spec);
  std::string entry;
  while (std::getline(in, entry, ',')) {
    if (entry.empty()) continue;
    const auto equals = entry.find('=');
    if (equals == std::string::npos) {
      throw std::invalid_argument("FaultPlan: expected key=value, got '" +
                                  entry + "'");
    }
    const std::string key = entry.substr(0, equals);
    const std::string value = entry.substr(equals + 1);
    if (key == "no-show") {
      plan.no_show_rate = parse_rate(value, key);
    } else if (key == "drop") {
      plan.score_drop_rate = parse_rate(value, key);
    } else if (key == "corrupt") {
      plan.score_corrupt_rate = parse_rate(value, key);
    } else if (key == "churn") {
      plan.churn_rate = parse_rate(value, key);
    } else if (key == "churn-min") {
      plan.churn_min_absence = static_cast<int>(parse_int(value, key));
    } else if (key == "churn-max") {
      plan.churn_max_absence = static_cast<int>(parse_int(value, key));
    } else if (key == "salt") {
      plan.salt = static_cast<std::uint64_t>(parse_int(value, key));
    } else {
      throw std::invalid_argument("FaultPlan: unknown key '" + key + "'");
    }
  }
  plan.validate();
  return plan;
}

std::string FaultPlan::describe() const {
  // Rates through the JSON number writer: 17 significant digits, so
  // parse(describe()) round-trips every rate exactly.
  std::string out = "no-show=";
  util::json::write_number(out, no_show_rate);
  out += ",drop=";
  util::json::write_number(out, score_drop_rate);
  out += ",corrupt=";
  util::json::write_number(out, score_corrupt_rate);
  out += ",churn=";
  util::json::write_number(out, churn_rate);
  out += ",churn-min=" + std::to_string(churn_min_absence) +
         ",churn-max=" + std::to_string(churn_max_absence) +
         ",salt=" + std::to_string(static_cast<std::int64_t>(salt));
  return out;
}

Absence absence_for(const FaultPlan& plan, std::uint64_t master_seed,
                    auction::WorkerId worker, int run, int horizon) {
  if (!plan.active()) return Absence::kPresent;
  const std::uint64_t root = fault_master(plan, master_seed);
  const auto worker_stream = static_cast<std::uint64_t>(worker);
  if (plan.churn_rate > 0.0) {
    // The churn window is a pure per-worker function (substream 0), so the
    // same worker departs over the same runs regardless of when or where
    // the question is asked.
    util::Rng churn(util::derive_stream(root, worker_stream, 0));
    if (churn.bernoulli(plan.churn_rate)) {
      const int start =
          static_cast<int>(churn.uniform_int(1, std::max(1, horizon)));
      const int duration = static_cast<int>(churn.uniform_int(
          plan.churn_min_absence, plan.churn_max_absence));
      if (run >= start && run < start + duration) return Absence::kChurned;
    }
  }
  if (plan.no_show_rate > 0.0) {
    util::Rng absence(util::derive_stream(
        root, worker_stream, 2 * static_cast<std::uint64_t>(run)));
    if (absence.bernoulli(plan.no_show_rate)) return Absence::kNoShow;
  }
  return Absence::kPresent;
}

lds::ScoreSet generate_faulted_scores(const FaultPlan& plan,
                                      const ScoreModel& model,
                                      double latent_quality, int task_count,
                                      util::Rng& score_stream,
                                      std::uint64_t master_seed,
                                      auction::WorkerId worker, int run,
                                      ScoreFaultCounts& counts) {
  if (plan.score_drop_rate <= 0.0 && plan.score_corrupt_rate <= 0.0) {
    return generate_scores(model, latent_quality, task_count, score_stream);
  }
  util::Rng faults(util::derive_stream(
      fault_master(plan, master_seed), static_cast<std::uint64_t>(worker),
      2 * static_cast<std::uint64_t>(run) + 1));
  lds::ScoreSet scores;
  for (int t = 0; t < task_count; ++t) {
    double score = generate_score(model, latent_quality, score_stream);
    if (faults.bernoulli(plan.score_drop_rate)) {
      ++counts.dropped;
      continue;
    }
    if (faults.bernoulli(plan.score_corrupt_rate)) {
      score = faults.bernoulli(0.5) ? model.min_score : model.max_score;
      ++counts.corrupted;
    }
    scores.add(score);
  }
  return scores;
}

}  // namespace melody::sim
