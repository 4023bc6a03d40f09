#include "core/melody.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <sstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "obs/sink.h"

namespace melody::core {

Melody::Melody(MelodyOptions options)
    : options_(std::move(options)), tracker_(options_.tracker) {}

void Melody::register_worker(auction::WorkerId id) {
  if (is_registered(id)) return;
  tracker_.register_worker(id);
  registered_.push_back(id);
}

bool Melody::is_registered(auction::WorkerId id) const {
  return std::find(registered_.begin(), registered_.end(), id) !=
         registered_.end();
}

double Melody::estimated_quality(auction::WorkerId id) const {
  return tracker_.estimate(id);
}

auction::AllocationResult Melody::run_auction(
    const std::vector<BidSubmission>& bids,
    const std::vector<auction::Task>& tasks, double budget) {
  auction::AuctionConfig config;
  config.budget = budget;
  config.theta_min = options_.theta_min;
  config.theta_max = options_.theta_max;
  config.cost_min = options_.cost_min;
  config.cost_max = options_.cost_max;

  // One bid per worker per run: a second bid would let the worker win a
  // task twice and be priced off its own other bid.
  std::unordered_set<auction::WorkerId> bidders;
  for (const BidSubmission& b : bids) {
    if (!bidders.insert(b.worker).second) {
      throw std::invalid_argument("run_auction: worker " +
                                  std::to_string(b.worker) + " bids twice");
    }
  }
  std::vector<auction::WorkerProfile> profiles;
  profiles.reserve(bids.size());
  for (const BidSubmission& b : bids) {
    register_worker(b.worker);
    profiles.push_back({b.worker, b.bid, tracker_.estimate(b.worker)});
  }
  // Context entry point with the process-wide sink, so facade users get
  // auction events without plumbing a sink through MelodyOptions.
  return auction_.run(
      auction::AuctionContext{profiles, tasks, config, obs::sink()});
}

void Melody::submit_scores(auction::WorkerId id, const lds::ScoreSet& scores) {
  if (!is_registered(id)) {
    throw std::invalid_argument("submit_scores: unregistered worker");
  }
  lds::ScoreSet& pending = pending_scores_[id];
  const lds::ScoreSet total{pending.count + scores.count,
                            pending.sum + scores.sum,
                            pending.sum_squares + scores.sum_squares};
  // The tracker would store such a set, and its snapshot would not load.
  if (scores.count < 0 || !std::isfinite(total.sum) ||
      !std::isfinite(total.sum_squares)) {
    throw std::invalid_argument(
        "submit_scores: negative count or non-finite score sums");
  }
  pending = total;
}

int Melody::end_run() {
  // One observe_run over the whole registry, so workers that come due for
  // EM together refit in shared lanes.
  std::vector<lds::ScoreSet> scores(registered_.size());
  for (std::size_t i = 0; i < registered_.size(); ++i) {
    const auto it = pending_scores_.find(registered_[i]);
    if (it != pending_scores_.end()) scores[i] = it->second;
  }
  tracker_.observe_run(registered_, scores);
  pending_scores_.clear();
  return ++completed_runs_;
}

namespace {
constexpr char kPlatformHeader[] = "MELODY_PLATFORM v1";
}

void Melody::save(std::ostream& out) const {
  if (!pending_scores_.empty()) {
    throw std::runtime_error(
        "Melody::save: scores pending in an open run; call end_run() first");
  }
  out << kPlatformHeader << '\n'
      << completed_runs_ << ' ' << registered_.size() << '\n';
  for (auction::WorkerId id : registered_) out << id << ' ';
  out << '\n';
  tracker_.save(out);
  if (!out) throw std::runtime_error("Melody::save: write failed");
}

void Melody::load(std::istream& in) {
  std::string header;
  std::getline(in, header);
  if (header != kPlatformHeader) {
    throw std::runtime_error("Melody::load: bad snapshot header");
  }
  int completed = 0;
  std::size_t registered_count = 0;
  if (!(in >> completed >> registered_count) || completed < 0) {
    throw std::runtime_error("Melody::load: malformed counters");
  }
  in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  std::string registry_line;
  std::getline(in, registry_line);
  std::istringstream registry(registry_line);
  std::vector<auction::WorkerId> registered(registered_count);
  for (auction::WorkerId& id : registered) {
    if (!(registry >> id)) {
      throw std::runtime_error("Melody::load: truncated worker registry");
    }
  }
  tracker_.load(in);
  registered_ = std::move(registered);
  completed_runs_ = completed;
  pending_scores_.clear();
}

}  // namespace melody::core
