#include "core/melody.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "obs/sink.h"
#include "util/binio.h"

namespace melody::core {

namespace binio = util::binio;

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

void Melody::save(std::ostream& out) const {
  if (!pending_scores_.empty()) {
    throw std::runtime_error(
        "Melody::save: scores pending in an open run; call end_run() first");
  }
  binio::write_stream(out, "Melody::save", [this](binio::Writer& w) {
    w.write_header(kSnapshotMagic, kSnapshotVersion);
    w.write_i32(completed_runs_);
    w.write_u64(registered_.size());
    for (const auction::WorkerId id : registered_) w.write_i32(id);
    w.write_blob([this](binio::Writer& body) { tracker_.save_to(body); });
  });
}

void Melody::load(std::istream& in) {
  binio::read_stream(in, "Melody::load", [this](binio::Reader& r) {
    r.read_header(kSnapshotMagic, kSnapshotVersion);
    const std::int32_t completed = r.read_i32("Melody::load: run count");
    if (completed < 0) {
      throw std::runtime_error("Melody::load: negative run count");
    }
    const std::uint64_t count = r.read_u64("Melody::load: registry size");
    std::vector<auction::WorkerId> registered;
    r.reserve(registered, count, sizeof(std::int32_t),
              "Melody::load: registry size");
    for (std::uint64_t i = 0; i < count; ++i) {
      registered.push_back(r.read_i32("Melody::load: registry"));
    }
    binio::Reader blob(r.read_bytes("Melody::load: tracker"));
    estimators::MelodyEstimator tracker(options_.tracker);
    tracker.load_from(blob);
    // end_run observes the registry against the tracker: each id once,
    // and every id a worker the tracker holds.
    std::unordered_set<auction::WorkerId> seen;
    for (const auction::WorkerId id : registered) {
      if (!seen.insert(id).second) {
        throw std::runtime_error("Melody::load: worker " + std::to_string(id) +
                                 " registered twice");
      }
      if (!tracker.contains(id)) {
        throw std::runtime_error("Melody::load: worker " + std::to_string(id) +
                                 " unknown to the tracker");
      }
    }
    tracker_ = std::move(tracker);
    registered_ = std::move(registered);
    completed_runs_ = completed;
    pending_scores_.clear();
  });
}

}  // namespace melody::core
