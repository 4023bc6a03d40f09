// Public facade of the MELODY library: one object that owns the Algorithm-1
// auction and the Algorithm-3 quality tracker and exposes the full
// per-run workflow of Fig. 2 to an embedding application.
//
// Typical use (see examples/quickstart.cc):
//
//   melody::core::Melody platform(options);
//   platform.register_worker(42);
//   auto outcome = platform.run_auction(bids, tasks, budget);
//   ... workers complete tasks, requester scores answers ...
//   platform.submit_scores(42, scores);
//   platform.end_run();
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "auction/melody_auction.h"
#include "auction/types.h"
#include "estimators/melody_estimator.h"

namespace melody::core {

struct MelodyOptions {
  /// Qualification intervals applied in every run (Algorithm 1, line 1).
  double theta_min = 1.0;
  double theta_max = 10.0;
  double cost_min = 0.01;
  double cost_max = 100.0;
  /// Quality-tracker configuration (initial posterior, EM period T, ...).
  estimators::MelodyEstimatorConfig tracker;
};

/// A worker's bid submission for one run.
struct BidSubmission {
  auction::WorkerId worker = -1;
  auction::Bid bid;
};

/// The long-lived MELODY platform: persists worker quality state across
/// runs; each run is one reverse auction followed by score submission.
class Melody {
 public:
  explicit Melody(MelodyOptions options = {});

  /// Introduce a worker (idempotent). Newcomers start from the preset
  /// initial posterior (Algorithm 3, lines 1-2).
  void register_worker(auction::WorkerId id);

  bool is_registered(auction::WorkerId id) const;

  /// The platform's current quality estimate mu_i for the next auction.
  double estimated_quality(auction::WorkerId id) const;

  /// Run the Algorithm-1 auction over the submitted bids. Unregistered
  /// bidders are registered on the fly (newcomers). A worker bids at most
  /// once per run: a repeated worker id throws std::invalid_argument
  /// before any bidder is registered.
  auction::AllocationResult run_auction(
      const std::vector<BidSubmission>& bids,
      const std::vector<auction::Task>& tasks, double budget);

  /// Record the scores worker `id` earned in the current run. May be called
  /// at most once per worker per run; accumulates into the pending run.
  /// Throws std::invalid_argument for a negative count, or for scores
  /// whose running sums would overflow, which no snapshot could hold.
  void submit_scores(auction::WorkerId id, const lds::ScoreSet& scores);

  /// Close the current run: every registered worker's posterior is updated
  /// (with an empty score set when no scores were submitted), advancing the
  /// quality chain by one step. Returns the number of the run just closed.
  int end_run();

  int completed_runs() const noexcept { return completed_runs_; }

  /// Access the underlying tracker (posterior/params inspection).
  const estimators::MelodyEstimator& tracker() const noexcept { return tracker_; }

  /// Snapshot format (util/binio): magic "MLDYFACD", u32 version, i32
  /// completed runs, u64 registry size, one i32 id per registered worker in
  /// registration order, then the tracker's MLDYTRKR blob, length-prefixed
  /// (version 1 was text).
  static constexpr std::string_view kSnapshotMagic = "MLDYFACD";
  static constexpr std::uint32_t kSnapshotVersion = 2;

  /// Persist the platform's learned state — run counter, worker registry,
  /// and the full tracker snapshot — so a restarted process resumes where
  /// this one stopped. Options are not saved: construct the new platform
  /// with the same MelodyOptions before load(). Scores pending in an open
  /// run are not part of a snapshot; call end_run() first.
  /// Throws std::runtime_error on I/O failure, malformed input (a registry
  /// that repeats an id or names a worker the tracker lacks included),
  /// or a snapshot taken mid-run. A load that throws leaves the platform
  /// as it was.
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  MelodyOptions options_;
  auction::MelodyAuction auction_;
  estimators::MelodyEstimator tracker_;
  std::vector<auction::WorkerId> registered_;
  std::unordered_map<auction::WorkerId, lds::ScoreSet> pending_scores_;
  int completed_runs_ = 0;
};

}  // namespace melody::core
