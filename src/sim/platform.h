// The multi-run crowdsourcing platform simulator implementing the system
// workflow of Fig. 2: auction -> task completion -> scoring -> quality
// update, repeated over runs.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "auction/mechanism.h"
#include "estimators/estimator.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "sim/worker_model.h"
#include "sim/worker_soa.h"
#include "util/rng.h"

namespace melody::sim {

/// The MLDYCKPT snapshot version Platform::save writes and load reads (see
/// snapshot.cc for the layout).
inline constexpr std::uint32_t kCheckpointVersion = 5;

/// Orchestrates one population + one mechanism + one quality estimator over
/// many runs, generating tasks and scores from ground truth and feeding the
/// estimator only what a real platform would see.
///
/// Determinism contract: bid perturbations and task sampling draw from one
/// sequential generator seeded with `seed`, while each worker's per-run
/// scores draw from the counter-based stream
/// Rng(util::derive_stream(seed, worker_id, run)). Score generation and the
/// estimator update therefore shard across util::shared_pool() with output
/// bit-identical to the serial path for any thread count.
class Platform {
 public:
  /// The mechanism and estimator are borrowed and must outlive the
  /// platform. Workers are moved into the store in the given order (slot
  /// order); all randomness derives from `seed`. Throws
  /// std::invalid_argument if an id appears twice.
  Platform(const LongTermScenario& scenario, auction::Mechanism& mechanism,
           estimators::QualityEstimator& estimator,
           std::vector<SimWorker> workers, std::uint64_t seed);

  /// Override the bidding policy of a single worker (Figs. 6-7 strategic
  /// experiments). All other workers bid truthfully.
  void set_policy(auction::WorkerId id, BidPolicy policy);

  /// Add a newcomer mid-simulation (registered with the estimator). His
  /// trajectory is advanced to the current run, as if it had been running
  /// since run 1. O(1) amortized: one store slot is appended. Throws
  /// std::invalid_argument, changing nothing, if his id already has one.
  void add_worker(SimWorker worker);

  /// The price-ladder bid book, the platform's rank cache: every step()
  /// diffs the collected bids against it, applies the deltas, and hands
  /// the mechanism a context carrying the book, so incremental mechanisms
  /// rank from the ladder instead of re-sorting (bit-identical
  /// allocation). It is derived state: snapshots do not store it, and a
  /// loaded platform starts empty and converges in its next step().
  const auction::BidBook& bid_book() const noexcept { return bid_book_; }

  /// Re-bid: replace a worker's true (cost, frequency) between runs and
  /// clear any withdrawal. Returns false for an unknown id.
  bool update_bid(auction::WorkerId id, const auction::Bid& bid);

  /// Withdraw (or reinstate) a worker: while withdrawn he submits no bids —
  /// skipped in bid collection like an absent worker, and dropped from the
  /// bid book by the next diff. Part of the deterministic platform state
  /// (every snapshot carries it). Returns false for an unknown id.
  bool set_withdrawn(auction::WorkerId id, bool withdrawn);
  bool is_withdrawn(auction::WorkerId id) const {
    return withdrawn_.contains(id);
  }

  /// Install a fault plan. Faults are generated from dedicated
  /// counter-based streams (see sim/fault.h), so a faulted simulation
  /// keeps the full determinism contract: bit-identical at any thread
  /// count and across checkpoint/resume. Replaces any previous plan;
  /// install before the affected runs (typically before the first step).
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const noexcept { return fault_plan_; }

  /// Execute one run: auction, scoring, estimator update. Returns metrics.
  /// Stage timings land in obs::registry() under "platform/*" and one
  /// "platform/run" event per run goes to obs::sink() (both no-ops unless
  /// observability is enabled/installed; neither affects the outputs).
  RunRecord step();

  /// Invoked at the end of every step() with the run's record, after all
  /// stages and obs emission — the shard-local aggregation hook sharded
  /// services use to feed cross-shard run totals without polling. The hook
  /// runs on the stepping thread, must be cheap, and must not call back
  /// into this platform. Pass an empty function to clear. Not part of a
  /// snapshot.
  void set_run_hook(std::function<void(const RunRecord&)> hook) {
    run_hook_ = std::move(hook);
  }

  /// Execute all remaining runs of the scenario.
  std::vector<RunRecord> run_all();

  /// 1-based index of the next run to execute.
  int current_run() const noexcept { return run_ + 1; }

  /// True once every scheduled run of the scenario has executed. step() may
  /// legally be called past this point (trajectories hold their last value,
  /// tasks keep being sampled) — long-running services outlive the scripted
  /// horizon — but run_all() and the batch tools stop here.
  bool finished() const noexcept { return run_ >= scenario_.runs; }

  /// The scenario this platform was constructed with (incremental drivers
  /// need the run horizon and per-run budget without carrying a copy).
  const LongTermScenario& scenario() const noexcept { return scenario_; }

  /// The master seed all per-(worker, run) streams derive from. Exposed so
  /// online drivers can mint deterministic sub-streams (e.g. newcomer
  /// trajectories) in the same key space as the simulation itself.
  std::uint64_t master_seed() const noexcept { return master_seed_; }

  /// Cumulative true utility a worker has accrued so far (Definition 1).
  /// An id the platform has never seen — unregistered, or registered but
  /// never stepped — returns 0.0: a worker who never participated earned
  /// nothing. This deliberately does NOT throw (unlike
  /// QualityEstimator::estimate, where an unknown id is a caller bug): the
  /// query is a read-only report over whatever history exists, and it
  /// never grows the utility column.
  double worker_total_utility(auction::WorkerId id) const;

  /// The allocation produced by the most recent step() (empty before).
  const auction::AllocationResult& last_result() const noexcept {
    return last_result_;
  }

  /// The worker store: every worker's id, true bid, trajectory stream and
  /// current latent quality, in slot (join) order.
  const WorkerStateSoA& worker_state() const noexcept { return soa_; }

  /// Persist the complete platform state as a versioned binary snapshot
  /// (magic "MLDYCKPT" + kCheckpointVersion): run index, workers (bid plus
  /// trajectory stream state — config, length, run, drift and generator,
  /// O(1) in the horizon), bid policies, cumulative utilities, the
  /// sequential RNG position, the fault plan, the estimator state via
  /// QualityEstimator::save_to, and the withdrawn set. Resuming from a
  /// snapshot is bit-identical to never having stopped, at any thread
  /// count. The scenario and the mechanism are NOT saved: construct the
  /// new platform with the same scenario and a stateless mechanism
  /// (MelodyAuction is; RandomAuction's internal RNG position is not
  /// restored) plus a same-config estimator before load(). Neither are the
  /// bid book (a loaded platform starts with an empty one) and the
  /// last_result() of the interrupted step: the next step() re-establishes
  /// both.
  /// Both throw std::runtime_error on I/O failure or malformed input,
  /// which includes two workers with one id. The stream save is a boundary
  /// adapter over the Writer one (see util/binio.h).
  void save(util::binio::Writer& out) const;
  void save(std::ostream& out) const;
  void load(util::binio::Reader& in);

 private:
  LongTermScenario scenario_;
  auction::Mechanism& mechanism_;
  estimators::QualityEstimator& estimator_;
  /// The one owner of per-worker ground truth (see worker_state()); the
  /// snapshot writes it column by column in slot order.
  WorkerStateSoA soa_;
  std::unordered_map<auction::WorkerId, BidPolicy> policies_;
  /// Cumulative true utility per store slot, for the leading slots a step
  /// has credited: its size is that count. Slots are append-only and each
  /// step credits every slot, so the credited workers are always a prefix
  /// of slot order; a newcomer who joined after the last step lies past it.
  std::vector<double> total_utility_;
  auction::AllocationResult last_result_;
  util::Rng rng_;
  std::uint64_t master_seed_ = 0;
  int run_ = 0;
  FaultPlan fault_plan_;
  /// The rank cache (see bid_book()); delta_scratch_ is the per-step diff
  /// reused across runs.
  auction::BidBook bid_book_;
  std::unordered_set<auction::WorkerId> withdrawn_;
  std::vector<auction::BidDelta> delta_scratch_;
  std::function<void(const RunRecord&)> run_hook_;
  // Per-step scratch reused across runs (step() is single-entry, so plain
  // members are safe): per-slot assignment counts and true utilities.
  std::vector<int> assigned_scratch_;
  std::vector<double> utility_scratch_;
};

/// Crash-safe checkpoint files through util::write_file_atomically: a
/// failed or interrupted save never destroys the previous checkpoint.
/// load_checkpoint restores a platform from such a file. Both throw
/// std::runtime_error on I/O failure.
void save_checkpoint(const Platform& platform, const std::string& path);
void load_checkpoint(Platform& platform, const std::string& path);

}  // namespace melody::sim
