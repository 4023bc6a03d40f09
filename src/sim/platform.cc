#include "sim/platform.h"

#include <cmath>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "sim/score_gen.h"
#include "util/parallel_for.h"

namespace melody::sim {

Platform::Platform(const LongTermScenario& scenario,
                   auction::Mechanism& mechanism,
                   estimators::QualityEstimator& estimator,
                   std::vector<SimWorker> workers, std::uint64_t seed)
    : scenario_(scenario),
      mechanism_(mechanism),
      estimator_(estimator),
      rng_(seed),
      master_seed_(seed) {
  soa_.reserve(workers.size());
  for (SimWorker& w : workers) soa_.append(std::move(w));
  for (const auction::WorkerId id : soa_.ids()) estimator_.register_worker(id);
}

void Platform::set_policy(auction::WorkerId id, BidPolicy policy) {
  policies_[id] = policy;
}

void Platform::add_worker(SimWorker worker) {
  const auction::WorkerId id = worker.id();
  // q^r is indexed by absolute run: a newcomer's trajectory has been
  // running since run 1, so it joins at the platform's current run.
  worker.advance_to(run_);
  soa_.append(std::move(worker));
  estimator_.register_worker(id);
}

void Platform::set_fault_plan(FaultPlan plan) {
  plan.validate();
  fault_plan_ = plan;
}

bool Platform::update_bid(auction::WorkerId id, const auction::Bid& bid) {
  if (!soa_.contains(id)) return false;
  soa_.set_bid(soa_.slot_of(id), bid);
  withdrawn_.erase(id);
  return true;
}

bool Platform::set_withdrawn(auction::WorkerId id, bool withdrawn) {
  if (!soa_.contains(id)) return false;
  if (withdrawn) {
    withdrawn_.insert(id);
  } else {
    withdrawn_.erase(id);
  }
  return true;
}

RunRecord Platform::step() {
  ++run_;
  RunRecord record;
  record.run = run_;

  const auction::AuctionConfig config = scenario_.auction_config();
  const bool faults_active = fault_plan_.active();
  obs::ScopedTimer step_timer(obs::timer_if_enabled("platform/step"));
  // Nests under the serve path's svc/run span when this step executes a
  // traced request's batch; inert in batch tools and untraced serving.
  obs::ScopedSpan step_span("platform/step");
  step_span.annotate("run", run_);

  // 0) Fault layer, part one: absence decisions. Each worker's absence is a
  //    pure function of (seed, plan, worker, run), so this stage is
  //    deterministic regardless of when the plan was installed or resumed.
  //    `present[i]` parallels slot i; an absent worker submits no bid,
  //    wins nothing, and is scored as an empty set (the estimator's
  //    missing-observation path).
  const std::size_t n = soa_.size();
  const std::vector<auction::WorkerId>& worker_ids = soa_.ids();
  std::vector<char> present(n, 1);
  if (faults_active) {
    for (std::size_t i = 0; i < n; ++i) {
      switch (absence_for(fault_plan_, master_seed_, worker_ids[i], run_,
                          scenario_.runs)) {
        case Absence::kPresent:
          break;
        case Absence::kNoShow:
          present[i] = 0;
          ++record.no_shows;
          break;
        case Absence::kChurned:
          present[i] = 0;
          ++record.churned_out;
          break;
      }
    }
  }

  // 1) Collect bids and the platform's quality estimates from the workers
  //    who showed up. `bidder_slots[k]` is the slot behind profiles[k].
  std::vector<auction::WorkerProfile> profiles;
  std::vector<std::size_t> bidder_slots;
  {
    obs::ScopedTimer timer(obs::timer_if_enabled("platform/bid_collection"));
    profiles.reserve(n);
    bidder_slots.reserve(n);
    const std::vector<double>& costs = soa_.costs();
    const std::vector<int>& frequencies = soa_.frequencies();
    for (std::size_t i = 0; i < n; ++i) {
      if (!present[i]) continue;
      if (!withdrawn_.empty() && withdrawn_.contains(worker_ids[i])) continue;
      auction::WorkerProfile p;
      p.id = worker_ids[i];
      const auto policy = policies_.find(p.id);
      const auction::Bid true_bid{costs[i], frequencies[i]};
      p.bid = policy == policies_.end()
                  ? true_bid
                  : submitted_bid(true_bid, policy->second, rng_);
      p.estimated_quality = estimator_.estimate(p.id);
      profiles.push_back(p);
      bidder_slots.push_back(i);
    }
  }

  // 2) Publish this run's tasks and run the reverse auction through the
  //    context entry point, forwarding the process-wide event sink plus
  //    this run's provenance (run index, active fault plan).
  const std::vector<auction::Task> tasks = scenario_.sample_tasks(rng_);
  {
    obs::ScopedTimer timer(obs::timer_if_enabled("platform/auction"));
    auction::AuctionContext context{profiles, tasks, config, obs::sink(),
                                    run_,
                                    faults_active ? &fault_plan_ : nullptr};
    context.trace = obs::current_trace();
    // Fold this run's bid changes into the ladder and hand the mechanism
    // the book (already current) plus the delta provenance.
    bid_book_.diff(profiles, delta_scratch_);
    bid_book_.apply(delta_scratch_);
    context.book = &bid_book_;
    context.deltas = delta_scratch_;
    last_result_ = mechanism_.run(context);
  }
  record.estimated_utility = last_result_.requester_utility();
  record.total_payment = last_result_.total_payment();
  record.assignments = last_result_.assignments.size();

  // 3) Ground-truth bookkeeping: true utility and estimation error. Every
  //    worker's latent quality first steps to this run; nothing before this
  //    point reads it.
  soa_.advance_to(run_);
  assigned_scratch_.assign(n, 0);
  {
    obs::ScopedTimer timer(obs::timer_if_enabled("platform/bookkeeping"));
    std::unordered_map<auction::TaskId, double> latent_received;
    for (const auto& a : last_result_.assignments) {
      const std::size_t slot = soa_.slot_of(a.worker);
      latent_received[a.task] += soa_.latent_quality(slot);
      ++assigned_scratch_[slot];
    }
    for (const auto& t : tasks) {
      const auto it = latent_received.find(t.id);
      if (it != latent_received.end() && it->second >= t.quality_threshold) {
        ++record.true_utility;
      }
    }
    double error_sum = 0.0;
    std::size_t qualified = 0;
    for (std::size_t k = 0; k < profiles.size(); ++k) {
      if (!config.qualifies(profiles[k])) continue;
      ++qualified;
      error_sum += std::abs(soa_.latent_quality(bidder_slots[k]) -
                            profiles[k].estimated_quality);
    }
    record.qualified_workers = qualified;
    record.estimation_error = qualified > 0 ? error_sum / qualified : 0.0;
  }

  // 4) Workers complete tasks, the requester scores the answers, and the
  //    estimator digests the scores (empty sets for idle or absent
  //    workers). Each worker's scores come from his own (worker, run)
  //    stream — and fault decisions from a separate per-(worker, run)
  //    fault stream — so this stage shards across the pool without
  //    changing a single bit of output relative to the serial loop.
  std::vector<auction::WorkerId> ids(n);
  std::vector<lds::ScoreSet> scores(n);
  std::vector<ScoreFaultCounts> fault_counts(faults_active ? n : 0);
  {
    obs::ScopedTimer timer(obs::timer_if_enabled("platform/score_gen"));
    util::parallel_for(
        util::shared_pool(), n,
        [&](std::size_t i) {
          const auction::WorkerId id = worker_ids[i];
          const int count = assigned_scratch_[i];
          const double latent = soa_.latent_quality(i);
          util::Rng stream(util::derive_stream(
              master_seed_, static_cast<std::uint64_t>(id),
              static_cast<std::uint64_t>(run_)));
          ids[i] = id;
          scores[i] = faults_active
                          ? generate_faulted_scores(
                                fault_plan_, scenario_.score_model, latent,
                                count, stream, master_seed_, id, run_,
                                fault_counts[i])
                          : generate_scores(scenario_.score_model, latent,
                                            count, stream);
        },
        /*min_grain=*/64);
  }
  {
    obs::ScopedTimer timer(obs::timer_if_enabled("platform/estimator_update"));
    estimator_.observe_run(ids, scores);
  }
  soa_.utilities(last_result_, utility_scratch_);
  total_utility_.resize(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) total_utility_[i] += utility_scratch_[i];

  // Fault tallies: reduced on the main thread (deterministic order) and
  // mirrored into the registry so long-running deployments can watch
  // degradation rates without parsing per-run records.
  if (faults_active) {
    for (const ScoreFaultCounts& c : fault_counts) {
      record.scores_dropped += static_cast<std::size_t>(c.dropped);
      record.scores_corrupted += static_cast<std::size_t>(c.corrupted);
    }
    if (obs::enabled()) {
      static obs::Counter& no_shows =
          obs::registry().counter("faults/no_shows");
      static obs::Counter& churned =
          obs::registry().counter("faults/churned_out");
      static obs::Counter& dropped =
          obs::registry().counter("faults/scores_dropped");
      static obs::Counter& corrupted =
          obs::registry().counter("faults/scores_corrupted");
      no_shows.add(record.no_shows);
      churned.add(record.churned_out);
      dropped.add(record.scores_dropped);
      corrupted.add(record.scores_corrupted);
    }
  }

  // Per-run structured event: emitted from the main thread, after every
  // stage, so the stream order is deterministic at any thread count.
  obs::emit("platform/run",
            {{"run", record.run},
             {"estimated_utility", record.estimated_utility},
             {"true_utility", record.true_utility},
             {"estimation_error", record.estimation_error},
             {"total_payment", record.total_payment},
             {"assignments", record.assignments},
             {"qualified_workers", record.qualified_workers}});
  if (faults_active) {
    obs::emit("platform/faults",
              {{"run", record.run},
               {"no_shows", record.no_shows},
               {"churned_out", record.churned_out},
               {"scores_dropped", record.scores_dropped},
               {"scores_corrupted", record.scores_corrupted}});
  }
  if (run_hook_) run_hook_(record);
  return record;
}

std::vector<RunRecord> Platform::run_all() {
  std::vector<RunRecord> records;
  records.reserve(static_cast<std::size_t>(scenario_.runs));
  while (run_ < scenario_.runs) records.push_back(step());
  return records;
}

double Platform::worker_total_utility(auction::WorkerId id) const {
  if (!soa_.contains(id)) return 0.0;
  const std::size_t slot = soa_.slot_of(id);
  return slot < total_utility_.size() ? total_utility_[slot] : 0.0;
}

}  // namespace melody::sim
