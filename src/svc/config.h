// ServiceConfig: the single aggregate every service-shaped thing in the
// repo is built from — melody_serve, the sharded router, the perf suite's
// service benches, and the svc test fixtures. One validated struct replaces
// the positional/setter construction that used to be duplicated (and to
// drift) across those call sites; ServiceConfig::from_flags parses the
// shared scenario/estimator/batching/sharding flag set so melody_serve and
// melody_sim document and validate the same knobs the same way, and
// ServiceConfig::to_flags writes it back out (the MLDYTRC trace header, the
// argv melody_cluster spawns its members with).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "auction/melody_auction.h"
#include "estimators/factory.h"
#include "sim/fault.h"
#include "sim/scenario.h"
#include "svc/batcher.h"

namespace melody::util {
class Flags;
}

namespace melody::svc {

struct ServiceConfig {
  sim::LongTermScenario scenario;
  std::string estimator = "melody";
  double exploration_beta = 0.0;
  auction::PaymentRule payment_rule = auction::PaymentRule::kCriticalValue;
  std::uint64_t seed = 2017;
  /// Batch triggers; an inactive policy defaults to
  /// min_bids = scenario.num_workers (a run per full participation round).
  BatchPolicy batch;
  sim::FaultPlan faults;
  /// Checkpoint file of a ShardedService deployment; empty disables
  /// automatic and shutdown checkpoints (explicit checkpoint requests with
  /// a path still work). A standalone AuctionService writes no files and
  /// ignores both checkpoint fields.
  std::string checkpoint_path;
  /// Also checkpoint after every N-th run (0: only on shutdown/request).
  int checkpoint_every = 0;
  /// Logical clock driven by tick requests instead of the event loop's
  /// wall clock — deterministic traces (tests, --stdin replays).
  bool manual_clock = false;
  /// Request shutdown automatically once this many runs have executed in
  /// this session (0: never). Lets demos and CI pipelines terminate.
  int exit_after_runs = 0;
  /// Platform shards the worker population splits across (svc/shard.h).
  /// K=1 is the plain single-platform service, bit-identical to PR 4.
  int shards = 1;
  /// Bounded request queue capacity per shard; a full queue rejects with
  /// retry_after_ms (explicit backpressure, never an unbounded buffer).
  std::int64_t queue_capacity = 128;
  /// External names of the scenario population are "w<offset + id>". The
  /// shard planner sets this so shard s's local dense ids map onto the
  /// global name space; standalone services keep 0.
  int worker_name_offset = 0;
  /// Prefix for this service's obs metric names ("shard<k>/" set by the
  /// shard planner at K>1, empty otherwise). K=1 keeps the historical
  /// un-prefixed names — "svc/requests", "svc/request_time" — so
  /// single-shard metric output is unchanged.
  std::string obs_prefix;

  /// The estimator factory input equivalent to this config (scenario
  /// posterior/period plus the exploration weight).
  estimators::MakeParams estimator_params() const {
    return {.initial_mu = scenario.initial_mu,
            .initial_sigma = scenario.initial_sigma,
            .reestimation_period = scenario.reestimation_period,
            .exploration_beta = exploration_beta};
  }

  /// Throws std::invalid_argument on an unusable config (non-positive
  /// scenario sizes, unknown estimator, bad cadence/shard/queue values).
  void validate() const;

  /// Parse the shared flag set (scenario, estimator, payment rule, seed,
  /// faults, checkpointing; plus the serve-only batching/sharding/clock
  /// flags unless `serve_flags` is false — melody_sim shares the scenario
  /// half without advertising knobs that only exist online). Registers
  /// every flag for --help generation; throws std::invalid_argument on a
  /// bad value. Callers still run validate() after their own adjustments.
  static ServiceConfig from_flags(const util::Flags& flags,
                                  bool serve_flags = true);

  /// The inverse of from_flags: "--name=value" for every flag-settable
  /// field, in --help order, defaults included. Doubles carry 17
  /// significant digits, switches are "true"/"false", an empty fault plan
  /// is "". For a config that passes validate(), from_flags over this
  /// argv rebuilds every flag-settable field exactly; the other fields keep
  /// their defaults.
  std::vector<std::string> to_flags() const;
};

}  // namespace melody::svc
