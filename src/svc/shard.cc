#include "svc/shard.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/rng.h"

namespace melody::svc {

namespace {

// Contiguous proportional split of `total` across K shards: the first
// total%K shards take one extra unit. Used for workers, tasks, and any
// explicit min_bids trigger so every split telescopes exactly.
int slice_size(int total, int shards, int index) {
  return total / shards + (index < total % shards ? 1 : 0);
}

}  // namespace

std::vector<ShardPlan> plan_shards(const ServiceConfig& config) {
  config.validate();
  const int k = config.shards;
  std::vector<ShardPlan> plans;
  plans.reserve(static_cast<std::size_t>(k));
  const int total_workers = config.scenario.num_workers;
  int worker_offset = 0;
  for (int s = 0; s < k; ++s) {
    ShardPlan plan;
    plan.index = s;
    plan.worker_offset = worker_offset;
    plan.config = config;
    plan.config.shards = 1;
    plan.config.worker_name_offset = worker_offset;
    // Checkpoint files and their cadence belong to the router alone.
    plan.config.checkpoint_path.clear();
    plan.config.checkpoint_every = 0;
    if (k > 1) {
      // Shard-local metrics register under their own namespace so the
      // trace_status / stats merges can report per-shard views.
      plan.config.obs_prefix = "shard" + std::to_string(s) + "/";
      const int shard_workers = slice_size(total_workers, k, s);
      const double share = static_cast<double>(shard_workers) /
                           static_cast<double>(total_workers);
      plan.config.scenario.num_workers = shard_workers;
      plan.config.scenario.num_tasks =
          slice_size(config.scenario.num_tasks, k, s);
      plan.config.scenario.budget = config.scenario.budget * share;
      plan.config.seed =
          util::derive_stream(config.seed, kShardSeedSalt,
                              static_cast<std::uint64_t>(s));
      if (config.batch.min_bids > 0) {
        const int part = slice_size(config.batch.min_bids, k, s);
        plan.config.batch.min_bids = part < 1 ? 1 : part;
      }
      if (config.batch.budget_target > 0.0) {
        plan.config.batch.budget_target = config.batch.budget_target * share;
      }
    }
    worker_offset += plan.config.scenario.num_workers;
    plans.push_back(std::move(plan));
  }
  if (worker_offset != total_workers) {
    throw std::logic_error("svc: shard plan does not cover the population");
  }
  return plans;
}

PlatformShard::PlatformShard(const ShardPlan& plan)
    : index_(plan.index),
      worker_offset_(plan.worker_offset),
      service_(plan.config),
      loop_(service_, static_cast<std::size_t>(plan.config.queue_capacity)) {}

PlatformShard::~PlatformShard() {
  loop_.close();
  join();
}

PushResult PlatformShard::submit(Request request,
                                 std::function<void(const Response&)> done,
                                 const obs::TraceContext& trace) {
  const PushResult result =
      loop_.try_submit(std::move(request), std::move(done), trace);
  if (obs::enabled()) {
    const std::string& prefix = service_.config().obs_prefix;
    if (result == PushResult::kOk) {
      if (requests_ == nullptr) {
        requests_ = &obs::registry().counter(prefix + "svc/routed");
      }
      requests_->add();
    } else {
      if (rejects_ == nullptr) {
        rejects_ = &obs::registry().counter(prefix + "svc/routed_rejects");
      }
      rejects_->add();
    }
  }
  return result;
}

PushResult PlatformShard::submit_task(
    std::function<void(AuctionService&)> task) {
  return loop_.submit_task(std::move(task));
}

void PlatformShard::set_run_sink(
    std::function<void(int, const sim::RunRecord&)> sink) {
  // The service already counts runs under obs_prefix + "svc/runs"; the
  // sink hook only forwards to the router's cross-shard aggregation.
  service_.set_run_hook(
      [this, sink = std::move(sink)](const sim::RunRecord& record) {
        if (sink) sink(index_, record);
      });
}

void PlatformShard::start() {
  if (started_) return;
  started_ = true;
  thread_ = std::thread([this] { loop_.run(); });
}

void PlatformShard::join() {
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

}  // namespace melody::svc
