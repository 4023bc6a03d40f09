#include "svc/shard.h"

#include <algorithm>
#include <optional>
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

// Poll timeout while idle: short enough that shutdown and real-clock
// deadline checks stay responsive, long enough not to spin.
constexpr std::chrono::milliseconds kIdleTick{50};

void feed_clock(AuctionService& service,
                std::chrono::steady_clock::time_point epoch) {
  service.advance_clock(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
          .count());
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
      queue_(static_cast<std::size_t>(plan.config.queue_capacity)) {}

PlatformShard::~PlatformShard() {
  queue_.close();
  join();
}

PushResult PlatformShard::try_submit(Request request,
                                     std::function<void(const Response&)> done,
                                     const obs::TraceContext& trace) {
  const PushResult result = queue_.try_push(
      Envelope{std::move(request), std::move(done), nullptr, trace});
  if (result != PushResult::kOk) service_.note_overload_reject();
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

PushResult PlatformShard::force_submit(
    Request request, std::function<void(const Response&)> done,
    const obs::TraceContext& trace) {
  return queue_.push_force(
      Envelope{std::move(request), std::move(done), nullptr, trace});
}

PushResult PlatformShard::submit_task(
    std::function<void(AuctionService&)> task) {
  return queue_.push_force(Envelope{Request{}, nullptr, std::move(task), {}});
}

Response PlatformShard::rejection(PushResult result,
                                  const Request& request) const {
  if (result == PushResult::kClosed) {
    return Response::failure(request.id, "shutting down");
  }
  // Retry hint proportional to the backlog: a queue of N requests at a
  // conservative ~10 ms each. Clients treat it as a floor, not a promise.
  const std::int64_t retry_ms = std::max<std::int64_t>(
      10, static_cast<std::int64_t>(queue_.capacity()) * 10);
  return Response::overloaded(request.id, retry_ms);
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
  thread_ = std::thread([this] { run(); });
}

void PlatformShard::join() {
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

void PlatformShard::run() {
  const auto epoch = std::chrono::steady_clock::now();
  for (;;) {
    feed_clock(service_, epoch);
    // Wake early for a pending deadline batch so max_delay is honored even
    // with an empty queue.
    std::chrono::nanoseconds timeout = kIdleTick;
    const double until = service_.seconds_until_deadline();
    if (until >= 0.0) {
      timeout = std::min<std::chrono::nanoseconds>(
          timeout, std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::duration<double>(std::max(until, 0.0))));
    }
    step(timeout, &epoch);
    if (service_.shutdown_requested()) {
      queue_.close();
      if (queue_.size() == 0) break;
    } else if (queue_.closed() && queue_.size() == 0) {
      // Externally closed (SIGINT path): drain finished, stop.
      service_.request_shutdown();
      break;
    }
  }
}

bool PlatformShard::step(std::chrono::nanoseconds timeout,
                         const std::chrono::steady_clock::time_point* epoch) {
  std::optional<Envelope> envelope = queue_.pop_for(timeout);
  if (epoch != nullptr) feed_clock(service_, *epoch);
  if (!envelope.has_value()) {
    service_.poll_batches();
    return false;
  }
  service_.note_queue_depth(queue_.size());
  if (envelope->task) {
    envelope->task(service_);
    return true;
  }
  // Install the frame's root context for the apply; free when inactive.
  obs::ScopedTraceContext install(envelope->trace);
  const Response response = service_.apply(envelope->request);
  if (envelope->done) envelope->done(response);
  return true;
}

}  // namespace melody::svc
