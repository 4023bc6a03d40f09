#include "svc/shard.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/rng.h"

namespace melody::svc {

namespace {

// Size of slice `s` of a contiguous_split.
int slice(const std::vector<int>& posts, int s) {
  const auto i = static_cast<std::size_t>(s);
  return posts[i + 1] - posts[i];
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

std::vector<int> contiguous_split(const int total, const int parts) {
  if (total < 1 || parts < 1) {
    throw std::invalid_argument("svc: a split needs total and parts >= 1");
  }
  std::vector<int> posts;
  posts.reserve(static_cast<std::size_t>(parts) + 1);
  const int base = total / parts;
  const int extra = total % parts;
  for (int s = 0; s <= parts; ++s) {
    posts.push_back(s * base + std::min(s, extra));
  }
  return posts;
}

std::vector<ShardPlan> plan_shards(const ServiceConfig& config) {
  config.validate();
  const int k = config.shards;
  const int total_workers = config.scenario.num_workers;
  const std::vector<int> worker_posts = contiguous_split(total_workers, k);
  const std::vector<int> task_posts =
      contiguous_split(config.scenario.num_tasks, k);
  std::vector<ShardPlan> plans;
  plans.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    ShardPlan plan;
    plan.index = s;
    plan.worker_offset = worker_posts[static_cast<std::size_t>(s)];
    plan.config = config;
    plan.config.shards = 1;
    plan.config.worker_name_offset = plan.worker_offset;
    // Checkpoint files and their cadence belong to the router alone.
    plan.config.checkpoint_path.clear();
    plan.config.checkpoint_every = 0;
    if (k > 1) {
      // Shard-local metrics register under their own namespace so the
      // trace_status / stats merges can report per-shard views.
      plan.config.obs_prefix = "shard" + std::to_string(s) + "/";
      const int shard_workers = slice(worker_posts, s);
      const double share = static_cast<double>(shard_workers) /
                           static_cast<double>(total_workers);
      plan.config.scenario.num_workers = shard_workers;
      plan.config.scenario.num_tasks = slice(task_posts, s);
      plan.config.scenario.budget = config.scenario.budget * share;
      plan.config.seed =
          util::derive_stream(config.seed, kShardSeedSalt,
                              static_cast<std::uint64_t>(s));
      if (config.batch.min_bids > 0) {
        const int part = slice(contiguous_split(config.batch.min_bids, k), s);
        plan.config.batch.min_bids = part < 1 ? 1 : part;
      }
      if (config.batch.budget_target > 0.0) {
        plan.config.batch.budget_target = config.batch.budget_target * share;
      }
    }
    plans.push_back(std::move(plan));
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
    step(timeout, std::numeric_limits<std::size_t>::max(), &epoch);
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
                         const std::size_t max,
                         const std::chrono::steady_clock::time_point* epoch) {
  const std::size_t popped = queue_.pop_batch_for(timeout, max, batch_);
  if (popped == 0) {
    if (epoch != nullptr) feed_clock(service_, *epoch);
    service_.poll_batches();
    return false;
  }
  // The batch leaves the buffer and gives its queue slots back however the
  // step ends: a task that throws must not leave envelopes to run again.
  struct Release {
    PlatformShard& shard;
    std::size_t count;
    ~Release() {
      shard.batch_.clear();
      shard.queue_.release(count);
    }
  } release{*this, popped};
  const std::size_t queued = queue_.size();
  for (std::size_t i = 0; i < popped; ++i) {
    Envelope& envelope = batch_[i];
    if (epoch != nullptr) feed_clock(service_, *epoch);
    service_.note_queue_depth(queued + popped - 1 - i);
    if (envelope.task) {
      envelope.task(service_);
      continue;
    }
    // Install the frame's root context for the apply; free when inactive.
    obs::ScopedTraceContext install(envelope.trace);
    const Response response = service_.apply(envelope.request);
    if (envelope.done) envelope.done(response);
  }
  return true;
}

}  // namespace melody::svc
