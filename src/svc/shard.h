// Shard planning + the per-shard runtime unit of the sharded service.
//
// A K-shard deployment splits the scenario population into K contiguous,
// independent sub-markets: shard s owns workers [offset_s, offset_{s+1}),
// its proportional slice of the per-run task load and budget, its own
// AuctionService, and the bounded request queue plus single consumer in
// front of it (the consumer runs on its own thread in threaded
// deployments, or is polled in place). Shards never share mutable state —
// cross-shard aggregation happens in svc/router.h over immutable run
// records and composed checkpoints.
//
// Determinism contract: plan_shards(config)[s].config is exactly the
// ServiceConfig a standalone single-platform service would run for that
// sub-market, so a shard's trajectory is bit-identical to the standalone
// service built from the same plan. At K=1 the plan keeps the global seed
// untouched and the sharded runtime reproduces the plain AuctionService
// bit for bit.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "svc/config.h"
#include "svc/protocol.h"
#include "svc/queue.h"
#include "svc/service.h"

namespace melody::obs {
class Counter;
}

namespace melody::svc {

/// Salt for per-shard master seeds at K>1: shard s of a K-shard deployment
/// runs on util::derive_stream(seed, kShardSeedSalt, s). K=1 keeps the
/// global seed untouched (bit-identity with the unsharded service).
inline constexpr std::uint64_t kShardSeedSalt = 0x5348'4152'444D'4B59ull;

/// One shard's slice of the deployment: its index, the first global worker
/// name index it owns, and the standalone-equivalent per-shard config.
struct ShardPlan {
  int index = 0;
  int worker_offset = 0;
  ServiceConfig config;
};

/// Contiguous split of `total` units into `parts` slices, the first
/// total%parts slices taking one extra: the parts + 1 fence posts, slice s
/// being [posts[s], posts[s+1]). plan_shards splits workers, tasks and
/// min_bids with it, the cluster routing table takes its worker fence posts
/// from it and melody_cluster its member shard ranges. Throws
/// std::invalid_argument unless total >= 1 and parts >= 1.
std::vector<int> contiguous_split(int total, int parts);

/// Split `config` into config.shards per-shard configs: contiguous worker
/// ranges (contiguous_split), tasks split the
/// same way, budget and any explicit batch triggers scaled by worker
/// share, per-shard seeds salted at K>1. Checkpoint ownership is lifted to
/// the router, so per-shard checkpoint_path/checkpoint_every are cleared.
/// Throws std::invalid_argument (via validate) on an unusable config.
std::vector<ShardPlan> plan_shards(const ServiceConfig& config);

/// One platform shard: an AuctionService behind a bounded request queue
/// with a single consumer — the only code that touches the service. The
/// consumer is the thread start() spawns, or the caller of poll_once
/// (single-threaded drivers: the stdio session, tests). Producers call
/// try_submit from any thread; it never blocks. A full queue rejects the
/// submission at once and the caller sends the client an "overloaded"
/// response carrying retry_after_ms — backpressure is explicit on the
/// wire, never an unbounded buffer or a silent stall. Tracks router-level
/// obs counters under the plan's obs_prefix namespace ("shard<k>/svc/routed",
/// "shard<k>/svc/routed_rejects"; un-prefixed at K=1) — the service-level
/// counters live under the same prefix, so one shard's whole metric surface
/// shares one namespace.
class PlatformShard {
 public:
  explicit PlatformShard(const ShardPlan& plan);
  ~PlatformShard();

  PlatformShard(const PlatformShard&) = delete;
  PlatformShard& operator=(const PlatformShard&) = delete;

  /// Enqueue a request from any thread. kFull / kClosed mean the request
  /// was NOT accepted and `done` will never run — send `rejection(...)` to
  /// the client instead. `trace` (optional) is the frame's root trace
  /// context.
  PushResult try_submit(Request request,
                        std::function<void(const Response&)> done,
                        const obs::TraceContext& trace = {});

  /// Enqueue a request past the capacity bound (see
  /// BoundedQueue::push_force): a broadcast part whose admission the
  /// router already checked against full() on every target shard. kClosed
  /// means the shard is shutting down and `done` will never run.
  PushResult force_submit(Request request,
                          std::function<void(const Response&)> done,
                          const obs::TraceContext& trace);

  /// Enqueue a control-plane task past the capacity bound. kClosed means
  /// the shard is shutting down and the task will never run.
  PushResult submit_task(std::function<void(AuctionService&)> task);

  /// True while queue_capacity envelopes or more are queued or in the
  /// consumer's current batch: a try_submit now would be rejected as kFull.
  bool full() const { return queue_.full(); }

  /// The client-facing response for a failed submission: "overloaded" with
  /// a retry_after_ms hint sized to the queue, or a terminal "shutting
  /// down" once the queue is closed.
  Response rejection(PushResult result, const Request& request) const;

  /// Install the platform run hook: bump the per-shard run counter, then
  /// call `sink(index, record)` — the router's cross-shard aggregation.
  /// Runs on the shard's consumer thread; call before start().
  void set_run_sink(std::function<void(int, const sim::RunRecord&)> sink);

  /// Spawn the consumer thread (threaded deployments; sync drivers use
  /// poll_once instead). It feeds the service clock from a steady_clock
  /// epoch in real-clock mode and runs until shutdown is requested and the
  /// queue has drained.
  void start();
  bool started() const noexcept { return started_; }

  /// Stop accepting new requests; queued work still drains.
  void close() { queue_.close(); }

  /// Join the consumer thread if one was started. After join the service
  /// is quiescent and may be touched directly (save_state, records).
  void join();

  /// Single-threaded driving: one consumer step with no clock feed, over
  /// at most one envelope. Returns true if an envelope was processed.
  bool poll_once(std::chrono::nanoseconds timeout) {
    return step(timeout, 1, nullptr);
  }

  int index() const noexcept { return index_; }
  int worker_offset() const noexcept { return worker_offset_; }
  AuctionService& service() noexcept { return service_; }
  const AuctionService& service() const noexcept { return service_; }

 private:
  /// One queued request plus the completion callback that delivers its
  /// response. The callback runs on the consumer thread; it must be cheap
  /// and must not call back into the shard. Alternatively an envelope
  /// carries a `task` — an arbitrary closure over the service (coordinated
  /// checkpoints save shard state this way); a task envelope's
  /// request/done are unused. `trace` is the frame's root trace context
  /// (inactive when tracing is off); the consumer installs it around
  /// apply() so every span the request opens parents on the inbound frame.
  struct Envelope {
    Request request;
    std::function<void(const Response&)> done;
    std::function<void(AuctionService&)> task;
    obs::TraceContext trace;
  };

  /// The consumer thread's body: clock feed, step, shutdown checks.
  void run();

  /// The consumer step: pop up to `max` envelopes in one wait of up to
  /// `timeout`, then apply them in queue order, or fire any due batches
  /// when none came. A non-null `epoch` (the real-clock consumer) feeds the
  /// service clock before each envelope, or once after an empty wait.
  bool step(std::chrono::nanoseconds timeout, std::size_t max,
            const std::chrono::steady_clock::time_point* epoch);

  int index_;
  int worker_offset_;
  AuctionService service_;
  BoundedQueue<Envelope> queue_;
  // The batch step() works through; cleared after every step, but its
  // storage lives on so a busy consumer does not allocate per batch.
  std::vector<Envelope> batch_;
  std::thread thread_;
  bool started_ = false;
  // Lazily-resolved per-shard obs counters (null until first enabled use).
  obs::Counter* requests_ = nullptr;
  obs::Counter* rejects_ = nullptr;
};

}  // namespace melody::svc
