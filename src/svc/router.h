// ShardedService: the request router in front of K platform shards.
//
// routing_decision is the one routing table. Single-worker ops
// (submit_bid, post_scores, query_worker) route by affinity: scenario
// names "w<g>" map to the contiguous range owner, everything else
// (newcomers, foreign names) hashes deterministically so a worker always
// lands on the same shard. query_run addresses a shard explicitly through
// the request's "shard" field. Broadcast ops (hello, submit_tasks, tick,
// run_now, stats, shutdown) put one request envelope on every shard,
// admitted all-or-nothing, and merge the K responses into one line:
// counts and budgets sum, "finished" ANDs, run cursors take the max, so a
// K-shard deployment answers with union-platform numbers. Every request is
// applied by its shard's consumer step (svc/shard.h).
//
// Checkpoints compose: the router is the only writer and reader of
// checkpoint files. It writes MLDYSVCK at kComposedCheckpointVersion — a
// header plus K length-prefixed AuctionService::save_state bodies —
// coordinated by force-pushed tasks through each shard's own queue, so
// every body is taken on its consumer thread between requests (per-shard
// consistency, no locks). Every file goes through
// util::write_file_atomically.
//
// At K=1 every path degenerates to the plain single-platform service:
// identical responses, identical trajectories, identical checkpoint
// payloads (wrapped in the composed header) — the bit-identity contract the
// shard tests pin.
//
// Cluster mode (configure_cluster) turns one instance into one member of
// a multi-process deployment: every member plans the full global-K shard
// set (identical worker_offsets and per-shard seeds everywhere), and a
// per-shard activity mask marks the shards this process currently owns.
// Inactive shards answer structured not_owner rejections carrying the
// member's routing epoch; broadcasts fan out to active shards only, and
// the merge re-homes per-shard views under their GLOBAL indices, so the
// cluster client can splice member replies back into the exact bytes a
// single-process deployment would emit. Live handoff is the shard_export /
// shard_import op pair: export detaches the shard on the submitting
// thread (nothing can land behind the snapshot) and writes the MLDYMIGR
// envelope from the shard's own consumer thread; import loads it and
// activates the shard on the target.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "svc/shard.h"

namespace melody::svc {

/// MLDYSVCK version of the composed checkpoint container (save_state).
inline constexpr std::uint32_t kComposedCheckpointVersion = 2;

class ShardedService {
 public:
  /// Plans the shards and constructs every platform eagerly; throws
  /// std::invalid_argument (via validate) on an unusable config.
  explicit ShardedService(ServiceConfig config);
  ~ShardedService();

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// Load a composed checkpoint file. Call before start(). Throws
  /// std::runtime_error on any other format or version (a plain service
  /// body included) and on a shard-count mismatch.
  void restore(const std::string& path);

  /// Spawn the K consumer threads (TCP deployments). Sync drivers (the
  /// stdio session, tests) skip this and drive poll_once instead.
  void start();
  bool started() const noexcept { return started_; }

  /// Route or broadcast one request. kFull / kClosed mean the request was
  /// NOT accepted anywhere and `done` will never run — send rejection().
  /// `done` may run on any shard's consumer thread (or inline, for
  /// requests the router answers itself). `trace` (optional) is the
  /// inbound frame's root trace context; it rides every envelope the
  /// request puts on a shard queue, so every shard-side span parents on
  /// the frame.
  PushResult submit(const Request& request,
                    std::function<void(const Response&)> done,
                    const obs::TraceContext& trace = {});

  /// Where submit() would send `request`: svc::routing_decision over this
  /// deployment's worker split. submit() routes by it and the trace
  /// recorder records it.
  int routing_decision(const Request& request) const;

  Response rejection(PushResult result, const Request& request) const;

  /// Single-threaded driving: process at most one envelope per shard.
  /// Returns true if any shard processed one.
  bool poll_once(std::chrono::nanoseconds timeout);

  /// Stop accepting new requests on every shard (SIGINT path); queued
  /// work still drains and the consumer threads then exit.
  void begin_shutdown();

  /// True once any shard (or the router itself) saw a shutdown request.
  bool shutdown_requested() const;

  /// Join the consumer threads. After join the services are quiescent.
  void join();

  /// Write the final composed checkpoint if one is configured. Requires
  /// quiescence (threads joined, or never started). Idempotent.
  void finalize();

  /// Enter cluster mode as one member of a multi-process deployment: bit s
  /// of `active_mask` marks shard s as owned by this process, `epoch` seeds
  /// the routing epoch. Must be called before any request is submitted.
  /// Throws std::invalid_argument when the deployment has more than
  /// kMaxClusterShards shards (the mask width bounds cluster deployments).
  void configure_cluster(std::uint64_t active_mask, std::int64_t epoch);
  static constexpr int kMaxClusterShards = 64;
  bool cluster_mode() const noexcept { return cluster_mode_; }
  bool shard_active(int s) const noexcept {
    return (active_mask_.load(std::memory_order_acquire) >>
            static_cast<unsigned>(s)) & 1u;
  }
  /// Current routing epoch (bumped by shard_export/shard_import).
  std::int64_t routing_epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  /// The mask of currently-active shards (cluster status reporting).
  std::uint64_t active_mask() const noexcept {
    return active_mask_.load(std::memory_order_acquire);
  }

  int shard_count() const noexcept { return static_cast<int>(shards_.size()); }
  PlatformShard& shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }
  const PlatformShard& shard(int s) const {
    return *shards_[static_cast<std::size_t>(s)];
  }
  const ServiceConfig& config() const noexcept { return config_; }
  bool manual_clock() const noexcept { return config_.manual_clock; }

  /// The shard that owns `worker` (stable for the deployment's lifetime).
  int route(const std::string& worker) const;

  /// Runs executed across all shards since construction/restore.
  std::uint64_t total_runs() const noexcept {
    return total_runs_.load(std::memory_order_relaxed);
  }

  /// Union-platform per-run trajectory (sim::merge_run_records over the
  /// shards' records). Requires quiescence.
  std::vector<sim::RunRecord> aggregated_records() const;

  /// Composed snapshot of every shard, taken directly (requires
  /// quiescence). The async checkpoint op uses per-shard tasks instead.
  void save_state(util::binio::Writer& out) const;
  void save_state(std::ostream& out) const;  // boundary adapter
  void load_state(util::binio::Reader& in);

 private:
  // One in-flight broadcast: collects the K per-shard responses and fires
  // the merged one when the last arrives (on that shard's thread).
  struct FanOut;
  // One in-flight coordinated checkpoint: per-shard sub-snapshot blobs
  // plus the countdown; the last shard writes the file from them.
  struct CheckpointJob;

  PushResult broadcast(const Request& request,
                       std::function<void(const Response&)> done,
                       const obs::TraceContext& trace);
  PushResult submit_checkpoint(const Request& request,
                               std::function<void(const Response&)> done,
                               const obs::TraceContext& trace = {});
  PushResult submit_shard_export(const Request& request,
                                 std::function<void(const Response&)> done,
                                 const obs::TraceContext& trace);
  PushResult submit_shard_import(const Request& request,
                                 std::function<void(const Response&)> done,
                                 const obs::TraceContext& trace);
  void complete_checkpoint(const std::shared_ptr<CheckpointJob>& job);
  void on_run(int shard_index, const sim::RunRecord& record);
  void set_shard_active(int s, bool active) noexcept;
  /// The global indices of the shards a broadcast fans out to: all of them,
  /// or the active subset in cluster mode.
  std::vector<int> broadcast_targets() const;

  ServiceConfig config_;
  std::vector<std::unique_ptr<PlatformShard>> shards_;
  std::vector<int> worker_offsets_;  // size K+1; [s, s+1) = shard s's range
  std::atomic<std::uint64_t> total_runs_{0};
  std::atomic<bool> checkpoint_in_flight_{false};
  std::atomic<bool> shutdown_{false};
  bool started_ = false;
  bool finalized_ = false;
  bool cluster_mode_ = false;
  std::atomic<std::uint64_t> active_mask_{~0ull};
  std::atomic<std::int64_t> epoch_{1};
};

/// Shard affinity as a pure function (shared by the router and the cluster
/// client's routing table): scenario names "w<g>" with g inside the initial
/// population map to the contiguous range owner; everything else hashes
/// deterministically. `worker_offsets` has K+1 entries (plan_shards' split)
/// and `num_workers` is the scenario population size.
int route_worker(const std::string& worker,
                 const std::vector<int>& worker_offsets, int num_workers);

/// Where `request` goes in a deployment whose worker split is
/// `worker_offsets` (K + 1 fence posts, as route_worker takes them): a
/// shard index for single-worker ops (route_worker) and for query_run,
/// shard_export and shard_import with an in-range shard; kShardNone (see
/// svc/trace_log.h) for those three with the shard out of range, which
/// the router answers inline (query_run with kShardOutOfRange);
/// kShardBroadcast for the fan-out ops, checkpoint included. Shared by the
/// router and the cluster client; allocates nothing.
int routing_decision(const Request& request,
                     const std::vector<int>& worker_offsets, int num_workers);

/// The router's inline reply to a query_run whose shard is out of range.
inline constexpr const char* kShardOutOfRange =
    "query_run: shard out of range";

/// The router's own fields on a merged broadcast reply: hello's "shards"
/// (`shards`, the deployment's K) and, when `epoch` is set (a cluster
/// deployment), its routing "epoch"; shutdown's "checkpoint" when
/// `checkpoint` names the composed checkpoint file.
void annotate_broadcast_reply(Op op, int shards,
                              std::optional<std::int64_t> epoch,
                              const std::string& checkpoint,
                              Response& merged);

/// Merge per-shard broadcast responses into one reply line.
/// `shard_indices[i]` is the GLOBAL shard that produced parts[i];
/// `global_shards` is the deployment's K — re-homing and the trace_status
/// percentile rules key on the deployment size, not on how many parts one
/// process contributed. With `rehome_all` every op re-homes its parts
/// under "shard<g>/..." (cluster members always do this — some additive
/// fields appear only on shards that produced them, so a partial merge
/// loses information the coordinator-side re-merge needs; re-homed parts
/// carry every field verbatim). Exposed so the cluster client can re-merge
/// per-member replies into the exact bytes a single-process deployment
/// would have produced.
Response merge_shard_parts(Op op, std::int64_t id,
                           const std::vector<Response>& parts,
                           const std::vector<int>& shard_indices,
                           int global_shards, bool rehome_all = false);

}  // namespace melody::svc
