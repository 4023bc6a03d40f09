#include "svc/router.h"

#include <algorithm>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/session.h"
#include "svc/trace_log.h"
#include "util/atomic_file.h"
#include "util/binio.h"

namespace melody::svc {

namespace binio = util::binio;

namespace {

constexpr std::string_view kMagic = "MLDYSVCK";

// Response fields that sum across shards in a merged broadcast reply
// (counts and budgets of independent sub-markets).
bool additive_field(std::string_view key) noexcept {
  return key == "runs_executed" || key == "runs_total" ||
         key == "runs_this_session" || key == "pending_bids" ||
         key == "accrued_budget" || key == "workers" || key == "sessions" ||
         key == "requests" || key == "overload_rejects" ||
         key == "queue_depth" || key == "min_bids" || key == "budget_target";
}

// Run cursors take the furthest shard (union-platform progress).
bool maximal_field(std::string_view key) noexcept {
  return key == "run" || key == "next_run";
}

// Writes the composed checkpoint file (MLDYSVCK v2: header, u32 K, then
// each shard body behind its u64 length) in one gathered write straight
// from the K bodies, then frees them: no composed copy is ever built.
void write_composed(const std::string& path,
                    std::vector<std::string>& bodies) {
  binio::Writer framing;  // the header, then each body's length
  framing.write_header(kMagic, kComposedCheckpointVersion);
  framing.write_u32(static_cast<std::uint32_t>(bodies.size()));
  const std::size_t header_size = framing.bytes().size();
  for (const std::string& body : bodies) framing.write_u64(body.size());
  const std::string_view frames = framing.bytes();
  std::vector<std::string_view> parts{frames.substr(0, header_size)};
  parts.reserve(1 + 2 * bodies.size());
  for (std::size_t s = 0; s < bodies.size(); ++s) {
    parts.push_back(frames.substr(header_size + 8 * s, 8));
    parts.push_back(bodies[s]);
  }
  util::write_file_atomically(path, parts);
  std::vector<std::string>().swap(bodies);
}

std::uint64_t fnv1a(const std::string& s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

int route_worker(const std::string& worker,
                 const std::vector<int>& worker_offsets,
                 const int num_workers) {
  const int k = static_cast<int>(worker_offsets.size()) - 1;
  if (k == 1) return 0;
  // Scenario names "w<g>" with g inside the initial population map to the
  // contiguous range owner (matches the planner's split and the per-shard
  // worker_name_offset bindings).
  if (const auto g = parse_worker_number(worker, num_workers)) {
    const auto it = std::upper_bound(worker_offsets.begin(),
                                     worker_offsets.end() - 1,
                                     static_cast<int>(*g));
    return static_cast<int>(it - worker_offsets.begin()) - 1;
  }
  // Newcomers and foreign names: deterministic hash affinity — the same
  // name always lands on the same shard, so its session state sticks.
  return static_cast<int>(fnv1a(worker) % static_cast<std::uint64_t>(k));
}

struct ShardedService::FanOut {
  std::mutex mutex;
  std::vector<Response> parts;
  std::vector<int> shard_indices;  // global shard producing each part
  int remaining = 0;
  Op op = Op::kHello;
  std::int64_t id = 0;
  int global_shards = 1;
  bool rehome_all = false;  // cluster members re-home every broadcast op
  std::optional<std::int64_t> epoch;  // cluster members: the routing epoch
  std::string checkpoint;             // shutdown: the composed checkpoint
  std::function<void(const Response&)> done;
};

struct ShardedService::CheckpointJob {
  std::vector<std::string> blobs;
  std::vector<int> runs;  // per-shard last completed run index
  std::atomic<int> remaining{0};
  std::atomic<bool> failed{false};
  std::string path;
  std::int64_t id = 0;
  std::function<void(const Response&)> done;
};

ShardedService::ShardedService(ServiceConfig config)
    : config_(std::move(config)) {
  const std::vector<ShardPlan> plans = plan_shards(config_);
  shards_.reserve(plans.size());
  worker_offsets_.reserve(plans.size() + 1);
  for (const ShardPlan& plan : plans) {
    worker_offsets_.push_back(plan.worker_offset);
    shards_.push_back(std::make_unique<PlatformShard>(plan));
    shards_.back()->set_run_sink(
        [this](int s, const sim::RunRecord& r) { on_run(s, r); });
  }
  worker_offsets_.push_back(config_.scenario.num_workers);
}

ShardedService::~ShardedService() {
  begin_shutdown();
  join();
}

void ShardedService::restore(const std::string& path) {
  const util::MappedFile file(path, "svc checkpoint");
  binio::Reader in(file.bytes());
  load_state(in);
}

void ShardedService::start() {
  if (started_) return;
  started_ = true;
  for (auto& shard : shards_) shard->start();
}

int ShardedService::route(const std::string& worker) const {
  return route_worker(worker, worker_offsets_, config_.scenario.num_workers);
}

void ShardedService::configure_cluster(const std::uint64_t active_mask,
                                       const std::int64_t epoch) {
  if (shard_count() > kMaxClusterShards) {
    throw std::invalid_argument(
        "svc: cluster mode supports at most 64 shards (activity mask width)");
  }
  cluster_mode_ = true;
  active_mask_.store(active_mask, std::memory_order_release);
  epoch_.store(epoch, std::memory_order_release);
}

void ShardedService::set_shard_active(const int s, const bool active) noexcept {
  const std::uint64_t bit = 1ull << static_cast<unsigned>(s);
  if (active) {
    active_mask_.fetch_or(bit, std::memory_order_acq_rel);
  } else {
    active_mask_.fetch_and(~bit, std::memory_order_acq_rel);
  }
}

std::vector<int> ShardedService::broadcast_targets() const {
  std::vector<int> targets;
  targets.reserve(static_cast<std::size_t>(shard_count()));
  for (int s = 0; s < shard_count(); ++s) {
    if (!cluster_mode_ || shard_active(s)) targets.push_back(s);
  }
  return targets;
}

PushResult ShardedService::submit(const Request& request,
                                  std::function<void(const Response&)> done,
                                  const obs::TraceContext& trace) {
  switch (request.op) {
    case Op::kCheckpoint:
      return submit_checkpoint(request, std::move(done), trace);
    case Op::kShardExport:
      return submit_shard_export(request, std::move(done), trace);
    case Op::kShardImport:
      return submit_shard_import(request, std::move(done), trace);
    case Op::kShutdown:
      shutdown_.store(true, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  const int s = routing_decision(request);
  if (s == kShardBroadcast) return broadcast(request, std::move(done), trace);
  if (s == kShardNone) {  // only query_run reaches here unroutable
    done(Response::failure(request.id, kShardOutOfRange));
    return PushResult::kOk;
  }
  if (cluster_mode_ && !shard_active(s)) {
    if (obs::enabled()) obs::registry().counter("cluster/not_owner").add();
    done(Response::not_owner(request.id, s, routing_epoch()));
    return PushResult::kOk;
  }
  return shard(s).try_submit(request, std::move(done), trace);
}

int ShardedService::routing_decision(const Request& request) const {
  return svc::routing_decision(request, worker_offsets_,
                               config_.scenario.num_workers);
}

int routing_decision(const Request& request,
                     const std::vector<int>& worker_offsets,
                     const int num_workers) {
  switch (request.op) {
    case Op::kSubmitBid:
    case Op::kUpdateBid:
    case Op::kWithdrawBid:
    case Op::kPostScores:
    case Op::kQueryWorker:
      return route_worker(request.worker, worker_offsets, num_workers);
    case Op::kQueryRun:
    case Op::kShardExport:
    case Op::kShardImport:
      if (request.shard < 0 ||
          request.shard >= static_cast<int>(worker_offsets.size()) - 1) {
        return kShardNone;
      }
      return request.shard;
    default:
      return kShardBroadcast;
  }
}

void annotate_broadcast_reply(const Op op, const int shards,
                              const std::optional<std::int64_t> epoch,
                              const std::string& checkpoint,
                              Response& merged) {
  if (op == Op::kHello) {
    merged.fields.set("shards",
                      WireValue::of(static_cast<std::int64_t>(shards)));
    // Cluster members advertise their routing epoch so clients can
    // detect a stale table right from the handshake.
    if (epoch) merged.fields.set("epoch", WireValue::of(*epoch));
  } else if (op == Op::kShutdown && !checkpoint.empty()) {
    merged.fields.set("checkpoint", WireValue::of(checkpoint));
  }
}

Response ShardedService::rejection(PushResult result,
                                   const Request& request) const {
  return shards_.front()->rejection(result, request);
}

PushResult ShardedService::broadcast(
    const Request& request, std::function<void(const Response&)> done,
    const obs::TraceContext& trace) {
  const int k = shard_count();
  const std::vector<int> targets = broadcast_targets();
  if (targets.empty()) {
    // A cluster member that owns no shards at the moment (mid-migration,
    // or freshly respawned) has nothing to fan out to.
    done(Response::failure(request.id, "no active shards"));
    return PushResult::kOk;
  }
  // All-or-nothing admission. The front end is the single regular
  // producer, so a free slot observed on every queue cannot be taken
  // before we enqueue; the parts then go in with force_submit.
  for (const int s : targets) {
    PlatformShard& target = shard(s);
    if (target.full()) {
      target.service().note_overload_reject();
      return PushResult::kFull;
    }
  }
  auto fan = std::make_shared<FanOut>();
  fan->parts.resize(targets.size());
  fan->shard_indices = targets;
  fan->remaining = static_cast<int>(targets.size());
  fan->op = request.op;
  fan->id = request.id;
  fan->global_shards = k;
  fan->rehome_all = cluster_mode_;
  fan->done = std::move(done);
  if (cluster_mode_) fan->epoch = routing_epoch();
  // The composed file is written by finalize() once the shards have
  // drained; the shutdown reply advertises it.
  if (request.op == Op::kShutdown) fan->checkpoint = config_.checkpoint_path;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const int s = targets[i];
    Request part = request;
    if (request.op == Op::kSubmitTasks && k > 1) {
      const auto lo = static_cast<std::int64_t>(worker_offsets_[s]);
      const auto hi = static_cast<std::int64_t>(worker_offsets_[s + 1]);
      const auto n = static_cast<std::int64_t>(config_.scenario.num_workers);
      part.budget = request.budget * (static_cast<double>(hi - lo) /
                                      static_cast<double>(n));
      // Telescoping integer split: the per-shard counts sum to the total.
      part.task_count = static_cast<int>(request.task_count * hi / n -
                                         request.task_count * lo / n);
    }
    auto deliver = [fan, i](const Response& response) {
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(fan->mutex);
        fan->parts[i] = response;
        last = --fan->remaining == 0;
      }
      if (!last) return;
      Response merged = merge_shard_parts(fan->op, fan->id, fan->parts,
                                          fan->shard_indices,
                                          fan->global_shards,
                                          fan->rehome_all);
      annotate_broadcast_reply(fan->op, fan->global_shards, fan->epoch,
                               fan->checkpoint, merged);
      if (fan->done) fan->done(merged);
    };
    // Forced past capacity: the check above already admitted the part,
    // and checkpoint tasks forced in concurrently must not fail it.
    const PushResult pushed =
        shard(s).force_submit(std::move(part), deliver, trace);
    if (pushed != PushResult::kOk) {
      deliver(Response::failure(request.id, "shutting down"));
    }
  }
  return PushResult::kOk;
}

PushResult ShardedService::submit_checkpoint(
    const Request& request, std::function<void(const Response&)> done,
    const obs::TraceContext& trace) {
  const std::string path =
      request.path.empty() ? config_.checkpoint_path : request.path;
  if (path.empty()) {
    done(Response::failure(
        request.id, "checkpoint: no path in the request and none configured"));
    return PushResult::kOk;
  }
  if (checkpoint_in_flight_.exchange(true)) {
    done(Response::failure(request.id, "checkpoint already in progress"));
    return PushResult::kOk;
  }
  // Cluster members snapshot the shards they own; a single-process
  // deployment snapshots all K (identical to the pre-cluster behavior).
  const std::vector<int> targets = broadcast_targets();
  if (targets.empty()) {
    checkpoint_in_flight_.store(false, std::memory_order_relaxed);
    done(Response::failure(request.id, "no active shards"));
    return PushResult::kOk;
  }
  auto job = std::make_shared<CheckpointJob>();
  job->blobs.resize(targets.size());
  job->runs.resize(targets.size(), 0);
  job->remaining.store(static_cast<int>(targets.size()),
                       std::memory_order_relaxed);
  job->path = path;
  job->id = request.id;
  job->done = std::move(done);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const PushResult pushed =
        shards_[static_cast<std::size_t>(targets[i])]->submit_task(
            [this, job, i, trace](AuctionService& service) {
              obs::ScopedTraceContext install(trace);
              service.note_control_request();
              binio::Writer blob;
              service.reserve_next_body(blob);
              service.save_state(blob);
              job->blobs[i] = blob.take();
              job->runs[i] = service.platform().current_run() - 1;
              if (job->remaining.fetch_sub(1) == 1) complete_checkpoint(job);
            });
    if (pushed != PushResult::kOk) {
      job->failed.store(true, std::memory_order_relaxed);
      if (job->remaining.fetch_sub(1) == 1) complete_checkpoint(job);
    }
  }
  return PushResult::kOk;
}

void ShardedService::complete_checkpoint(
    const std::shared_ptr<CheckpointJob>& job) {
  Response response = Response::success(job->id);
  if (job->failed.load(std::memory_order_relaxed)) {
    response = Response::failure(job->id, "checkpoint: service shutting down");
  } else {
    try {
      write_composed(job->path, job->blobs);
      response.fields.set("path", WireValue::of(job->path));
      response.fields.set(
          "run", WireValue::of(static_cast<std::int64_t>(
                     *std::max_element(job->runs.begin(), job->runs.end()))));
      if (shard_count() > 1) {
        response.fields.set(
            "shards",
            WireValue::of(static_cast<std::int64_t>(shard_count())));
      }
    } catch (const std::exception& e) {
      response = Response::failure(job->id, e.what());
    }
  }
  checkpoint_in_flight_.store(false, std::memory_order_relaxed);
  if (job->done) job->done(response);
}

PushResult ShardedService::submit_shard_export(
    const Request& request, std::function<void(const Response&)> done,
    const obs::TraceContext& trace) {
  if (!cluster_mode_) {
    done(Response::failure(request.id,
                           "shard_export: cluster deployments only"));
    return PushResult::kOk;
  }
  const int s = request.shard;
  if (s < 0 || s >= shard_count()) {
    done(Response::failure(request.id, "shard_export: shard out of range"));
    return PushResult::kOk;
  }
  if (!shard_active(s)) {
    done(Response::not_owner(request.id, s, routing_epoch()));
    return PushResult::kOk;
  }
  if (request.path.empty()) {
    done(Response::failure(request.id, "shard_export: path required"));
    return PushResult::kOk;
  }
  // Detach on the submitting thread, BEFORE the export task is enqueued:
  // every frame accepted so far is already in the shard's queue ahead of
  // the snapshot task, and nothing routed after this point can land behind
  // it — the envelope captures exactly the acknowledged prefix.
  if (request.detach) {
    set_shard_active(s, false);
    if (request.epoch != 0) {
      epoch_.store(request.epoch, std::memory_order_release);
    }
  }
  const std::int64_t epoch = routing_epoch();
  const PushResult pushed = shards_[static_cast<std::size_t>(s)]->submit_task(
      [request, done, trace, epoch](AuctionService& service) {
        obs::ScopedTraceContext install(trace);
        obs::ScopedSpan span("cluster/export");
        span.annotate("shard", request.shard);
        span.annotate("detach", request.detach ? 1 : 0);
        Response response = Response::success(request.id);
        try {
          binio::Writer out;
          service.reserve_next_body(out);
          service.save_migration(out);
          util::write_file_atomically(request.path, out.bytes());
          response.fields.set(
              "shard", WireValue::of(static_cast<std::int64_t>(request.shard)));
          response.fields.set("path", WireValue::of(request.path));
          response.fields.set("detached", WireValue::of(request.detach));
          response.fields.set("epoch", WireValue::of(epoch));
          response.fields.set(
              "run", WireValue::of(static_cast<std::int64_t>(
                         service.platform().current_run() - 1)));
          if (obs::enabled()) obs::registry().counter("cluster/exports").add();
        } catch (const std::exception& e) {
          response = Response::failure(request.id, e.what());
        }
        done(response);
      });
  if (pushed != PushResult::kOk) {
    // The queue is closed (shutdown); undo the detach so status reporting
    // stays truthful — the shard never left this process.
    if (request.detach) set_shard_active(s, true);
    done(Response::failure(request.id, "shutting down"));
  }
  return PushResult::kOk;
}

PushResult ShardedService::submit_shard_import(
    const Request& request, std::function<void(const Response&)> done,
    const obs::TraceContext& trace) {
  if (!cluster_mode_) {
    done(Response::failure(request.id,
                           "shard_import: cluster deployments only"));
    return PushResult::kOk;
  }
  const int s = request.shard;
  if (s < 0 || s >= shard_count()) {
    done(Response::failure(request.id, "shard_import: shard out of range"));
    return PushResult::kOk;
  }
  if (shard_active(s)) {
    done(Response::failure(request.id,
                           "shard_import: shard " + std::to_string(s) +
                               " is already active here"));
    return PushResult::kOk;
  }
  if (request.path.empty()) {
    done(Response::failure(request.id, "shard_import: path required"));
    return PushResult::kOk;
  }
  const PushResult pushed = shards_[static_cast<std::size_t>(s)]->submit_task(
      [this, request, done, trace](AuctionService& service) {
        obs::ScopedTraceContext install(trace);
        obs::ScopedSpan span("cluster/import");
        span.annotate("shard", request.shard);
        Response response = Response::success(request.id);
        try {
          {
            const util::MappedFile file(request.path, "cluster envelope");
            binio::Reader in(file.bytes());
            service.load_migration(in);
          }
          // Activate only after the state is fully loaded; a frame routed
          // here in between answers not_owner and the client retries.
          if (request.epoch != 0) {
            epoch_.store(request.epoch, std::memory_order_release);
          }
          set_shard_active(request.shard, true);
          response.fields.set(
              "shard", WireValue::of(static_cast<std::int64_t>(request.shard)));
          response.fields.set("path", WireValue::of(request.path));
          response.fields.set("epoch", WireValue::of(routing_epoch()));
          response.fields.set(
              "next_run", WireValue::of(static_cast<std::int64_t>(
                              service.platform().current_run())));
          if (obs::enabled()) obs::registry().counter("cluster/imports").add();
        } catch (const std::exception& e) {
          response = Response::failure(request.id, e.what());
        }
        done(response);
      });
  if (pushed != PushResult::kOk) {
    done(Response::failure(request.id, "shutting down"));
  }
  return PushResult::kOk;
}

void ShardedService::on_run(int /*shard_index*/,
                            const sim::RunRecord& /*record*/) {
  const std::uint64_t total =
      total_runs_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.checkpoint_every <= 0 || config_.checkpoint_path.empty()) {
    return;
  }
  if (total % static_cast<std::uint64_t>(config_.checkpoint_every) != 0) {
    return;
  }
  if (shutdown_.load(std::memory_order_relaxed)) return;
  Request request;
  request.op = Op::kCheckpoint;
  // Cadence checkpoints are best-effort: skip when one is in flight (the
  // exchange inside submit_checkpoint reports it; we drop the response).
  submit_checkpoint(request, [](const Response&) {});
}

Response merge_shard_parts(Op op, std::int64_t id,
                           const std::vector<Response>& parts,
                           const std::vector<int>& shard_indices,
                           int global_shards, bool rehome_all) {
  Response merged;
  merged.id = id;
  for (const Response& part : parts) {
    if (part.ok) continue;
    if (merged.ok) {
      merged.ok = false;
      merged.error = part.error;
    }
    merged.retry_after_ms = std::max(merged.retry_after_ms,
                                     part.retry_after_ms);
  }
  const Response& head = parts.front();
  for (const auto& [key, value] : head.fields.entries()) {
    if (op == Op::kTraceStatus && global_shards > 1) {
      // Latency percentiles are per-shard distributions — they cannot be
      // merged by value, so the top level drops them (they survive under
      // the shard<k>/ views below); sample counts sum.
      if (std::string_view(key).ends_with("_ms")) continue;
      if (std::string_view(key).ends_with("_count")) {
        double sum = 0.0;
        for (const Response& part : parts) {
          if (part.fields.has(key)) sum += part.fields.number(key);
        }
        merged.fields.set(key, WireValue::of(sum));
        continue;
      }
    }
    if (value.is_number() && additive_field(key)) {
      double sum = 0.0;
      for (const Response& part : parts) {
        if (part.fields.has(key)) sum += part.fields.number(key);
      }
      merged.fields.set(key, WireValue::of(sum));
    } else if (value.is_number() && maximal_field(key)) {
      double top = value.as_number();
      for (const Response& part : parts) {
        if (part.fields.has(key)) top = std::max(top, part.fields.number(key));
      }
      merged.fields.set(key, WireValue::of(top));
    } else if (value.is_bool() && key == "finished") {
      bool all = true;
      for (const Response& part : parts) {
        all = all && part.fields.boolean_or(key, true);
      }
      merged.fields.set(key, WireValue::of(all));
    } else {
      merged.fields.set(key, value);
    }
  }
  // Introspection ops additionally expose every shard's own numbers,
  // re-homed under "shard<g>/..." (GLOBAL index) after the merged totals.
  // Guarded on the deployment's K, not the part count, so a cluster member
  // owning one shard of a K-shard deployment still replies in the K-shard
  // shape; a true single-shard reply stays byte-identical to the unsharded
  // service (the bit-identity contract).
  if (global_shards > 1 &&
      (rehome_all || op == Op::kStats || op == Op::kTraceStatus)) {
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const std::string prefix =
          "shard" + std::to_string(shard_indices[i]) + "/";
      for (const auto& [key, value] : parts[i].fields.entries()) {
        merged.fields.set(prefix + key, value);
      }
    }
  }
  return merged;
}

bool ShardedService::poll_once(std::chrono::nanoseconds timeout) {
  bool any = false;
  for (auto& shard : shards_) any = shard->poll_once(timeout) || any;
  return any;
}

void ShardedService::begin_shutdown() {
  for (auto& shard : shards_) shard->close();
}

bool ShardedService::shutdown_requested() const {
  if (shutdown_.load(std::memory_order_relaxed)) return true;
  for (const auto& shard : shards_) {
    if (shard->service().shutdown_requested()) return true;
  }
  return false;
}

void ShardedService::join() {
  for (auto& shard : shards_) shard->join();
}

void ShardedService::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (config_.checkpoint_path.empty()) return;
  std::vector<std::string> bodies;
  bodies.reserve(shards_.size());
  for (const auto& shard : shards_) {
    binio::Writer body;
    shard->service().reserve_next_body(body);
    shard->service().save_state(body);
    bodies.push_back(body.take());
  }
  write_composed(config_.checkpoint_path, bodies);
}

std::vector<sim::RunRecord> ShardedService::aggregated_records() const {
  std::vector<std::vector<sim::RunRecord>> parts;
  parts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    parts.push_back(shard->service().records());
  }
  return sim::merge_run_records(parts);
}

void ShardedService::save_state(binio::Writer& out) const {
  out.write_header(kMagic, kComposedCheckpointVersion);
  out.write_u32(static_cast<std::uint32_t>(shards_.size()));
  for (const auto& shard : shards_) {
    out.write_blob(
        [&shard](binio::Writer& body) { shard->service().save_state(body); });
  }
}

void ShardedService::save_state(std::ostream& out) const {
  binio::write_stream(out, "svc checkpoint",
                      [this](binio::Writer& w) { save_state(w); });
}

void ShardedService::load_state(binio::Reader& in) {
  // Only the composed container: a plain service body (MLDYSVCK at
  // kServiceCheckpointVersion) fails here with its version named.
  in.read_header(kMagic, kComposedCheckpointVersion);
  const std::uint32_t k = in.read_u32("svc checkpoint shards");
  if (k != static_cast<std::uint32_t>(shard_count())) {
    throw std::runtime_error(
        "svc: checkpoint shard count " + std::to_string(k) +
        " does not match the deployment's " + std::to_string(shard_count()));
  }
  // Frame every body before any shard loads: a container cut short then
  // fails here and leaves every shard as it was.
  std::vector<std::string_view> bodies;
  bodies.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    bodies.push_back(in.read_bytes("svc checkpoint shard snapshot"));
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    binio::Reader body(bodies[s]);
    shards_[s]->service().load_state(body);
  }
}

}  // namespace melody::svc
