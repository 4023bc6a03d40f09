// state_move: a ~100k-worker deployment over K=2 shards with a short
// horizon. Set-up runs a few run_now auctions, fewer than the EM period T,
// so every worker has score history but no refit ever runs. The timed
// phase repeats three operations: a full checkpoint (the checkpoint op),
// a restore of that file into a fresh deployment (ShardedService::restore)
// and live migration hops through cluster::Coordinator between two
// in-process members. The state codec does the work; there is no wire
// traffic and no EM.
//
// Every operation is repeated a fixed number of times per second of
// --seconds. Files go to the per-run directory given by --workdir.

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "svc/protocol.h"
#include "svc/router.h"
#include "workloads.h"

namespace e2ebench {

namespace {

constexpr int kWorkers = 100000;
constexpr int kShards = 2;
constexpr int kHorizon = 50;
constexpr int kSetupRuns = 8;  // run_now auctions in set-up; below T = 10
constexpr int kSetups = 5;
constexpr double kPairsPerSecond = 0.5;  // checkpoint + restore pairs
constexpr double kHopsPerSecond = 0.5;
constexpr int kMigratingShard = kShards - 1;

}  // namespace

// The calling thread plus one consumer per shard saving in parallel.
const Shape kStateMoveShape{.busy_threads = 1 + kShards,
                            .pool_threads = 1,
                            .shards = kShards};

namespace {

using melody::svc::Op;
using melody::svc::Request;
using melody::svc::Response;
using melody::svc::ShardedService;
using melody::svc::WireObject;
using melody::svc::WireValue;

melody::svc::ServiceConfig deployment_config(std::uint64_t seed) {
  melody::svc::ServiceConfig config;
  config.scenario.num_workers = kWorkers;
  config.scenario.runs = kHorizon;
  config.shards = kShards;
  config.manual_clock = true;
  config.seed = seed;
  return config;
}

/// Submit one request and wait for its response: on the consumer threads
/// of a started deployment, by polling the shards of one that is not.
Response call(ShardedService& service, const Request& request) {
  std::mutex mutex;
  std::condition_variable cv;
  bool delivered = false;
  Response response;
  const auto done = [&](const Response& r) {
    std::lock_guard lock(mutex);
    response = r;
    delivered = true;
    cv.notify_one();
  };
  melody::svc::PushResult pushed;
  while ((pushed = service.submit(request, done)) ==
         melody::svc::PushResult::kFull) {
    std::this_thread::yield();
  }
  if (pushed != melody::svc::PushResult::kOk) {
    return service.rejection(pushed, request);
  }
  if (!service.started()) {
    for (;;) {
      {
        std::lock_guard lock(mutex);
        if (delivered) return response;
      }
      service.poll_once(std::chrono::milliseconds(1));
    }
  }
  std::unique_lock lock(mutex);
  cv.wait(lock, [&] { return delivered; });
  return response;
}

/// FNV-1a over a file, read in chunks.
std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::vector<char> chunk(1 << 16);
  while (in.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) ||
         in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      hash = (hash ^ static_cast<unsigned char>(chunk[static_cast<std::size_t>(i)])) *
             0x100000001b3ull;
    }
  }
  return hash;
}

/// An output stream buffer that compares what is written to it against a
/// file, chunk by chunk, so a re-save is checked without holding either
/// copy in memory.
class CompareBuf final : public std::streambuf {
 public:
  explicit CompareBuf(const std::string& path) : in_(path, std::ios::binary) {}

  /// True when everything written equals the whole file.
  bool matches() {
    return same_ && in_.peek() == std::char_traits<char>::eof();
  }

 protected:
  int_type overflow(int_type c) override {
    if (c == traits_type::eof()) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }
  std::streamsize xsputn(const char* data, std::streamsize n) override {
    if (same_) {
      scratch_.resize(static_cast<std::size_t>(n));
      same_ = static_cast<bool>(in_.read(scratch_.data(), n)) &&
              std::equal(scratch_.begin(), scratch_.end(), data);
    }
    return n;
  }

 private:
  std::ifstream in_;
  std::vector<char> scratch_;
  bool same_ = true;
};

/// Stand up one deployment with history: construct, start, kSetupRuns runs.
std::unique_ptr<ShardedService> build_deployment(std::uint64_t seed) {
  auto service = std::make_unique<ShardedService>(deployment_config(seed));
  service->start();
  Request run_now;
  run_now.op = Op::kRunNow;
  for (int r = 0; r < kSetupRuns; ++r) {
    run_now.id = r + 1;
    if (!call(*service, run_now).ok) {
      throw std::runtime_error("state_move: run_now failed in set-up");
    }
  }
  return service;
}

/// The fixed probe sequence a migrated shard must answer byte-identically
/// to one that never moved: reads and bid writes on workers it owns.
std::vector<Request> probe_sequence() {
  std::vector<Request> probes;
  const int first = kWorkers / kShards * kMigratingShard;
  std::int64_t id = 1;
  for (int k = 0; k < 8; ++k) {
    std::string worker = "w";
    worker += std::to_string(first + (k * 6151) % (kWorkers / kShards));
    Request query;
    query.op = Op::kQueryWorker;
    query.worker = worker;
    query.id = id++;
    Request bid;
    bid.op = Op::kSubmitBid;
    bid.worker = worker;
    bid.id = id++;
    Request update;
    update.op = Op::kUpdateBid;
    update.worker = worker;
    update.has_bid = true;
    update.cost = 1.25 + 0.1 * k;
    update.frequency = 1 + k % 5;
    update.id = id++;
    probes.insert(probes.end(), {query, bid, update, query});
    probes.back().id = id++;
  }
  return probes;
}

/// Time `save(out)` into a counting sink; returns {ms, bytes}.
template <typename Save>
std::pair<double, std::size_t> time_save(Save save) {
  CountingBuf buf;
  std::ostream out(&buf);
  const auto t = Clock::now();
  save(out);
  return {ms_since(t), buf.bytes};
}

/// The per-layer timings: save and load on a quiescent restored deployment,
/// and the migration codec on the migrated shard's own consumer thread.
struct LayerTimes {
  std::vector<double> save_ms[kShards];
  std::vector<double> load_ms[kShards];
  std::vector<double> platform_save_ms;
  std::vector<double> migration_save_ms;
  std::vector<double> migration_load_ms;
  double shard_blob_mb = 0.0;
  double platform_blob_mb = 0.0;
};

/// The migration envelope codec on the shard's consumer thread, where
/// shard_export and shard_import run it: save into a counting sink, then
/// load the same envelope back from memory.
void time_migration_codec(ShardedService& member, LayerTimes& layers) {
  std::promise<std::pair<double, double>> timed;
  auto result = timed.get_future();
  const auto pushed = member.shard(kMigratingShard)
                          .submit_task([&timed](melody::svc::AuctionService& shard) {
    try {
      const double save_ms =
          time_save([&](std::ostream& out) { shard.save_migration(out); }).first;
      std::ostringstream envelope;
      shard.save_migration(envelope);
      std::istringstream in(envelope.str());
      const auto t = Clock::now();
      shard.load_migration(in);
      timed.set_value({save_ms, ms_since(t)});
    } catch (...) {
      timed.set_exception(std::current_exception());
    }
  });
  if (pushed != melody::svc::PushResult::kOk) {
    throw std::runtime_error("state_move: member queue closed");
  }
  const auto [save_ms, load_ms] = result.get();
  layers.migration_save_ms.push_back(save_ms);
  layers.migration_load_ms.push_back(load_ms);
}

/// Time the state codec of one restored deployment: save every shard,
/// then release the deployment and load each blob into the matching shard
/// of a freshly constructed one — what restore does after reading the
/// file, with the released memory to reuse, as restore has.
void time_layers(std::unique_ptr<ShardedService> restored,
                 const melody::svc::ServiceConfig& config, LayerTimes& layers) {
  std::vector<std::string> blobs;
  for (int s = 0; s < kShards; ++s) {
    const melody::svc::AuctionService& shard = restored->shard(s).service();
    const auto [save_ms, blob_bytes] =
        time_save([&](std::ostream& out) { shard.save_state(out); });
    layers.save_ms[s].push_back(save_ms);
    std::ostringstream blob;
    shard.save_state(blob);
    blobs.push_back(blob.str());
    if (s != kMigratingShard) continue;
    layers.shard_blob_mb = static_cast<double>(blob_bytes) / 1e6;
    const auto [platform_ms, platform_bytes] =
        time_save([&](std::ostream& out) { shard.platform().save(out); });
    layers.platform_save_ms.push_back(platform_ms);
    layers.platform_blob_mb = static_cast<double>(platform_bytes) / 1e6;
  }
  restored.reset();
  ShardedService empty(config);
  for (int s = 0; s < kShards; ++s) {
    std::istringstream in(std::move(blobs[static_cast<std::size_t>(s)]));
    const auto t = Clock::now();
    empty.shard(s).service().load_state(in);
    layers.load_ms[s].push_back(ms_since(t));
  }
}

}  // namespace

Outcome run_state_move(const Args& args) {
  Outcome outcome;
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(args.workdir) / "state_move";
  fs::create_directories(dir);
  const melody::svc::ServiceConfig config = deployment_config(args.seed);

  std::vector<double> setups;
  std::unique_ptr<ShardedService> source;
  for (int k = 0; k < kSetups; ++k) {
    source.reset();
    const auto start = Clock::now();
    source = build_deployment(args.seed);
    setups.push_back(seconds_since(start));
  }

  // Checkpoint + restore pairs. In the traced pass every other pair is
  // followed by the per-layer calls on the restored deployment.
  std::vector<double> checkpoint_s, restore_s, traced_pair_s, plain_pair_s;
  std::vector<double> traced_checkpoint_s, traced_restore_s;
  LayerTimes layers;
  // Every checkpoint of the unchanged source must be the same bytes; only
  // their size and digest are kept between pairs.
  std::size_t checkpoint_size = 0;
  std::uint64_t checkpoint_digest = 0;
  // Each checkpoint gets a new name: renaming over an existing file makes
  // ext4 start writeback at once, which would time the disk, not the codec.
  const auto checkpoint_name = [&dir](int k) {
    return (dir / ("deployment" + std::to_string(k) + ".ckpt")).string();
  };
  std::string checkpoint_path;
  const int pairs =
      units_for(args.seconds, kPairsPerSecond, 3) * (args.trace ? 2 : 1);
  for (int k = 0; k < pairs; ++k) {
    const bool traced_pair = args.trace && k % 2 == 1;
    Request checkpoint;
    checkpoint.op = Op::kCheckpoint;
    checkpoint.id = k + 1;
    checkpoint.path = checkpoint_name(k);
    ++outcome.attempted;
    auto t = Clock::now();
    const Response saved = call(*source, checkpoint);
    const double ckpt = seconds_since(t);
    if (!saved.ok) {
      ++outcome.failed;
      continue;
    }
    if (!checkpoint_path.empty()) fs::remove(checkpoint_path);
    checkpoint_path = checkpoint.path;
    const std::uint64_t digest = file_digest(checkpoint_path);
    if (checkpoint_size == 0) {
      checkpoint_size = fs::file_size(checkpoint_path);
      checkpoint_digest = digest;
    } else if (fs::file_size(checkpoint_path) != checkpoint_size ||
               digest != checkpoint_digest) {
      throw CheckFailure("state_move: two checkpoints of one state differ");
    }

    auto fresh = std::make_unique<ShardedService>(config);
    ++outcome.attempted;
    t = Clock::now();
    try {
      fresh->restore(checkpoint_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "state_move: restore failed: %s\n", e.what());
      ++outcome.failed;
      continue;
    }
    const double restore = seconds_since(t);
    (traced_pair ? traced_pair_s : plain_pair_s).push_back(ckpt + restore);
    (traced_pair ? traced_checkpoint_s : checkpoint_s).push_back(ckpt);
    (traced_pair ? traced_restore_s : restore_s).push_back(restore);
    if (traced_pair) time_layers(std::move(fresh), config, layers);
  }
  // The set-up auctions, read once the source has drained.
  source->begin_shutdown();
  source->join();
  const auto records = source->aggregated_records();
  source.reset();
  if (records.empty()) throw std::runtime_error("state_move: no set-up run");
  double est_error = 0.0, utility = 0.0;
  for (const auto& r : records) {
    est_error += r.estimation_error / static_cast<double>(records.size());
    utility +=
        static_cast<double>(r.true_utility) / static_cast<double>(records.size());
  }
  if (checkpoint_size == 0) {
    throw std::runtime_error("state_move: no checkpoint succeeded");
  }

  // Live migration between two in-process cluster members restored from
  // the checkpoint: member a owns shard 0, member b shard 1, and the
  // migrating shard hops a <-> b.
  std::array<std::unique_ptr<ShardedService>, 2> members;
  for (int m = 0; m < 2; ++m) {
    auto& member = members[static_cast<std::size_t>(m)];
    member = std::make_unique<ShardedService>(config);
    member->configure_cluster(std::uint64_t{1} << m, 1);
    member->restore(checkpoint_path);
    member->start();
  }
  const auto rpc = [&members](const melody::cluster::ClusterMember& member,
                              const Request& request, Response* out) {
    *out = call(*members[member.name == "a" ? 0 : 1], request);
    return true;
  };
  melody::cluster::CoordinatorOptions options;
  options.shards = kShards;
  options.workers = kWorkers;
  options.expected_members = 2;
  options.publish_dir = (dir / "cluster").string();
  fs::create_directories(options.publish_dir);
  melody::cluster::Coordinator coordinator(options, rpc);
  for (int m = 0; m < 2; ++m) {
    WireObject join;
    join.set("cmd", WireValue::of("join"));
    join.set("member", WireValue::of(m == 0 ? "a" : "b"));
    join.set("host", WireValue::of("127.0.0.1"));
    join.set("port", WireValue::of(static_cast<std::int64_t>(m + 1)));
    join.set("pid", WireValue::of(static_cast<std::int64_t>(m + 1)));
    join.set("shards", WireValue::of(std::vector<double>{double(m)}));
    if (!coordinator.handle(join).boolean_or("ok", false)) {
      throw std::runtime_error("state_move: cluster join failed");
    }
  }
  std::vector<double> pauses;
  int owner = 1;
  const int hops = units_for(args.seconds, kHopsPerSecond, 3);
  for (int hop = 0; hop < hops; ++hop) {
    WireObject migrate;
    migrate.set("cmd", WireValue::of("migrate"));
    migrate.set("shard", WireValue::of(std::int64_t{kMigratingShard}));
    migrate.set("to", WireValue::of(owner == 1 ? "a" : "b"));
    ++outcome.attempted;
    const WireObject reply = coordinator.handle(migrate);
    if (!reply.boolean_or("ok", false)) {
      std::fprintf(stderr, "state_move: migrate failed: %s\n",
                   reply.text_or("error", "?").c_str());
      ++outcome.failed;
      continue;
    }
    owner = 1 - owner;
    pauses.push_back(reply.number("pause_ms"));
    if (args.trace) {
      time_migration_codec(*members[static_cast<std::size_t>(owner)], layers);
    }
  }

  // The migrated shard against a never-migrated restore of the same file.
  // The member that gave the shard away is shut down first, so no more
  // than two deployments are ever alive at once.
  const auto stop = [](ShardedService& member) {
    member.begin_shutdown();
    member.join();
  };
  auto& moved_to = *members[static_cast<std::size_t>(owner)];
  stop(*members[static_cast<std::size_t>(1 - owner)]);
  members[static_cast<std::size_t>(1 - owner)].reset();
  auto reference = std::make_unique<ShardedService>(config);
  reference->restore(checkpoint_path);
  {
    CompareBuf compare(checkpoint_path);
    std::ostream resaved(&compare);
    reference->save_state(resaved);
    if (!compare.matches()) {
      throw CheckFailure(
          "state_move: re-saving the restored deployment does not "
          "reproduce the checkpoint bytes");
    }
  }
  for (const Request& probe : probe_sequence()) {
    outcome.attempted += 2;
    const Response moved = call(moved_to, probe);
    const Response stayed = call(*reference, probe);
    outcome.failed += (moved.ok ? 0 : 1) + (stayed.ok ? 0 : 1);
    const std::string a = melody::svc::format_response(moved);
    const std::string b = melody::svc::format_response(stayed);
    if (a != b) {
      throw CheckFailure("state_move: migrated shard answered " + a +
                         " where a never-migrated shard answered " + b);
    }
  }
  stop(moved_to);
  std::error_code ec;
  fs::remove_all(dir, ec);

  std::printf("state_move: checkpoint %.1f MB, checkpoint %.3f s, restore "
              "%.3f s, migration pause %.1f ms (medians of %zu, %zu, %zu)\n",
              static_cast<double>(checkpoint_size) / 1e6,
              median(checkpoint_s), median(restore_s), median(pauses),
              checkpoint_s.size(), restore_s.size(), pauses.size());
  if (!args.trace) {
    // A round is one checkpoint, one restore and one migration hop: the
    // i-th of each. Its time is homogeneous across rounds, where the three
    // kinds of state move, pooled, would give a percentile that jumps
    // between kinds.
    const std::size_t rounds =
        std::min({checkpoint_s.size(), restore_s.size(), pauses.size()});
    std::vector<double> round_ms;
    double total_ms = 0.0;
    for (std::size_t i = 0; i < rounds; ++i) {
      round_ms.push_back((checkpoint_s[i] + restore_s[i]) * 1e3 + pauses[i]);
      total_ms += round_ms.back();
    }
    outcome.set("setup_s", median(setups));
    outcome.set("ops_per_s", 3.0 * static_cast<double>(rounds) * 1e3 / total_ms);
    outcome.set("latency_p50_ms", quantile(round_ms, 0.50));
    outcome.set("latency_p90_ms", quantile(round_ms, 0.90));
    outcome.set("state_mb", static_cast<double>(checkpoint_size) / 1e6);
    outcome.set("est_error", est_error);
    outcome.set("requester_utility", utility);
    return outcome;
  }

  double max_save = 0.0, sum_load = 0.0;
  for (int s = 0; s < kShards; ++s) {
    max_save = std::max(max_save, median(layers.save_ms[s]));
    sum_load += median(layers.load_ms[s]);
  }
  const double mig_save = median(layers.migration_save_ms);
  const double mig_load = median(layers.migration_load_ms);
  const double pause = median(pauses);
  // One ledger for the workload: a checkpoint, a restore and a migration
  // hop against the codec calls inside them, each timed by its own call.
  const double checkpoint_ms = median(traced_checkpoint_s) * 1e3;
  const double restore_ms = median(traced_restore_s) * 1e3;
  const Ledger ledger{
      .title = "state_move: one checkpoint + one restore + one migration hop",
      .unit = "ms",
      .whole = checkpoint_ms + restore_ms + pause,
      .parts = {{"svc.service_save (slowest shard)", max_save},
                {"svc.service_load (all shards)", sum_load},
                {"svc.migration_save", mig_save},
                {"svc.migration_load", mig_load}},
      .tolerance = (iqr(traced_checkpoint_s) + iqr(traced_restore_s)) * 1e3 +
                   iqr(pauses)};
  std::printf("whole: checkpoint %.3f ms, restore %.3f ms, migration pause "
              "%.3f ms\n", checkpoint_ms, restore_ms, pause);
  ledger.print_and_check();
  std::printf("  unexplained remainder = composing and writing the checkpoint "
              "file, reading and splitting it, and cluster.pause_residual "
              "(detach, envelope file, rpc, flip)\n");

  outcome.set("svc.checkpoint_ms", checkpoint_ms);
  outcome.set("svc.restore_ms", restore_ms);
  outcome.set("cluster.migration_pause_ms", pause);
  outcome.set("svc.service_save_ms", median(layers.save_ms[kMigratingShard]));
  outcome.set("svc.service_load_ms", median(layers.load_ms[kMigratingShard]));
  outcome.set("sim.platform_save_ms", median(layers.platform_save_ms));
  outcome.set("svc.shard_blob_mb", layers.shard_blob_mb);
  outcome.set("sim.platform_blob_mb", layers.platform_blob_mb);
  outcome.set("svc.migration_save_ms", mig_save);
  outcome.set("svc.migration_load_ms", mig_load);
  outcome.set("cluster.pause_residual_ms", pause - mig_save - mig_load);
  outcome.set("trace.overhead_frac", median(traced_pair_s) / median(plain_pair_s));
  return outcome;
}

}  // namespace e2ebench
