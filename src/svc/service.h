// AuctionService: the online serving runtime around sim::Platform. One
// instance owns the full mechanism/estimator/platform stack and is driven
// by a single thread (its PlatformShard's consumer in svc/shard.h, or a
// test calling apply() directly); thread-safety lives in the shard's queue
// in front of it, not here.
//
// Execution model: requests mutate accumulation state (pending bids via the
// session registry + RunBatcher, accrued budget), and whenever the batch
// policy fires the service executes Platform::step() — the same auction →
// scoring → estimator-update pipeline the batch tools run, through the same
// AuctionContext entry point. With the service in manual-clock mode
// (--stdin traces, tests) every run outcome is a pure function of the
// request trace, bit-identical to the equivalent melody_sim batch run.
//
// save_state wraps the MLDYCKPT platform snapshot with the service-level
// state (logical clock, batcher accumulation, session registry) under the
// magic "MLDYSVCK". The service does no file I/O: checkpoint files belong
// to ShardedService (svc/router.h), which composes these bodies, so a
// standalone service answers the checkpoint op with a structured failure
// and ignores the config's checkpoint_path / checkpoint_every. Run records
// are not part of a checkpoint — query_run over pre-resume runs reports
// them unavailable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "auction/melody_auction.h"
#include "estimators/estimator.h"
#include "sim/fault.h"
#include "sim/platform.h"
#include "svc/batcher.h"
#include "svc/config.h"
#include "svc/protocol.h"
#include "svc/session.h"

namespace melody::obs {
class Counter;
class Gauge;
class Summary;
}  // namespace melody::obs

namespace melody::svc {

/// MLDYSVCK version of a plain service body (save_state / load_state). The
/// composed router container shares the magic at its own version.
inline constexpr std::uint32_t kServiceCheckpointVersion = 3;
/// MLDYMIGR live-migration envelope version (save_migration).
inline constexpr std::uint32_t kMigrationVersion = 1;

class AuctionService {
 public:
  /// Builds mechanism + estimator + platform exactly as melody_sim does
  /// (same seed derivations), binds the scenario population as
  /// "w<worker_name_offset + id>" in the session registry. Throws
  /// std::invalid_argument on a bad config.
  explicit AuctionService(ServiceConfig config);

  AuctionService(const AuctionService&) = delete;
  AuctionService& operator=(const AuctionService&) = delete;

  /// Process one request. Must only be called from one thread (the shard's
  /// consumer). Never throws: client errors become ok:false responses.
  Response apply(const Request& request);

  /// Fire any due batches without an attached request (deadline trigger
  /// while idle). Returns the number of runs executed.
  int poll_batches();

  /// Real-clock mode: the consumer feeds elapsed seconds; the clock never
  /// goes backwards. No-op in manual-clock mode.
  void advance_clock(double seconds_since_start);

  /// Seconds until the batcher's deadline trigger fires (negative: none
  /// pending) — the consumer's poll timeout hint.
  double seconds_until_deadline() const noexcept;

  /// Queue-side statistics hooks (queue depth gauge, overload tally).
  void note_queue_depth(std::size_t depth);
  void note_overload_reject();

  /// Count one control-plane operation (a coordinated-checkpoint task) in
  /// the request tally, so stats "requests" matches the unsharded service
  /// where the same operation goes through apply().
  void note_control_request();

  /// Observe every run the platform executes (forwarded to
  /// Platform::set_run_hook). Sharded deployments feed cross-shard run
  /// totals and checkpoint cadence through this; the hook runs on the
  /// consumer thread at the end of each step and must not call back into the
  /// service.
  void set_run_hook(std::function<void(const sim::RunRecord&)> hook);

  void request_shutdown() noexcept { shutdown_requested_ = true; }
  bool shutdown_requested() const noexcept { return shutdown_requested_; }

  bool manual_clock() const noexcept { return config_.manual_clock; }
  const ServiceConfig& config() const noexcept { return config_; }
  const sim::Platform& platform() const noexcept { return *platform_; }
  const SessionRegistry& registry() const noexcept { return registry_; }
  const RunBatcher& batcher() const noexcept { return batcher_; }
  /// Records of the runs executed in this session (post-restore only).
  const std::vector<sim::RunRecord>& records() const noexcept {
    return records_;
  }

  /// Serialize / deserialize the full service state (checkpoint body).
  /// load_state replaces the registry, platform state, clock and batcher
  /// accumulation wholesale; call it before any request is applied. Throws
  /// std::runtime_error on malformed input. The stream overloads here and
  /// below are boundary adapters over the Writer / Reader ones (see
  /// util/binio.h).
  void save_state(util::binio::Writer& out) const;
  void load_state(util::binio::Reader& in);
  void save_state(std::ostream& out) const;
  void load_state(std::istream& in);

  /// Serialize / deserialize a live-migration envelope ("MLDYMIGR"): the
  /// MLDYSVCK checkpoint body plus the session state a checkpoint
  /// deliberately drops (request tallies, this session's run records). A
  /// migrated shard must answer every subsequent frame byte-identically to
  /// one that never moved, so the handoff carries what load_state does not.
  void save_migration(util::binio::Writer& out) const;
  void load_migration(util::binio::Reader& in);
  void save_migration(std::ostream& out) const;
  void load_migration(std::istream& in);

  /// Byte length of the last checkpoint body this service saved or loaded
  /// (0 before either): bytes it really built or parsed, never a length
  /// read from input.
  std::size_t last_body_size() const noexcept {
    return last_body_size_.load(std::memory_order_relaxed);
  }

  /// Reserves room in `out` for the next body (or migration envelope) this
  /// service builds: last_body_size() plus a quarter for growth. A body of
  /// about the same size then never regrows its buffer, and reserved pages
  /// it never touches are never faulted in; a larger one grows as usual.
  void reserve_next_body(util::binio::Writer& out) const;

 private:
  Response dispatch(const Request& request);
  void handle_submit_bid(const Request& request, Response& response);
  void handle_update_bid(const Request& request, Response& response);
  void handle_withdraw_bid(const Request& request, Response& response);
  void handle_submit_tasks(const Request& request, Response& response);
  void handle_post_scores(const Request& request, Response& response);
  void handle_query_worker(const Request& request, Response& response);
  void handle_query_run(const Request& request, Response& response);
  void handle_stats(Response& response);
  void handle_trace_status(Response& response);
  void handle_hello(Response& response);

  /// Execute platform runs while the batch policy fires; annotate the
  /// response (if any) with runs_executed / last run index.
  int execute_due_runs(Response* response);
  void execute_one_run(int batch_bids);
  /// &registry().counter(obs_prefix + name), resolved once and cached in
  /// `slot`. Shard-local services register under their plan's "shard<k>/"
  /// prefix; standalone (K=1) services keep the un-prefixed names.
  obs::Counter& metric_counter(obs::Counter*& slot,
                               std::string_view name) const;
  obs::Summary* metric_timer(obs::Summary*& slot, std::string_view name) const;

  ServiceConfig config_;
  auction::MelodyAuction mechanism_;
  std::unique_ptr<estimators::QualityEstimator> estimator_;
  std::optional<sim::Platform> platform_;
  SessionRegistry registry_;
  RunBatcher batcher_;
  std::vector<sim::RunRecord> records_;
  int first_session_run_ = 1;  // current_run() at construction/restore
  double now_ = 0.0;           // service clock, seconds
  std::uint64_t requests_total_ = 0;
  std::uint64_t overload_rejects_ = 0;
  std::size_t last_queue_depth_ = 0;
  bool shutdown_requested_ = false;
  // Set by the const save_state, so atomic: a save may run on any thread
  // that holds the service quiescent.
  mutable std::atomic<std::size_t> last_body_size_{0};
  // Lazily-resolved obs handles under config_.obs_prefix (stable for the
  // registry's lifetime; null until the first enabled use). Per-instance
  // instead of static locals so each shard records under its own names.
  mutable obs::Counter* requests_metric_ = nullptr;
  mutable obs::Counter* runs_metric_ = nullptr;
  mutable obs::Counter* rejects_metric_ = nullptr;
  mutable obs::Counter* oob_scores_metric_ = nullptr;
  mutable obs::Gauge* queue_gauge_ = nullptr;
  mutable obs::Summary* request_timer_ = nullptr;
  mutable obs::Summary* run_timer_ = nullptr;
  mutable obs::Summary* batch_summary_ = nullptr;
};

}  // namespace melody::svc
