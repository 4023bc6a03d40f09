#include "svc/service.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "estimators/factory.h"
#include "lds/gaussian.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/trajectory.h"
#include "util/binio.h"
#include "util/rng.h"

namespace melody::svc {

namespace {

// The MLDYSVCK version namespace is shared with the sharded router's
// composed format, which owns version 2 — the plain service body is
// version 3 (kServiceCheckpointVersion).
constexpr std::string_view kMagic = "MLDYSVCK";
// Live-migration envelope: the MLDYSVCK body plus the session tail a
// checkpoint deliberately omits (request tally, run records).
constexpr std::string_view kMigrationMagic = "MLDYMIGR";
// The u64 fields of a migrated run record: two before its two f64 fields,
// six after them.
using RecordCount = std::size_t sim::RunRecord::*;
constexpr RecordCount kRecordCounts[] = {&sim::RunRecord::estimated_utility,
                                         &sim::RunRecord::true_utility};
constexpr RecordCount kRecordTallies[] = {
    &sim::RunRecord::assignments,    &sim::RunRecord::qualified_workers,
    &sim::RunRecord::no_shows,       &sim::RunRecord::churned_out,
    &sim::RunRecord::scores_dropped, &sim::RunRecord::scores_corrupted};
// Sub-stream salt for newcomer trajectories: outside the per-(worker, run)
// key space Platform::step() uses (runs are small positive integers), so a
// newcomer's curve never aliases a score stream.
constexpr std::uint64_t kNewcomerSalt = 0x4E45'5743'6A6F'696Eull;  // "NEWCjoin"
namespace binio = util::binio;

WireValue of_int(std::int64_t v) { return WireValue::of(v); }

ServiceConfig normalize(ServiceConfig config) {
  config.validate();
  // No trigger configured: one run per full participation round, matching
  // the batch simulator's every-worker-bids-every-run model.
  if (!config.batch.active()) {
    config.batch.min_bids = config.scenario.num_workers;
  }
  return config;
}

}  // namespace

AuctionService::AuctionService(ServiceConfig config)
    : config_(normalize(std::move(config))),
      mechanism_(config_.payment_rule),
      estimator_(
          estimators::make(config_.estimator, config_.estimator_params())),
      registry_(config_.worker_name_offset),
      batcher_(config_.batch) {
  if (estimator_ == nullptr) {
    throw std::invalid_argument("svc: estimator must be one of " +
                                estimators::known_kinds());
  }
  // Mirror melody_sim's construction exactly (same seed derivations) so a
  // manual-clock trace reproduces the batch run bit for bit.
  util::Rng population_rng(config_.seed);
  platform_.emplace(
      config_.scenario, mechanism_, *estimator_,
      sim::sample_population(config_.scenario.population_config(),
                             population_rng),
      config_.seed + 1);
  if (config_.faults.active()) platform_->set_fault_plan(config_.faults);
  for (const auction::WorkerId id : platform_->worker_state().ids()) {
    registry_.bind("w" + std::to_string(config_.worker_name_offset + id), id);
  }
  first_session_run_ = platform_->current_run();
}

obs::Counter& AuctionService::metric_counter(obs::Counter*& slot,
                                             std::string_view name) const {
  if (slot == nullptr) {
    slot = &obs::registry().counter(config_.obs_prefix + std::string(name));
  }
  return *slot;
}

obs::Summary* AuctionService::metric_timer(obs::Summary*& slot,
                                           std::string_view name) const {
  if (!obs::enabled()) return nullptr;
  if (slot == nullptr) {
    slot = &obs::registry().timer(config_.obs_prefix + std::string(name));
  }
  return slot;
}

Response AuctionService::apply(const Request& request) {
  ++requests_total_;
  if (obs::enabled()) {
    metric_counter(requests_metric_, "svc/requests").add();
  }
  obs::ScopedSpan span("svc/apply");
  span.annotate("op", to_string(request.op));
  span.annotate("run", platform_->current_run());
  span.annotate("now", now_);
  obs::ScopedTimer timer(metric_timer(request_timer_, "svc/request_time"));
  try {
    return dispatch(request);
  } catch (const std::exception& e) {
    return Response::failure(request.id, e.what());
  }
}

Response AuctionService::dispatch(const Request& request) {
  Response response = Response::success(request.id);
  switch (request.op) {
    case Op::kHello:
      handle_hello(response);
      break;
    case Op::kSubmitBid:
      handle_submit_bid(request, response);
      break;
    case Op::kUpdateBid:
      handle_update_bid(request, response);
      break;
    case Op::kWithdrawBid:
      handle_withdraw_bid(request, response);
      break;
    case Op::kSubmitTasks:
      handle_submit_tasks(request, response);
      break;
    case Op::kPostScores:
      handle_post_scores(request, response);
      break;
    case Op::kQueryWorker:
      handle_query_worker(request, response);
      break;
    case Op::kQueryRun:
      handle_query_run(request, response);
      break;
    case Op::kRunNow: {
      const int batch = batcher_.pending_bids();
      batcher_.consume(now_);
      execute_one_run(batch);
      response.fields.set("runs_executed", of_int(1));
      response.fields.set("run", of_int(platform_->current_run() - 1));
      break;
    }
    case Op::kTick:
      if (!config_.manual_clock) {
        response = Response::failure(
            request.id, "tick: service is on the real clock (manual-clock "
                        "mode only)");
        break;
      }
      if (!(request.seconds >= 0.0)) {
        response = Response::failure(request.id,
                                     "tick: seconds must be non-negative");
        break;
      }
      now_ += request.seconds;
      execute_due_runs(&response);
      response.fields.set("now", WireValue::of(now_));
      break;
    case Op::kStats:
      handle_stats(response);
      break;
    case Op::kTraceStatus:
      handle_trace_status(response);
      break;
    case Op::kShutdown:
      request_shutdown();
      response.fields.set("runs_total", of_int(platform_->current_run() - 1));
      break;
    case Op::kCheckpoint:
      // Checkpoint files are written by the sharded router, which
      // intercepts this op before apply() and composes save_state bodies.
      response = Response::failure(
          request.id, "checkpoint: sharded deployments only");
      break;
    case Op::kShardExport:
    case Op::kShardImport:
      // Shard handoff is a router-level mechanic (the sharded service
      // intercepts these before apply()); a standalone service has no
      // routing table to hand a shard off from.
      response = Response::failure(
          request.id, std::string(to_string(request.op)) +
                          ": cluster deployments only");
      break;
  }
  return response;
}

void AuctionService::handle_hello(Response& response) {
  response.fields.set("service", WireValue::of("melody_svc"));
  response.fields.set("proto_version", of_int(kProtoVersion));
  // A standalone service is its own single shard; the sharded router
  // overwrites this with the deployment's K.
  response.fields.set("shards", of_int(1));
  response.fields.set("estimator", WireValue::of(estimator_->name()));
  response.fields.set("next_run", of_int(platform_->current_run()));
  response.fields.set("scenario_runs", of_int(config_.scenario.runs));
  response.fields.set("workers", of_int(static_cast<std::int64_t>(
                                     platform_->worker_state().size())));
  response.fields.set("manual_clock", WireValue::of(config_.manual_clock));
  response.fields.set("min_bids", of_int(config_.batch.min_bids));
  response.fields.set("max_delay", WireValue::of(config_.batch.max_delay));
  response.fields.set("budget_target",
                      WireValue::of(config_.batch.budget_target));
  response.fields.set("rolling",
                      WireValue::of(config_.batch.per_task_arrival));
}

void AuctionService::handle_submit_bid(const Request& request,
                                       Response& response) {
  if (request.worker.empty()) {
    response = Response::failure(request.id, "submit_bid: worker required");
    return;
  }
  const auto existing = registry_.find(request.worker);
  auction::WorkerId id = 0;
  bool created = false;
  if (existing.has_value()) {
    id = *existing;
    // A fresh submission supersedes any standing withdrawal.
    platform_->set_withdrawn(id, false);
  } else {
    if (!request.has_bid) {
      response = Response::failure(
          request.id, "submit_bid: unknown worker \"" + request.worker +
                          "\" (newcomers must carry cost and frequency)");
      return;
    }
    if (!std::isfinite(request.cost) || request.cost <= 0.0 ||
        request.frequency < 1) {
      response = Response::failure(
          request.id,
          "submit_bid: newcomer needs cost > 0 and frequency >= 1");
      return;
    }
    id = registry_.intern(request.worker, &created);
    // A newcomer's latent trajectory is sampled from the scenario mix out
    // of a dedicated counter-based stream keyed by his dense id, so joining
    // order and timing never perturb anyone else's randomness.
    util::Rng stream(util::derive_stream(platform_->master_seed(),
                                         kNewcomerSalt,
                                         static_cast<std::uint64_t>(id)));
    const sim::TrajectoryKind kind =
        sim::sample_kind(config_.scenario.mix, stream);
    const sim::TrajectoryConfig trajectory =
        sim::sample_config(kind, config_.scenario.runs, stream);
    platform_->add_worker(sim::SimWorker(
        id, auction::Bid{request.cost, request.frequency},
        sim::TrajectoryStream(trajectory, config_.scenario.runs, stream)));
  }
  registry_.count_bid(id);
  batcher_.note_bid(now_);
  response.fields.set("worker", WireValue::of(request.worker));
  response.fields.set("internal_id", of_int(id));
  if (created) response.fields.set("registered", WireValue::of(true));
  execute_due_runs(&response);
  response.fields.set("pending_bids", of_int(batcher_.pending_bids()));
}

void AuctionService::handle_update_bid(const Request& request,
                                       Response& response) {
  if (request.worker.empty()) {
    response = Response::failure(request.id, "update_bid: worker required");
    return;
  }
  const auto id = registry_.find(request.worker);
  if (!id.has_value()) {
    response = Response::unknown_worker(request.id, request.worker);
    return;
  }
  if (!std::isfinite(request.cost) || request.cost <= 0.0 ||
      request.frequency < 1) {
    response = Response::failure(
        request.id, "update_bid: needs cost > 0 and frequency >= 1");
    return;
  }
  if (!platform_->update_bid(*id,
                             auction::Bid{request.cost, request.frequency})) {
    response = Response::unknown_worker(request.id, request.worker);
    return;
  }
  // A re-bid participates in batching exactly like a submission: it counts
  // toward the count trigger and starts the staleness clock.
  registry_.count_bid(*id);
  batcher_.note_bid(now_);
  response.fields.set("worker", WireValue::of(request.worker));
  response.fields.set("internal_id", of_int(*id));
  execute_due_runs(&response);
  response.fields.set("pending_bids", of_int(batcher_.pending_bids()));
}

void AuctionService::handle_withdraw_bid(const Request& request,
                                         Response& response) {
  if (request.worker.empty()) {
    response = Response::failure(request.id, "withdraw_bid: worker required");
    return;
  }
  const auto id = registry_.find(request.worker);
  if (!id.has_value()) {
    response = Response::unknown_worker(request.id, request.worker);
    return;
  }
  platform_->set_withdrawn(*id, true);
  response.fields.set("worker", WireValue::of(request.worker));
  response.fields.set("internal_id", of_int(*id));
  response.fields.set("withdrawn", WireValue::of(true));
}

void AuctionService::handle_submit_tasks(const Request& request,
                                         Response& response) {
  if (request.task_count < 0) {
    response = Response::failure(request.id,
                                 "submit_tasks: count must be non-negative");
    return;
  }
  if (!std::isfinite(request.budget) || request.budget < 0.0) {
    response = Response::failure(
        request.id, "submit_tasks: budget must be finite and non-negative");
    return;
  }
  batcher_.note_budget(request.budget);
  if (request.task_count > 0) batcher_.note_task_arrival();
  execute_due_runs(&response);
  response.fields.set("accrued_budget",
                      WireValue::of(batcher_.accrued_budget()));
  response.fields.set("pending_bids", of_int(batcher_.pending_bids()));
}

void AuctionService::handle_post_scores(const Request& request,
                                        Response& response) {
  const auto id = registry_.find(request.worker);
  if (!id.has_value()) {
    response = Response::failure(
        request.id, "post_scores: unknown worker \"" + request.worker + "\"");
    return;
  }
  if (request.scores.empty()) {
    response =
        Response::failure(request.id, "post_scores: scores must be non-empty");
    return;
  }
  // Scores outside the platform's score range (a NaN included) are refused
  // here: a huge one would overflow the sums the estimator stores, and a
  // checkpoint holding them would not load.
  const sim::ScoreModel& range = platform_->scenario().score_model;
  for (const double s : request.scores) {
    if (!(s >= range.min_score && s <= range.max_score)) {
      response = Response::failure(
          request.id, "post_scores: scores must lie in the score range");
      return;
    }
  }
  // Out-of-band observation: advances this worker's estimator chain by one
  // step, exactly like one platform run's worth of scores. Traces that must
  // stay bit-identical to a batch run simply do not use this op.
  estimator_->observe(*id, lds::ScoreSet::from(request.scores));
  if (obs::enabled()) {
    metric_counter(oob_scores_metric_, "svc/out_of_band_scores")
        .add(request.scores.size());
  }
  response.fields.set("worker", WireValue::of(request.worker));
  response.fields.set("scores", of_int(static_cast<std::int64_t>(
                                    request.scores.size())));
  response.fields.set("estimate", WireValue::of(estimator_->estimate(*id)));
}

void AuctionService::handle_query_worker(const Request& request,
                                         Response& response) {
  const auto id = registry_.find(request.worker);
  if (!id.has_value()) {
    response = Response::failure(
        request.id, "query_worker: unknown worker \"" + request.worker + "\"");
    return;
  }
  response.fields.set("worker", WireValue::of(request.worker));
  response.fields.set("internal_id", of_int(*id));
  response.fields.set("estimate", WireValue::of(estimator_->estimate(*id)));
  response.fields.set("total_utility",
                      WireValue::of(platform_->worker_total_utility(*id)));
  response.fields.set("bids_submitted", of_int(static_cast<std::int64_t>(
                                            registry_.bids_submitted(*id))));
}

void AuctionService::handle_query_run(const Request& request,
                                      Response& response) {
  const int first = first_session_run_;
  const int last = first + static_cast<int>(records_.size()) - 1;
  if (request.run < 1) {
    response = Response::failure(request.id, "query_run: run is 1-based");
    return;
  }
  if (request.run < first) {
    response = Response::failure(
        request.id, "query_run: run " + std::to_string(request.run) +
                        " predates this session (run records are not part of "
                        "a checkpoint)");
    return;
  }
  if (request.run > last) {
    response = Response::failure(
        request.id, "query_run: run " + std::to_string(request.run) +
                        " has not executed yet");
    return;
  }
  const sim::RunRecord& r =
      records_[static_cast<std::size_t>(request.run - first)];
  response.fields.set("run", of_int(r.run));
  response.fields.set("estimated_utility",
                      of_int(static_cast<std::int64_t>(r.estimated_utility)));
  response.fields.set("true_utility",
                      of_int(static_cast<std::int64_t>(r.true_utility)));
  response.fields.set("estimation_error", WireValue::of(r.estimation_error));
  response.fields.set("total_payment", WireValue::of(r.total_payment));
  response.fields.set("assignments",
                      of_int(static_cast<std::int64_t>(r.assignments)));
  response.fields.set("qualified_workers",
                      of_int(static_cast<std::int64_t>(r.qualified_workers)));
  if (platform_->fault_plan().active()) {
    response.fields.set("no_shows",
                        of_int(static_cast<std::int64_t>(r.no_shows)));
    response.fields.set("churned_out",
                        of_int(static_cast<std::int64_t>(r.churned_out)));
    response.fields.set("scores_dropped",
                        of_int(static_cast<std::int64_t>(r.scores_dropped)));
    response.fields.set(
        "scores_corrupted",
        of_int(static_cast<std::int64_t>(r.scores_corrupted)));
  }
}

void AuctionService::handle_stats(Response& response) {
  response.fields.set("next_run", of_int(platform_->current_run()));
  response.fields.set("runs_total", of_int(platform_->current_run() - 1));
  response.fields.set("runs_this_session",
                      of_int(static_cast<std::int64_t>(records_.size())));
  response.fields.set("pending_bids", of_int(batcher_.pending_bids()));
  response.fields.set("accrued_budget",
                      WireValue::of(batcher_.accrued_budget()));
  response.fields.set("workers", of_int(static_cast<std::int64_t>(
                                     platform_->worker_state().size())));
  response.fields.set("sessions",
                      of_int(static_cast<std::int64_t>(registry_.size())));
  response.fields.set("requests",
                      of_int(static_cast<std::int64_t>(requests_total_)));
  response.fields.set("overload_rejects",
                      of_int(static_cast<std::int64_t>(overload_rejects_)));
  response.fields.set("queue_depth",
                      of_int(static_cast<std::int64_t>(last_queue_depth_)));
  response.fields.set("finished", WireValue::of(platform_->finished()));
}

void AuctionService::handle_trace_status(Response& response) {
  // Live introspection of the tracing layer plus this shard's phase-latency
  // percentiles, read from the same obs registry the instrumentation
  // records into (under this shard's namespace). The router's merge
  // re-homes these fields under "shard<k>/..." and sums the tallies, so a
  // K-shard deployment answers with per-shard and union views at once.
  // With tracing off the timer stats are simply zero.
  response.fields.set("tracing", WireValue::of(obs::enabled()));
  response.fields.set("spans",
                      of_int(static_cast<std::int64_t>(obs::spans_emitted())));
  response.fields.set("requests",
                      of_int(static_cast<std::int64_t>(requests_total_)));
  response.fields.set("runs", of_int(platform_->current_run() - 1));
  const auto add_timer = [this, &response](const std::string& label,
                                           std::string_view metric) {
    const obs::Summary::Stats stats =
        obs::registry()
            .timer(config_.obs_prefix + std::string(metric))
            .stats();
    response.fields.set(label + "_count",
                        of_int(static_cast<std::int64_t>(stats.count)));
    response.fields.set(label + "_p50_ms", WireValue::of(stats.p50 * 1e3));
    response.fields.set(label + "_p90_ms", WireValue::of(stats.p90 * 1e3));
    response.fields.set(label + "_p99_ms", WireValue::of(stats.p99 * 1e3));
  };
  add_timer("request_time", "svc/request_time");
  add_timer("run_time", "svc/run_time");
}

int AuctionService::execute_due_runs(Response* response) {
  int executed = 0;
  while (batcher_.should_fire(now_)) {
    const int batch = batcher_.pending_bids();
    batcher_.consume(now_);
    execute_one_run(batch);
    ++executed;
  }
  if (executed > 0 && response != nullptr) {
    response->fields.set("runs_executed", of_int(executed));
    response->fields.set("run", of_int(platform_->current_run() - 1));
  }
  return executed;
}

void AuctionService::execute_one_run(int batch_bids) {
  {
    obs::ScopedSpan span("svc/run");
    span.annotate("run", platform_->current_run());
    span.annotate("batch_bids", batch_bids);
    obs::ScopedTimer timer(metric_timer(run_timer_, "svc/run_time"));
    records_.push_back(platform_->step());
  }
  if (obs::enabled()) {
    metric_counter(runs_metric_, "svc/runs").add();
    if (batch_summary_ == nullptr) {
      batch_summary_ =
          &obs::registry().summary(config_.obs_prefix + "svc/batch_size");
    }
    batch_summary_->record(batch_bids);
  }
  if (config_.exit_after_runs > 0 &&
      static_cast<int>(records_.size()) >= config_.exit_after_runs) {
    shutdown_requested_ = true;
  }
}

int AuctionService::poll_batches() { return execute_due_runs(nullptr); }

void AuctionService::advance_clock(double seconds_since_start) {
  if (config_.manual_clock) return;
  now_ = std::max(now_, seconds_since_start);
}

double AuctionService::seconds_until_deadline() const noexcept {
  return batcher_.seconds_until_deadline(now_);
}

void AuctionService::note_queue_depth(std::size_t depth) {
  last_queue_depth_ = depth;
  if (obs::enabled()) {
    if (queue_gauge_ == nullptr) {
      queue_gauge_ =
          &obs::registry().gauge(config_.obs_prefix + "svc/queue_depth");
    }
    queue_gauge_->set(static_cast<double>(depth));
  }
}

void AuctionService::set_run_hook(
    std::function<void(const sim::RunRecord&)> hook) {
  platform_->set_run_hook(std::move(hook));
}

void AuctionService::note_control_request() {
  ++requests_total_;
  if (obs::enabled()) {
    metric_counter(requests_metric_, "svc/requests").add();
  }
}

void AuctionService::note_overload_reject() {
  ++overload_rejects_;
  if (obs::enabled()) {
    metric_counter(rejects_metric_, "svc/overload_rejects").add();
  }
}

void AuctionService::save_state(binio::Writer& out) const {
  obs::ScopedSpan span("svc/checkpoint_save");
  span.annotate("run", platform_->current_run() - 1);
  const std::size_t start = out.bytes().size();
  out.write_header(kMagic, kServiceCheckpointVersion);
  out.write_f64(now_);
  out.write_i32(batcher_.pending_bids());
  out.write_f64(batcher_.oldest_bid_time());
  out.write_f64(batcher_.accrued_budget());
  out.write_i32(batcher_.pending_arrivals());
  registry_.save(out);
  platform_->save(out);
  last_body_size_.store(out.bytes().size() - start, std::memory_order_relaxed);
}

void AuctionService::load_state(binio::Reader& in) {
  obs::ScopedSpan span("svc/checkpoint_load");
  const std::size_t start = in.position();
  in.read_header(kMagic, kServiceCheckpointVersion);
  const double now = in.read_f64("svc clock");
  const int pending = in.read_i32("svc pending bids");
  const double oldest = in.read_f64("svc oldest bid time");
  const double accrued = in.read_f64("svc accrued budget");
  const int arrivals = in.read_i32("svc pending arrivals");
  // The registry commits only once the platform has loaded: a body cut
  // short inside the platform leaves the whole service as it was.
  SessionRegistry registry(config_.worker_name_offset);
  registry.load(in);
  platform_->load(in);
  registry_ = std::move(registry);
  now_ = now;
  batcher_.restore(pending, oldest, accrued, arrivals);
  first_session_run_ = platform_->current_run();
  records_.clear();
  last_body_size_.store(in.position() - start, std::memory_order_relaxed);
}

void AuctionService::save_migration(binio::Writer& out) const {
  obs::ScopedSpan span("svc/migration_save");
  span.annotate("run", platform_->current_run() - 1);
  out.write_header(kMigrationMagic, kMigrationVersion);
  // The checkpoint body rides as one length-prefixed blob so the envelope
  // can evolve its tail without touching the MLDYSVCK layout.
  out.write_blob([this](binio::Writer& body) { save_state(body); });
  out.write_u64(requests_total_);
  out.write_u64(overload_rejects_);
  out.write_i32(first_session_run_);
  out.write_u64(static_cast<std::uint64_t>(records_.size()));
  for (const sim::RunRecord& r : records_) {
    out.write_i32(r.run);
    for (const RecordCount field : kRecordCounts) out.write_u64(r.*field);
    out.write_f64(r.estimation_error);
    out.write_f64(r.total_payment);
    for (const RecordCount field : kRecordTallies) out.write_u64(r.*field);
  }
}

void AuctionService::load_migration(binio::Reader& in) {
  obs::ScopedSpan span("svc/migration_load");
  in.read_header(kMigrationMagic, kMigrationVersion);
  {
    binio::Reader body(in.read_bytes("migration checkpoint"));
    load_state(body);  // resets records_ / first_session_run_; tail follows
  }
  requests_total_ = in.read_u64("migration requests");
  overload_rejects_ = in.read_u64("migration overload rejects");
  first_session_run_ = in.read_i32("migration first run");
  const std::uint64_t count = in.read_u64("migration record count");
  records_.clear();
  // A run record is i32 run | 10 x 8-byte fields.
  in.reserve(records_, count, 4 + 10 * 8, "migration record count");
  for (std::uint64_t k = 0; k < count; ++k) {
    sim::RunRecord& r = records_.emplace_back();
    r.run = in.read_i32("migration record");
    for (const RecordCount field : kRecordCounts) {
      r.*field = in.read_u64("migration record");
    }
    r.estimation_error = in.read_f64("migration record");
    r.total_payment = in.read_f64("migration record");
    for (const RecordCount field : kRecordTallies) {
      r.*field = in.read_u64("migration record");
    }
  }
}

void AuctionService::reserve_next_body(binio::Writer& out) const {
  const std::size_t last = last_body_size();
  out.reserve(out.bytes().size() + last + last / 4);
}

void AuctionService::save_state(std::ostream& out) const {
  binio::write_stream(out, "svc: checkpoint", [this](binio::Writer& w) {
    reserve_next_body(w);
    save_state(w);
  });
}

void AuctionService::load_state(std::istream& in) {
  binio::read_stream(in, "svc: checkpoint",
                     [this](binio::Reader& r) { load_state(r); });
}

void AuctionService::save_migration(std::ostream& out) const {
  binio::write_stream(out, "svc: migration", [this](binio::Writer& w) {
    reserve_next_body(w);
    save_migration(w);
  });
}

void AuctionService::load_migration(std::istream& in) {
  binio::read_stream(in, "svc: migration",
                     [this](binio::Reader& r) { load_migration(r); });
}

}  // namespace melody::svc
