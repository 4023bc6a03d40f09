// Deterministic load-generation building blocks shared by melody_loadgen
// and its regression tests.
//
// make_request is the pure request stream: request k of client c is a
// function of (seed, c, k) alone — counter-based RNG, no sequential state —
// so a given seed/clients/requests triple replays the identical operation
// mix regardless of scheduling, socket timing, or retries.
//
// OpenLoopSchedule is the open-loop pacing policy with deterministic
// retry: fresh request k is due at epoch + k/rate on a fixed grid that
// NEVER shifts — an overload rejection schedules a re-send of the same
// request after its retry_after_ms hint without perturbing when the fresh
// requests go out. (The old generator silently dropped rejected requests
// AND let retry sleeps skew the arrival grid, which made rejected runs
// non-reproducible and under-counted offered load.)
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "svc/protocol.h"

namespace melody::svc::loadgen {

/// Shape of the generated request streams.
struct StreamConfig {
  std::uint64_t seed = 1;
  /// Server worker name space: scenario names are w0..w{workers-1}.
  std::int64_t workers = 300;
  /// Budget scale carried by generated submit_tasks requests.
  double task_budget = 800.0;
  /// Must be kProtoVersion, the one protocol version; make_request throws
  /// std::invalid_argument for any other value.
  int proto = kProtoVersion;
};

/// The deterministic request stream: request `index` of client `client` is
/// a pure function of (config.seed, client, index).
///
/// Mix: 62% submit_bid, 2% newcomer registration ("lg<c>_<k>"),
/// 6% update_bid, 2% withdraw_bid, 10% submit_tasks, 10% query_worker,
/// 5% query_run, 3% stats.
Request make_request(const StreamConfig& config, int client, int index);

/// Open-loop pacing with deterministic retry. Time is "seconds since the
/// client's epoch" supplied by the caller, so tests drive it with a
/// synthetic clock. Not internally synchronized — the loadgen's sender and
/// receiver threads share it under one lock.
class OpenLoopSchedule {
 public:
  /// `rate` is fresh requests per second (<= 0: all due immediately);
  /// `max_retries` bounds re-sends per rejected request.
  OpenLoopSchedule(int total_requests, double rate, int max_retries = 4);

  struct Action {
    enum class Kind { kSend, kWait, kDone };
    Kind kind = Kind::kDone;
    int index = 0;          // request index to send (kSend)
    bool is_retry = false;  // re-send of a previously rejected request
    double wait_until = 0.0;  // seconds since epoch to sleep to (kWait)
  };

  /// What the sender should do at time `now`: due retries go first (they
  /// are already late), then the fresh grid, else wait / done. kDone means
  /// every fresh request was sent and no retry is pending.
  Action next(double now);

  /// The response for `index` came back overloaded at `now`; schedule a
  /// re-send after retry_after_ms. Returns false when the request's retry
  /// budget is exhausted (the caller counts it as dropped).
  bool note_rejected(int index, double now, double retry_after_ms);

  /// Fresh-grid due time of request k (epoch + k/rate) — exposed so tests
  /// can assert the grid never shifts.
  double fresh_due(int index) const noexcept {
    return static_cast<double>(index) * interval_s_;
  }

  int fresh_sent() const noexcept { return next_fresh_; }
  int retries_sent() const noexcept { return retries_sent_; }
  int retries_dropped() const noexcept { return retries_dropped_; }

 private:
  struct Retry {
    double due = 0.0;
    int index = 0;
    // Earliest due first; ties break on index so ordering is total.
    bool operator>(const Retry& other) const noexcept {
      return due != other.due ? due > other.due : index > other.index;
    }
  };

  int total_;
  double interval_s_;
  int max_retries_;
  int next_fresh_ = 0;
  int retries_sent_ = 0;
  int retries_dropped_ = 0;
  std::vector<int> attempts_;
  std::priority_queue<Retry, std::vector<Retry>, std::greater<Retry>>
      retries_;
};

}  // namespace melody::svc::loadgen
