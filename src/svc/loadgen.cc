#include "svc/loadgen.h"

#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace melody::svc::loadgen {

Request make_request(const StreamConfig& config, int client, int index) {
  if (config.proto != kProtoVersion) {
    throw std::invalid_argument(
        "loadgen: proto " + std::to_string(config.proto) +
        " is not the protocol version " + std::to_string(kProtoVersion));
  }
  util::Rng rng(util::derive_stream(config.seed,
                                    static_cast<std::uint64_t>(client),
                                    static_cast<std::uint64_t>(index)));
  Request request;
  request.id = static_cast<std::int64_t>(client) * 1000000 + index + 1;
  const double pick = rng.uniform01();
  if (pick < 0.62) {
    request.op = Op::kSubmitBid;
    request.worker =
        "w" + std::to_string(rng.uniform_int(0, config.workers - 1));
  } else if (pick < 0.64) {
    // Newcomer registration: a fresh name carrying a bid.
    request.op = Op::kSubmitBid;
    request.worker =
        "lg" + std::to_string(client) + "_" + std::to_string(index);
    request.has_bid = true;
    request.cost = rng.uniform(1.0, 2.0);
    request.frequency = static_cast<int>(rng.uniform_int(1, 5));
  } else if (pick < 0.70) {
    // Re-bid on a standing scenario worker.
    request.op = Op::kUpdateBid;
    request.worker =
        "w" + std::to_string(rng.uniform_int(0, config.workers - 1));
    request.has_bid = true;
    request.cost = rng.uniform(1.0, 2.0);
    request.frequency = static_cast<int>(rng.uniform_int(1, 5));
  } else if (pick < 0.72) {
    request.op = Op::kWithdrawBid;
    request.worker =
        "w" + std::to_string(rng.uniform_int(0, config.workers - 1));
  } else if (pick < 0.82) {
    request.op = Op::kSubmitTasks;
    request.task_count = static_cast<int>(rng.uniform_int(50, 500));
    request.budget = config.task_budget * rng.uniform(0.05, 0.25);
  } else if (pick < 0.92) {
    request.op = Op::kQueryWorker;
    request.worker =
        "w" + std::to_string(rng.uniform_int(0, config.workers - 1));
  } else if (pick < 0.97) {
    request.op = Op::kQueryRun;
    request.run = static_cast<int>(rng.uniform_int(1, 50));
  } else {
    request.op = Op::kStats;
  }
  return request;
}

OpenLoopSchedule::OpenLoopSchedule(int total_requests, double rate,
                                   int max_retries)
    : total_(total_requests < 0 ? 0 : total_requests),
      interval_s_(rate > 0.0 ? 1.0 / rate : 0.0),
      max_retries_(max_retries < 0 ? 0 : max_retries),
      attempts_(static_cast<std::size_t>(total_), 0) {}

OpenLoopSchedule::Action OpenLoopSchedule::next(double now) {
  if (!retries_.empty() && retries_.top().due <= now) {
    const Retry retry = retries_.top();
    retries_.pop();
    ++retries_sent_;
    return {Action::Kind::kSend, retry.index, true, 0.0};
  }
  if (next_fresh_ < total_ && fresh_due(next_fresh_) <= now) {
    const int index = next_fresh_++;
    return {Action::Kind::kSend, index, false, 0.0};
  }
  double wait = -1.0;
  if (next_fresh_ < total_) wait = fresh_due(next_fresh_);
  if (!retries_.empty() &&
      (wait < 0.0 || retries_.top().due < wait)) {
    wait = retries_.top().due;
  }
  if (wait < 0.0) return {Action::Kind::kDone, 0, false, 0.0};
  return {Action::Kind::kWait, 0, false, wait};
}

bool OpenLoopSchedule::note_rejected(int index, double now,
                                     double retry_after_ms) {
  if (index < 0 || index >= total_) return false;
  auto& attempts = attempts_[static_cast<std::size_t>(index)];
  if (attempts >= max_retries_) {
    ++retries_dropped_;
    return false;
  }
  ++attempts;
  const double delay_s = retry_after_ms > 0.0 ? retry_after_ms / 1000.0 : 0.0;
  retries_.push(Retry{now + delay_s, index});
  return true;
}

}  // namespace melody::svc::loadgen
