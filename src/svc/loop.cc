#include "svc/loop.h"

#include <algorithm>

namespace melody::svc {

namespace {
// Poll timeout while idle: short enough that shutdown and real-clock
// deadline checks stay responsive, long enough not to spin.
constexpr std::chrono::milliseconds kIdleTick{50};
}  // namespace

PushResult ServiceLoop::try_submit(Request request,
                                   std::function<void(const Response&)> done,
                                   const obs::TraceContext& trace) {
  const PushResult result = queue_.try_push(
      Envelope{std::move(request), std::move(done), nullptr, trace});
  if (result != PushResult::kOk) service_.note_overload_reject();
  return result;
}

PushResult ServiceLoop::submit_task(
    std::function<void(AuctionService&)> task) {
  return queue_.push_force(Envelope{Request{}, nullptr, std::move(task), {}});
}

Response ServiceLoop::rejection(PushResult result,
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

void ServiceLoop::run() {
  const auto epoch = std::chrono::steady_clock::now();
  for (;;) {
    service_.advance_clock(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
            .count());
    // Wake early for a pending deadline batch so max_delay is honored even
    // with an empty queue.
    std::chrono::nanoseconds timeout = kIdleTick;
    const double until = service_.seconds_until_deadline();
    if (until >= 0.0) {
      timeout = std::min<std::chrono::nanoseconds>(
          timeout, std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::duration<double>(std::max(until, 0.0))));
    }
    std::optional<Envelope> envelope = queue_.pop_for(timeout);
    service_.advance_clock(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
            .count());
    if (envelope.has_value()) {
      process(*envelope);
    } else {
      service_.poll_batches();
    }
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

bool ServiceLoop::poll_once(std::chrono::nanoseconds timeout) {
  std::optional<Envelope> envelope = queue_.pop_for(timeout);
  if (!envelope.has_value()) {
    service_.poll_batches();
    return false;
  }
  process(*envelope);
  return true;
}

void ServiceLoop::process(Envelope& envelope) {
  service_.note_queue_depth(queue_.size());
  if (envelope.task) {
    envelope.task(service_);
    return;
  }
  // Install the frame's root context for the apply; free when inactive.
  obs::ScopedTraceContext install(envelope.trace);
  const Response response = service_.apply(envelope.request);
  if (envelope.done) envelope.done(response);
}

}  // namespace melody::svc
