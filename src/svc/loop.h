// ServiceLoop: the single consumer thread behind one shard's bounded request
// queue. Producers (the sharded router on behalf of every front end, tests)
// call try_submit from any thread; it never blocks. When the queue is full
// the submission is rejected immediately and the caller sends the client an
// "overloaded" response carrying retry_after_ms — backpressure is explicit
// and visible on the wire, never an unbounded buffer or a silent stall.
//
// The loop thread is the only thread that touches the AuctionService. In
// real-clock mode it feeds the service clock from a steady_clock epoch and
// wakes early for the batcher's deadline trigger, so max_delay batches fire
// even while no requests arrive.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>

#include "obs/trace.h"
#include "svc/protocol.h"
#include "svc/queue.h"
#include "svc/service.h"

namespace melody::svc {

/// One queued request plus the completion callback that delivers its
/// response. The callback runs on the loop thread; it must be cheap and
/// must not call back into the loop. Alternatively an envelope can carry a
/// `task` — an arbitrary closure over the service (coordinated checkpoints
/// save shard state this way); a task envelope's request/done are unused.
/// `trace` is the frame's root trace context (inactive when tracing is
/// off); the consumer thread installs it around apply() so every span the
/// request opens parents on the inbound frame.
struct Envelope {
  Request request;
  std::function<void(const Response&)> done;
  std::function<void(AuctionService&)> task;
  obs::TraceContext trace;
};

class ServiceLoop {
 public:
  ServiceLoop(AuctionService& service, std::size_t queue_capacity)
      : service_(service), queue_(queue_capacity) {}

  /// Enqueue a request from any thread. kFull / kClosed results mean the
  /// request was NOT accepted and `done` will never run — the caller should
  /// send `rejection(...)` to the client instead. `trace` (optional) is the
  /// frame's root trace context, installed around apply() on the consumer
  /// thread.
  PushResult try_submit(Request request,
                        std::function<void(const Response&)> done,
                        const obs::TraceContext& trace = {});

  /// Enqueue a service task past the capacity bound (control plane; see
  /// BoundedQueue::push_force). kClosed means the loop is shutting down and
  /// the task will never run.
  PushResult submit_task(std::function<void(AuctionService&)> task);

  /// The client-facing response for a failed try_submit: "overloaded" with
  /// a retry_after_ms hint sized to the queue, or a terminal "shutting
  /// down" once the queue is closed.
  Response rejection(PushResult result, const Request& request) const;

  /// Run until shutdown is requested and the queue has drained. Call from
  /// the dedicated loop thread.
  void run();

  /// Process at most one queued envelope, waiting up to `timeout` for one,
  /// then fire any due batches. Returns true if an envelope was processed.
  /// This is run()'s body factored out for single-threaded drivers (the
  /// stdio session, tests).
  bool poll_once(std::chrono::nanoseconds timeout);

  /// Stop accepting new requests; queued envelopes still drain.
  void close() { queue_.close(); }

  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t queue_capacity() const noexcept { return queue_.capacity(); }
  AuctionService& service() noexcept { return service_; }

 private:
  void process(Envelope& envelope);

  AuctionService& service_;
  BoundedQueue<Envelope> queue_;
};

}  // namespace melody::svc
