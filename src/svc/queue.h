// Thread-safe bounded MPSC queue in front of one shard's service.
//
// Producers (the epoll front end, the stdio driver, the router's
// broadcasts) call try_push, which NEVER blocks: a full queue is reported
// to the caller so it can answer the client with an explicit overload
// rejection (backpressure) instead of stalling the socket and hiding the
// pressure from everyone. The single consumer (the shard's consumer
// thread, or the caller of PlatformShard::poll_once) takes items in
// batches with pop_batch_for: one lock and one wait per batch, not per
// item. A popped item still holds its slot until the consumer release()s
// it, so capacity bounds everything accepted and not yet finished — a
// consumer working through a batch never lets producers admit more than a
// one-item-at-a-time consumer would.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace melody::svc {

enum class PushResult {
  kOk,      // enqueued; the consumer will see it
  kFull,    // at capacity — reject the request with retry-after
  kClosed,  // queue closed (shutdown in progress) — reject permanently
};

template <typename T>
class BoundedQueue {
 public:
  /// Capacity must be at least 1; a zero-capacity queue could never accept.
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking enqueue with explicit backpressure: kFull while queued
  /// plus popped-but-unreleased items reach the capacity.
  PushResult try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() + popped_ >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return PushResult::kOk;
  }

  /// Enqueue past the capacity bound — control-plane items (coordinated
  /// checkpoint barriers) that must not be lost to request backpressure.
  /// These are rare and internally generated, so they cannot grow the queue
  /// unboundedly; a closed queue still refuses (kClosed).
  PushResult push_force(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return PushResult::kOk;
  }

  /// Blocking batch dequeue: wait up to `timeout` for an item, then move
  /// up to `max` (>= 1) items from the head, in FIFO order, onto the back
  /// of `out`. Returns how many it moved: 0 on timeout, or when the
  /// queue was closed and fully drained (check closed() to tell apart).
  /// The moved items keep counting against the capacity until release().
  std::size_t pop_batch_for(std::chrono::nanoseconds timeout, std::size_t max,
                            std::vector<T>& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait_for(lock, timeout,
                    [this] { return !items_.empty() || closed_; });
    const std::size_t n = std::min(items_.size(), max);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    popped_ += n;
    return n;
  }

  /// Give back the slots of `n` items pop_batch_for handed out.
  void release(std::size_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    popped_ -= n;
  }

  /// Stop accepting new items; queued items remain poppable (drain).
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Items waiting to be popped (popped-but-unreleased ones excluded).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  /// True while a try_push now would be rejected as kFull.
  bool full() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size() + popped_ >= capacity_;
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  std::size_t popped_ = 0;  // handed out by pop_batch_for, not yet released
  bool closed_ = false;
};

}  // namespace melody::svc
