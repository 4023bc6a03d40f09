// Deterministic fork-join loops on top of util::ThreadPool.
//
// parallel_for(pool, n, fn) runs fn(i) for every i in [0, n). Indices are
// claimed in contiguous chunks through one atomic counter — no work
// stealing — and callers must write results by index only, so the output
// is bit-identical to the serial loop for any thread count (including
// pool == nullptr, which *is* the serial loop).
//
// The calling thread participates in the loop. That makes nesting safe: a
// parallel_for issued from inside a pool task always makes progress even
// when every pool thread is busy, because the caller drains the remaining
// chunks itself. Helper tasks that wake up after the loop finished find no
// chunks left and exit without touching the loop body.
//
// The first exception thrown by the body aborts the remaining chunks and
// is rethrown on the calling thread after every claimed chunk retired.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace melody::util {

namespace internal {

/// Fork-join bookkeeping shared between the caller and the helper tasks.
/// Helpers hold it via shared_ptr, so a helper that wakes up after the
/// caller already returned touches only this block, never the loop body.
struct ParallelForState {
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> abort{false};
  std::size_t total_chunks = 0;
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t retired_chunks = 0;  // guarded by mutex
  std::exception_ptr error;        // guarded by mutex; first one wins
};

}  // namespace internal

template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t n, Body&& body,
                  std::size_t min_grain = 1) {
  if (n == 0) return;
  const std::size_t helpers = pool == nullptr ? 0 : pool->size();
  if (helpers == 0 || n <= std::max<std::size_t>(min_grain, 1)) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Fork-join region wall time (the caller-observed cost of going
  // parallel); nullptr — and therefore free — unless obs is enabled.
  obs::ScopedTimer region_timer(
      obs::timer_if_enabled("pool/parallel_region"));

  // Static chunking: ~4 chunks per participant smooths imbalance without
  // per-index claiming overhead; min_grain keeps tiny bodies batched.
  const std::size_t participants = helpers + 1;
  const std::size_t chunk =
      std::max({min_grain, std::size_t{1}, n / (4 * participants)});
  auto state = std::make_shared<internal::ParallelForState>();
  state->total_chunks = (n + chunk - 1) / chunk;

  // Every claimed chunk is retired exactly once, even after an abort (the
  // body is skipped but the chunk still counts), so the caller's wait for
  // retired == total guarantees no thread is inside the body when this
  // frame — and the body captured by reference — goes away.
  auto run_chunks = [state, chunk, n, &body] {
    std::size_t retired = 0;
    for (;;) {
      const std::size_t c =
          state->next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= state->total_chunks) break;
      if (!state->abort.load(std::memory_order_relaxed)) {
        const std::size_t lo = c * chunk;
        const std::size_t hi = std::min(n, lo + chunk);
        try {
          for (std::size_t i = lo; i < hi; ++i) body(i);
        } catch (...) {
          state->abort.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(state->mutex);
          if (!state->error) state->error = std::current_exception();
        }
      }
      ++retired;
    }
    if (retired > 0) {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->retired_chunks += retired;
      if (state->retired_chunks >= state->total_chunks) {
        state->all_done.notify_all();
      }
    }
  };

  const std::size_t helper_tasks = std::min(helpers, state->total_chunks - 1);
  for (std::size_t h = 0; h < helper_tasks; ++h) pool->post(run_chunks);
  run_chunks();

  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_done.wait(lock, [&state] {
    return state->retired_chunks >= state->total_chunks;
  });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace melody::util
