// Nonblocking epoll front end for melody_serve: one event-loop thread
// multiplexes every TCP connection (accept/read/write state machines,
// per-connection line framing) and feeds the sharded service's bounded
// queues. This replaces the thread-per-connection server — the accept path
// no longer spawns anything, so hundreds of idle clients cost file
// descriptors and buffers, not stacks.
//
// Flow of one request line:
//   read(2) → framing buffer → answer_frame (svc/frame.h: the parse /
//     trace / record / submit path shared with stdio and replay)
//     → shard consumer thread pops a batch of envelopes and applies them
//       in order → each done callback posts a Completion under a mutex;
//       only the one that finds the list empty writes the eventfd → the
//       event loop swaps the whole list out, files every completion into
//       its connection's reorder map, then flushes each touched
//       connection once → write buffer → one write(2) per connection
//
// Ordering: responses go out in request order per connection even though
// shards complete out of order — each accepted line consumes a sequence
// number (parse errors, unsupported ops and overload rejections too, since
// they answer inline; blank lines consume none) and completions wait in a per-connection reorder map
// until their turn. Backpressure is unchanged from the threaded server: a
// full shard queue answers "overloaded" + retry_after_ms immediately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "svc/frame.h"
#include "svc/router.h"

namespace melody::svc {

class TraceRecorder;

struct EventLoopOptions {
  /// TCP port to listen on; 0 picks a free port (tests) — read it back
  /// with actual_port() after listen().
  int port = 7117;
  /// Hard cap on one buffered request line; a client exceeding it gets a
  /// protocol error and its connection closed (a framing bug, not load).
  std::size_t max_line = 1 << 20;
  /// Polled between epoll waits; return true to begin the drain shutdown
  /// (the SIGINT flag). The loop also drains when a shutdown op lands.
  std::function<bool()> should_stop;
  /// Optional wire-trace recorder (melody_serve --trace-out). run() writes
  /// the session header; every frame is recorded — inbound lines with
  /// their routing decision and root span id, outbound lines in flush
  /// order. Borrowed; the caller finish()es it after run() returns.
  TraceRecorder* recorder = nullptr;
};

/// Tallies of one serve session: the operator drain-summary line, and —
/// through the stats op's loop_* / connections fields — live introspection
/// (the event loop augments stats replies with a snapshot of these before
/// the response leaves).
struct EventLoopStats {
  std::uint64_t accepted = 0;  // connections accepted
  FrameTally frames;           // lines answered, over every connection
  std::uint64_t flushes = 0;   // flush_ready calls that appended a reply
};

class EventLoop {
 public:
  /// The service must outlive the loop. start() the shards before run().
  EventLoop(ShardedService& service, EventLoopOptions options);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Bind + listen + set up epoll/eventfd. Throws std::runtime_error.
  void listen();

  /// The bound port (after listen(); differs from options.port when 0).
  int actual_port() const noexcept { return actual_port_; }

  /// Run until should_stop() or a shutdown op, then drain: stop accepting,
  /// close the shard queues, join the consumer threads, flush every
  /// pending response. Call from the serving thread.
  EventLoopStats run();

 private:
  struct Connection;
  // One response ready to leave: posted from shard consumer threads (or
  // inline for loop-answered errors), reordered per connection by seq.
  struct Completion {
    std::uint64_t conn = 0;
    std::uint64_t seq = 0;
    std::string line;
    bool close_after = false;
  };

  void accept_ready();
  void post_completion(Completion completion);
  void drain_completions();
  void handle_readable(Connection* conn);
  void handle_writable(Connection* conn);
  void handle_line(Connection* conn, std::string_view line);
  void answer_inline(Connection* conn, std::uint64_t seq, std::string line,
                     bool close_after = false);
  void flush_ready(Connection* conn);
  void try_write(Connection* conn);
  void update_write_interest(Connection* conn, bool want);
  void destroy(Connection* conn);
  void drain_and_exit();

  ShardedService& service_;
  EventLoopOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  int actual_port_ = 0;
  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::mutex completions_mutex_;
  std::vector<Completion> completions_;
  // Loop-thread scratch of drain_completions, kept for its capacity: the
  // batch swapped out of completions_ and the ids of the connections it
  // filed replies for, in first-touch order.
  std::vector<Completion> drained_;
  std::vector<std::uint64_t> touched_;
  EventLoopStats stats_;
};

}  // namespace melody::svc
