#include "svc/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/trace_log.h"

namespace melody::svc {

namespace {

constexpr int kEpollTimeoutMs = 50;
constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

// In-flight trace bookkeeping for one accepted frame: the minted ids plus
// the monotonic receive time, so the frame_out event can report the
// wall-to-wall latency the client saw. Populated only while tracing is on.
struct FrameTrace {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::chrono::steady_clock::time_point start;
};

// Per-connection state machine: a framing buffer on the read side, a
// reorder map + write buffer on the response side.
struct EventLoop::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  std::string inbuf;
  std::string outbuf;
  std::uint64_t next_seq = 0;    // assigned to the next accepted line
  std::uint64_t next_flush = 0;  // seq whose response leaves next
  std::map<std::uint64_t, Completion> pending;  // out-of-order completions
  std::map<std::uint64_t, FrameTrace> inflight;  // traced frames by seq
  bool want_write = false;  // EPOLLOUT currently registered
  bool read_eof = false;    // peer half-closed; flush remaining, then close
  bool closing = false;     // close once the write buffer drains
  bool touched = false;     // listed in touched_ by the current drain
};

EventLoop::EventLoop(ShardedService& service, EventLoopOptions options)
    : service_(service), options_(std::move(options)) {}

EventLoop::~EventLoop() {
  for (auto& [id, conn] : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw std::runtime_error("event_loop: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    throw std::runtime_error("event_loop: cannot bind port " +
                             std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 1024) < 0) {
    throw std::runtime_error("event_loop: listen() failed");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    actual_port_ = static_cast<int>(ntohs(addr.sin_port));
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::runtime_error("event_loop: epoll_create1() failed");
  }
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (event_fd_ < 0) {
    throw std::runtime_error("event_loop: eventfd() failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // 0: the listener
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    throw std::runtime_error("event_loop: epoll_ctl(listener) failed");
  }
  ev.events = EPOLLIN;
  ev.data.u64 = 1;  // 1: the completion wakeup
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) < 0) {
    throw std::runtime_error("event_loop: epoll_ctl(eventfd) failed");
  }
}

EventLoopStats EventLoop::run() {
  if (epoll_fd_ < 0) throw std::logic_error("event_loop: listen() first");
  if (options_.recorder != nullptr) {
    options_.recorder->begin_session(service_.config());
  }
  epoll_event events[128];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events,
                               static_cast<int>(std::size(events)),
                               kEpollTimeoutMs);
    if (n < 0 && errno != EINTR) {
      throw std::runtime_error("event_loop: epoll_wait() failed");
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == 0) {
        accept_ready();
        continue;
      }
      if (tag == 1) {
        std::uint64_t tick = 0;
        while (::read(event_fd_, &tick, sizeof tick) > 0) {
        }
        drain_completions();
        continue;
      }
      const auto it = connections_.find(tag);
      if (it == connections_.end()) continue;  // closed this iteration
      Connection* conn = it->second.get();
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        destroy(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) handle_readable(conn);
      if (connections_.find(tag) == connections_.end()) continue;
      if ((events[i].events & EPOLLOUT) != 0) handle_writable(conn);
    }
    // Completions may have been posted by shard threads without the
    // eventfd edge landing in this wait; drain opportunistically.
    drain_completions();
    const bool stop_flag = options_.should_stop && options_.should_stop();
    if (stop_flag || service_.shutdown_requested()) {
      drain_and_exit();
      return stats_;
    }
  }
}

void EventLoop::drain_and_exit() {
  // Stop accepting, let the shards drain their queues and exit, deliver
  // every completion they posted, then flush what the sockets will take.
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  service_.begin_shutdown();
  service_.join();
  drain_completions();
  // Bounded flush: pending writes get ~2s of epoll-driven progress.
  for (int spin = 0; spin < 200; ++spin) {
    bool waiting = false;
    for (auto& [id, conn] : connections_) {
      if (!conn->outbuf.empty()) waiting = true;
    }
    if (!waiting) break;
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd_, events,
                               static_cast<int>(std::size(events)), 10);
    for (int i = 0; i < n; ++i) {
      const auto it = connections_.find(events[i].data.u64);
      if (it != connections_.end()) try_write(it->second.get());
    }
  }
  while (!connections_.empty()) destroy(connections_.begin()->second.get());
}

void EventLoop::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EMFILE ||
          errno == ENFILE) {
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = ++next_conn_id_;  // ids 0/1 are the listener/eventfd tags
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      return;
    }
    ++stats_.accepted;
    if (obs::enabled()) {
      static obs::Counter& accepted =
          obs::registry().counter("svc/loop/accepted");
      accepted.add();
    }
    connections_.emplace(conn->id, std::move(conn));
  }
}

void EventLoop::post_completion(Completion completion) {
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    first = completions_.empty();
    completions_.push_back(std::move(completion));
  }
  // One wakeup per batch: a non-empty list already has one on the way, and
  // the loop drains after every epoll wait.
  if (!first) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(event_fd_, &one, sizeof one);
}

void EventLoop::drain_completions() {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    drained_.swap(completions_);
  }
  // File every completion first, then flush each touched connection once:
  // one write(2) per connection per batch instead of one per reply.
  for (Completion& completion : drained_) {
    const auto it = connections_.find(completion.conn);
    if (it == connections_.end()) continue;  // connection died first
    Connection* conn = it->second.get();
    if (!conn->touched) {
      conn->touched = true;
      touched_.push_back(conn->id);
    }
    conn->pending.emplace(completion.seq, std::move(completion));
  }
  drained_.clear();
  // By id: a flush can destroy its own connection.
  for (const std::uint64_t id : touched_) {
    const auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    it->second->touched = false;
    flush_ready(it->second.get());
  }
  touched_.clear();
}

void EventLoop::handle_readable(Connection* conn) {
  char buffer[kReadChunk];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buffer, sizeof buffer);
    if (n > 0) {
      conn->inbuf.append(buffer, static_cast<std::size_t>(n));
      if (conn->inbuf.size() > options_.max_line) {
        // A line this large is a framing bug, not load: answer once and
        // drop the connection (there is no way to resynchronize).
        ++stats_.frames.parse_errors;
        conn->inbuf.clear();
        conn->read_eof = true;  // stop consuming the unframed stream
        ::shutdown(conn->fd, SHUT_RD);
        // May destroy the connection once the error line flushes — touch
        // nothing after this call.
        answer_inline(conn, conn->next_seq++,
                      format_response(Response::failure(
                          0, "protocol: request line too long")),
                      /*close_after=*/true);
        return;
      }
      continue;
    }
    if (n == 0) {
      conn->read_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    destroy(conn);
    return;
  }
  // Answer every complete line in the framing buffer.
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = conn->inbuf.find('\n', start);
    if (nl == std::string::npos) break;
    const std::string_view line(conn->inbuf.data() + start, nl - start);
    start = nl + 1;
    handle_line(conn, line);
    if (connections_.find(conn->id) == connections_.end()) return;
  }
  if (start > 0) conn->inbuf.erase(0, start);
  if (conn->read_eof) {
    if (conn->pending.empty() && conn->outbuf.empty() &&
        conn->next_flush == conn->next_seq) {
      destroy(conn);
    }
    // Otherwise responses are still in flight; they flush, then close.
  }
}

void EventLoop::handle_line(Connection* conn, std::string_view line) {
  const std::uint64_t seq = conn->next_seq;
  FrameResult frame = answer_frame(
      service_, options_.recorder, stats_.frames, conn->id, seq, line,
      [this, conn, seq](const Request& request,
                        const obs::TraceContext& trace) {
        // The frame_in/frame_out pair brackets the frame's entire
        // residence time.
        if (trace.active()) {
          conn->inflight.emplace(
              seq, FrameTrace{trace.trace_id, trace.span_id,
                              std::chrono::steady_clock::now()});
          obs::emit("svc/frame_in",
                    {{"conn", static_cast<std::int64_t>(conn->id)},
                     {"seq", static_cast<std::int64_t>(seq)},
                     {"trace", static_cast<std::int64_t>(trace.trace_id)},
                     {"span", static_cast<std::int64_t>(trace.span_id)}});
        }
        const bool close_after = request.op == Op::kShutdown;
        const std::uint64_t conn_id = conn->id;
        // stats replies get the loop's own tallies appended before they
        // leave — the only live view of front-end state the wire offers.
        // Snapshot here (the loop thread owns stats_); the completion may
        // format on a shard thread. +1 counts this request, matching the
        // service-side tally.
        const bool augment_stats = request.op == Op::kStats;
        EventLoopStats snapshot;
        std::int64_t live_connections = 0;
        if (augment_stats) {
          snapshot = stats_;
          snapshot.frames.requests += 1;
          live_connections = static_cast<std::int64_t>(connections_.size());
        }
        return [this, conn_id, seq, close_after, augment_stats, snapshot,
                live_connections](const Response& response) {
          if (!augment_stats || !response.ok) {
            post_completion(
                {conn_id, seq, format_response(response), close_after});
            return;
          }
          const auto of = [](std::uint64_t n) {
            return WireValue::of(static_cast<std::int64_t>(n));
          };
          Response annotated = response;
          annotated.fields.set("connections",
                               WireValue::of(live_connections));
          annotated.fields.set("loop_accepted", of(snapshot.accepted));
          annotated.fields.set("loop_requests", of(snapshot.frames.requests));
          annotated.fields.set("loop_parse_errors",
                               of(snapshot.frames.parse_errors));
          annotated.fields.set("loop_rejected", of(snapshot.frames.rejected));
          annotated.fields.set("loop_flushes", of(snapshot.flushes));
          post_completion(
              {conn_id, seq, format_response(annotated), close_after});
        };
      });
  if (frame.kind == FrameResult::Kind::kSkipped) return;
  ++conn->next_seq;
  // May destroy the connection — touch nothing after this call.
  if (frame.kind != FrameResult::Kind::kSubmitted) {
    answer_inline(conn, seq, std::move(frame.reply));
  }
}

void EventLoop::answer_inline(Connection* conn, std::uint64_t seq,
                              std::string line, bool close_after) {
  Completion completion{conn->id, seq, std::move(line), close_after};
  conn->pending.emplace(seq, std::move(completion));
  flush_ready(conn);
}

void EventLoop::flush_ready(Connection* conn) {
  const std::uint64_t first = conn->next_flush;
  for (;;) {
    const auto it = conn->pending.find(conn->next_flush);
    if (it == conn->pending.end()) break;
    // Record / trace the outbound frame here: flush order is the
    // per-connection sequence order, exactly what the client reads.
    if (options_.recorder != nullptr) {
      options_.recorder->record_out(conn->id, it->first, it->second.line);
    }
    const auto traced = conn->inflight.find(it->first);
    if (traced != conn->inflight.end()) {
      if (obs::enabled()) {
        const double us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - traced->second.start)
                .count();
        obs::emit("svc/frame_out",
                  {{"conn", static_cast<std::int64_t>(conn->id)},
                   {"seq", static_cast<std::int64_t>(it->first)},
                   {"trace", static_cast<std::int64_t>(traced->second.trace)},
                   {"span", static_cast<std::int64_t>(traced->second.span)},
                   {"us", us}});
      }
      conn->inflight.erase(traced);
    }
    conn->outbuf += it->second.line;
    conn->outbuf += '\n';
    if (it->second.close_after) conn->closing = true;
    conn->pending.erase(it);
    ++conn->next_flush;
  }
  if (conn->next_flush != first) ++stats_.flushes;
  try_write(conn);
}

void EventLoop::try_write(Connection* conn) {
  while (!conn->outbuf.empty()) {
    const ssize_t n =
        ::write(conn->fd, conn->outbuf.data(), conn->outbuf.size());
    if (n > 0) {
      conn->outbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      update_write_interest(conn, true);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    destroy(conn);
    return;
  }
  update_write_interest(conn, false);
  if (conn->closing ||
      (conn->read_eof && conn->pending.empty() &&
       conn->next_flush == conn->next_seq)) {
    destroy(conn);
  }
}

void EventLoop::handle_writable(Connection* conn) { try_write(conn); }

void EventLoop::update_write_interest(Connection* conn, bool want) {
  if (conn->want_write == want) return;
  conn->want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void EventLoop::destroy(Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->fd = -1;
  connections_.erase(conn->id);
}

}  // namespace melody::svc
