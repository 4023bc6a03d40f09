// Blocking line-oriented TCP plumbing for the cluster planes, plus the
// endpoint parser and the member spawn the cluster tools share. Both the
// coordinator's control protocol and the service data protocol are
// newline-delimited JSON, so one small client covers them: connect to a
// member or coordinator, write a line, read a line. The nonblocking epoll
// machinery in svc/event_loop.h is the *server* side; clients here are
// sequential request/reply callers (coordinator RPCs, the chaos harness,
// melody_loadgen's cluster mode) where blocking I/O is the simple and
// correct shape.
#pragma once

#include <sys/types.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "svc/protocol.h"

namespace melody::cluster {

struct ClusterMember;

/// Split a "HOST:PORT" endpoint (the tools' --cluster, --cluster-ctl and
/// --ctl flags). False unless HOST is non-empty and PORT is a whole
/// decimal number in [1, 65535].
bool parse_endpoint(const std::string& spec, std::string* host, int* port);

/// fork + execv a member process from its argv (binary first: the
/// coordinator's spawn_args plus the member identity flags). Returns the
/// child pid, or -1 when fork fails; a child whose exec fails reports it
/// on stderr and exits 127.
pid_t spawn_member(const std::vector<std::string>& argv);

/// One blocking TCP connection speaking newline-delimited lines. Movable
/// so it can live in containers; a failed send/recv records last_error()
/// and leaves the connection closed (callers reconnect explicitly).
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(LineClient&& other) noexcept;
  LineClient& operator=(LineClient&& other) noexcept;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Connect to host:port (numeric IPv4 host). False on failure, with the
  /// reason in last_error(). An already-open connection is closed first.
  bool connect(const std::string& host, int port);
  bool connected() const noexcept { return fd_ >= 0; }
  void close() noexcept;

  /// Write `line` plus the newline terminator. False closes the socket.
  bool send_line(const std::string& line);
  /// Read one line (terminator stripped), carrying leftover bytes across
  /// calls. False on EOF/error, which closes the socket.
  bool recv_line(std::string* line);
  /// send_line + recv_line.
  bool exchange(const std::string& line, std::string* reply);

  const std::string& last_error() const noexcept { return error_; }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::string error_;
};

/// Control-plane RPC to one line-JSON endpoint (the coordinator's control
/// port): format the command, exchange one line, parse the reply. Connects
/// on demand; a failed dial or exchange is retried once on a fresh
/// connection (the endpoint may have idled the old one out).
class ControlClient {
 public:
  ControlClient(std::string host, int port)
      : host_(std::move(host)), port_(port) {}

  /// False on transport failure or an unparseable reply.
  bool call(const svc::WireObject& command, svc::WireObject* reply);
  void close() noexcept { conn_.close(); }

 private:
  LineClient conn_;
  std::string host_;
  int port_;
};

/// Data-plane RPC over cached per-member connections: format the request,
/// exchange one line, parse the response. A dead connection (member was
/// killed and respawned on the same endpoint) is dropped and redialed once
/// before the call is reported failed; protocol-level failures come back
/// as ok=false responses, not as call failures.
class MemberPool {
 public:
  bool call(const ClusterMember& member, const svc::Request& request,
            svc::Response* out);
  /// Forget the cached connection to `member` (after a deliberate kill).
  void drop(const ClusterMember& member);
  const std::string& last_error() const noexcept { return error_; }

 private:
  std::map<std::string, LineClient> conns_;  // keyed "host:port"
  std::string error_;
};

}  // namespace melody::cluster
