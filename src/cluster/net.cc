#include "cluster/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "cluster/routing.h"

namespace melody::cluster {

bool parse_endpoint(const std::string& spec, std::string* host, int* port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  const std::string digits = spec.substr(colon + 1);
  if (digits.empty() || digits.size() > 5 ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *host = spec.substr(0, colon);
  *port = std::stoi(digits);
  return *port >= 1 && *port <= 65535;
}

pid_t spawn_member(const std::vector<std::string>& argv) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  ::execv(args[0], args.data());
  std::fprintf(stderr, "exec %s: %s\n", args[0], std::strerror(errno));
  ::_exit(127);
}

LineClient::~LineClient() { close(); }

LineClient::LineClient(LineClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      error_(std::move(other.error_)) {}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    error_ = std::move(other.error_);
  }
  return *this;
}

bool LineClient::connect(const std::string& host, int port) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    error_ = "bad host address: " + host;
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error_ = "connect " + host + ":" + std::to_string(port) + ": " +
             std::strerror(errno);
    ::close(fd);
    return false;
  }
  fd_ = fd;
  buffer_.clear();
  return true;
}

void LineClient::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool LineClient::send_line(const std::string& line) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  const std::string framed = line + "\n";
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n =
        ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      error_ = std::string("send: ") + std::strerror(errno);
      close();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool LineClient::recv_line(std::string* line) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) {
      error_ = n == 0 ? "connection closed"
                      : std::string("recv: ") + std::strerror(errno);
      close();
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool LineClient::exchange(const std::string& line, std::string* reply) {
  return send_line(line) && recv_line(reply);
}

bool ControlClient::call(const svc::WireObject& command,
                         svc::WireObject* reply) {
  const std::string line = svc::format_wire(command);
  std::string reply_line;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!conn_.connected() && !conn_.connect(host_, port_)) continue;
    if (!conn_.exchange(line, &reply_line)) continue;
    try {
      *reply = svc::parse_wire(reply_line);
      return true;
    } catch (const svc::WireError&) {
      return false;
    }
  }
  return false;
}

namespace {

std::string endpoint_key(const ClusterMember& member) {
  return member.host + ":" + std::to_string(member.port);
}

}  // namespace

bool MemberPool::call(const ClusterMember& member, const svc::Request& request,
                      svc::Response* out) {
  const std::string key = endpoint_key(member);
  const std::string line = svc::format_request(request);
  std::string reply;
  // One redial: a cached fd may point at a process that has since been
  // killed and respawned on the same port — the first exchange fails on
  // the dead socket and the retry dials the live one.
  for (int attempt = 0; attempt < 2; ++attempt) {
    LineClient& conn = conns_[key];
    if (!conn.connected() && !conn.connect(member.host, member.port)) {
      error_ = member.name + ": " + conn.last_error();
      continue;
    }
    if (!conn.exchange(line, &reply)) {
      error_ = member.name + ": " + conn.last_error();
      continue;
    }
    try {
      *out = svc::parse_response(reply);
    } catch (const svc::WireError& e) {
      error_ = member.name + ": bad response line: " + e.what();
      return false;
    }
    return true;
  }
  return false;
}

void MemberPool::drop(const ClusterMember& member) {
  conns_.erase(endpoint_key(member));
}

}  // namespace melody::cluster
