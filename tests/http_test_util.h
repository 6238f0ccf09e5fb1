// Minimal raw-socket HTTP client for the telemetry-plane tests: no external
// dependency, blocking I/O, connection-close semantics (which is exactly
// the contract obs::HttpServer implements). Intentionally separate from the
// server code so the tests exercise real bytes on a real socket. Also the
// deadline-bounded wait the socket tests share.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

namespace flowdiff::testing {

struct HttpResult {
  int status = 0;
  std::string head;  ///< Status line + headers, verbatim.
  std::string body;
};

/// Blocking connect to 127.0.0.1:port; -1 on failure. Caller closes.
inline int http_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `raw` verbatim and reads until the server closes; parses the
/// status code and splits head from body. nullopt on connect/parse failure.
inline std::optional<HttpResult> http_raw(std::uint16_t port,
                                          const std::string& raw) {
  const int fd = http_connect(port);
  if (fd < 0) return std::nullopt;
  std::size_t off = 0;
  while (off < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + off, raw.size() - off, 0);
    if (n <= 0) {
      ::close(fd);
      return std::nullopt;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos) return std::nullopt;
  HttpResult result;
  result.head = response.substr(0, split + 2);
  result.body = response.substr(split + 4);
  // "HTTP/1.1 NNN ..." — the status code sits after the first space.
  const std::size_t space = result.head.find(' ');
  if (space == std::string::npos || space + 4 > result.head.size()) {
    return std::nullopt;
  }
  result.status = std::atoi(result.head.c_str() + space + 1);
  return result;
}

/// One GET (or HEAD) for `target`, e.g. http_get(port, "/healthz").
inline std::optional<HttpResult> http_get(std::uint16_t port,
                                          const std::string& target,
                                          const std::string& method = "GET") {
  return http_raw(port, method + " " + target +
                            " HTTP/1.1\r\nHost: test\r\n"
                            "Connection: close\r\n\r\n");
}

/// Calls `done` every few milliseconds until it returns true, giving up
/// after 30 s of steady-clock time; returns done()'s last answer. Waits are
/// bounded by a deadline, never by a try count, so a loaded host slows a
/// test down instead of failing it.
template <typename Done>
bool eventually(Done&& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

}  // namespace flowdiff::testing
