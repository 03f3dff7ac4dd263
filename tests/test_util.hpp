// Helpers shared by the test binaries: one copy of each, in gill::test.
// Header-only; a test file pulls in what it uses with using-declarations.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "netbase/prefix.hpp"

namespace gill::test {

/// Parses a prefix literal the test knows to be valid.
inline net::Prefix pfx(std::string_view text) {
  return net::Prefix::parse(text).value();
}

/// A positive integer from the environment (soak scaling knobs), or
/// `fallback` when unset, empty or not positive.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

/// A raw non-blocking loopback client socket (no TcpTransport machinery),
/// for exercising a server against arbitrary byte-level behaviour.
inline int raw_client(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  EXPECT_TRUE(rc == 0 || errno == EINPROGRESS);
  return fd;
}

/// Reassembles the payload of an HTTP chunked body received so far,
/// ignoring an incomplete trailing chunk.
inline std::string dechunk(std::string_view body) {
  std::string out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t eol = body.find("\r\n", pos);
    if (eol == std::string_view::npos) break;
    const std::size_t size = std::strtoul(
        std::string(body.substr(pos, eol - pos)).c_str(), nullptr, 16);
    if (size == 0) break;  // terminating chunk
    if (body.size() < eol + 2 + size + 2) break;  // chunk still in flight
    out.append(body.substr(eol + 2, size));
    pos = eol + 2 + size + 2;
  }
  return out;
}

}  // namespace gill::test
