#include "server/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/error.hpp"

namespace topil::server {

namespace {

/// A connected, blocking stream socket: TCP or one end of a socketpair.
class SocketStream final : public ByteStream {
 public:
  explicit SocketStream(int fd) : fd_(fd) {}

  std::size_t read_some(void* out, std::size_t n) override {
    if (fd_.get() < 0) return 0;
    const ssize_t got = ::recv(fd_.get(), out, n, MSG_DONTWAIT);
    if (got > 0) return static_cast<std::size_t>(got);
    if (got == 0) {
      peer_eof_ = true;
      return 0;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
    peer_eof_ = true;  // connection reset et al.: treat as peer-gone
    return 0;
  }

  void write(const void* data, std::size_t n) override {
    TOPIL_REQUIRE(fd_.get() >= 0, "socket stream: writing to a closed stream");
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      // MSG_NOSIGNAL: a dead peer must surface as an error, not SIGPIPE.
      const ssize_t sent = ::send(fd_.get(), p, n, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        peer_eof_ = true;
        throw Error("socket stream: send failed: " +
                    std::string(std::strerror(errno)));
      }
      p += sent;
      n -= static_cast<std::size_t>(sent);
    }
  }

  bool closed() override { return fd_.get() < 0 || peer_eof_; }

  void close() override { fd_.reset(); }

  int fd() const override { return fd_.get(); }

 private:
  UniqueFd fd_;
  /// Set by the reader on EOF and by the writer on a failed send.
  std::atomic<bool> peer_eof_{false};
};

std::unique_ptr<ByteStream> tcp_stream(int fd) {
  const int one = 1;
  // Action frames are tiny; without TCP_NODELAY Nagle adds ~40 ms to
  // every latency sample.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<SocketStream>(fd);
}

}  // namespace

void UniqueFd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::pair<std::unique_ptr<ByteStream>, std::unique_ptr<ByteStream>>
make_loopback_pair() {
  int fds[2];
  TOPIL_REQUIRE(
      ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) == 0,
      "loopback: socketpair() failed");
  return {std::make_unique<SocketStream>(fds[0]),
          std::make_unique<SocketStream>(fds[1])};
}

TcpListener::TcpListener(std::uint16_t port)
    : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0)) {
  TOPIL_REQUIRE(fd_.get() >= 0, "tcp listener: socket() failed");
  const int one = 1;
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_.get(), reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd_.get(), 64) != 0) {
    const std::string why = std::strerror(errno);
    throw Error("tcp listener: cannot listen on port " +
                std::to_string(port) + ": " + why);
  }
  ::socklen_t len = sizeof(addr);
  TOPIL_REQUIRE(::getsockname(fd_.get(), reinterpret_cast<::sockaddr*>(&addr),
                              &len) == 0,
                "tcp listener: getsockname() failed");
  port_ = ntohs(addr.sin_port);
}

std::unique_ptr<ByteStream> TcpListener::accept() {
  // The accepted socket is blocking: on Linux it does not inherit the
  // listener's O_NONBLOCK.
  const int conn = ::accept(fd_.get(), nullptr, nullptr);
  if (conn < 0) return nullptr;
  return tcp_stream(conn);
}

std::uint16_t parse_port(const std::string& text) {
  const unsigned long port = std::stoul(text);
  if (port > 65535) throw std::out_of_range("port above 65535: " + text);
  return static_cast<std::uint16_t>(port);
}

std::unique_ptr<ByteStream> connect_tcp(const std::string& host,
                                        std::uint16_t port) {
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  TOPIL_REQUIRE(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                "tcp connect: invalid IPv4 address: " + host);
  // Retry for ~2 s: CI launches the server and the client back to back.
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    TOPIL_REQUIRE(fd >= 0, "tcp connect: socket() failed");
    if (::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return tcp_stream(fd);
    }
    const std::string why = std::strerror(errno);
    ::close(fd);
    if (attempt >= 40) {
      throw Error("tcp connect: cannot reach " + host + ":" +
                  std::to_string(port) + ": " + why);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace topil::server
