#include "server/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/error.hpp"

namespace topil::server {

namespace {

/// Shared core of an in-process stream pair: two mutex-guarded byte
/// queues, one per direction. Each LoopbackStream end reads from one queue
/// and writes the other.
struct LoopbackCore {
  std::mutex mutex;
  std::deque<char> to_a;  ///< bytes travelling toward end A
  std::deque<char> to_b;
  bool a_open = true;
  bool b_open = true;
};

class LoopbackStream final : public ByteStream {
 public:
  LoopbackStream(std::shared_ptr<LoopbackCore> core, bool is_a)
      : core_(std::move(core)), is_a_(is_a) {}

  ~LoopbackStream() override { close(); }

  std::size_t read_some(void* out, std::size_t n) override {
    std::lock_guard<std::mutex> lock(core_->mutex);
    std::deque<char>& inbox = is_a_ ? core_->to_a : core_->to_b;
    const std::size_t take = std::min(n, inbox.size());
    char* dst = static_cast<char*>(out);
    for (std::size_t i = 0; i < take; ++i) {
      dst[i] = inbox.front();
      inbox.pop_front();
    }
    return take;
  }

  void write(const void* data, std::size_t n) override {
    std::lock_guard<std::mutex> lock(core_->mutex);
    const bool peer_open = is_a_ ? core_->b_open : core_->a_open;
    TOPIL_REQUIRE(peer_open, "loopback stream: peer is closed");
    const char* src = static_cast<const char*>(data);
    std::deque<char>& outbox = is_a_ ? core_->to_b : core_->to_a;
    outbox.insert(outbox.end(), src, src + n);
  }

  bool closed() override {
    std::lock_guard<std::mutex> lock(core_->mutex);
    const std::deque<char>& inbox = is_a_ ? core_->to_a : core_->to_b;
    const bool peer_open = is_a_ ? core_->b_open : core_->a_open;
    return !peer_open && inbox.empty();
  }

  void close() override {
    std::lock_guard<std::mutex> lock(core_->mutex);
    (is_a_ ? core_->a_open : core_->b_open) = false;
  }

 private:
  std::shared_ptr<LoopbackCore> core_;
  bool is_a_;
};

class TcpStream final : public ByteStream {
 public:
  explicit TcpStream(int fd) : fd_(fd) {
    const int one = 1;
    // Action frames are tiny; without TCP_NODELAY Nagle adds ~40 ms to
    // every latency sample.
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpStream() override { close(); }

  std::size_t read_some(void* out, std::size_t n) override {
    if (fd_ < 0) return 0;
    const ssize_t got = ::recv(fd_, out, n, MSG_DONTWAIT);
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
    TOPIL_REQUIRE(fd_ >= 0, "tcp stream: writing to a closed stream");
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      // MSG_NOSIGNAL: a dead peer must surface as an error, not SIGPIPE.
      const ssize_t sent = ::send(fd_, p, n, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          ::pollfd pfd{fd_, POLLOUT, 0};
          ::poll(&pfd, 1, 100);
          continue;
        }
        peer_eof_ = true;
        throw Error("tcp stream: send failed: " +
                    std::string(std::strerror(errno)));
      }
      p += sent;
      n -= static_cast<std::size_t>(sent);
    }
  }

  bool closed() override { return fd_ < 0 || peer_eof_; }

  void close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  bool peer_eof_ = false;
};

}  // namespace

std::pair<std::unique_ptr<ByteStream>, std::unique_ptr<ByteStream>>
make_loopback_pair() {
  auto core = std::make_shared<LoopbackCore>();
  return {std::make_unique<LoopbackStream>(core, true),
          std::make_unique<LoopbackStream>(core, false)};
}

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  TOPIL_REQUIRE(fd_ >= 0, "tcp listener: socket() failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error("tcp listener: cannot listen on port " +
                std::to_string(port) + ": " + why);
  }
  ::socklen_t len = sizeof(addr);
  TOPIL_REQUIRE(
      ::getsockname(fd_, reinterpret_cast<::sockaddr*>(&addr), &len) == 0,
      "tcp listener: getsockname() failed");
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() { shutdown(); }

std::unique_ptr<ByteStream> TcpListener::accept(int timeout_ms) {
  const int fd = fd_;  // snapshot: shutdown() may null fd_ concurrently
  if (fd < 0) return nullptr;
  ::pollfd pfd{fd, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0 || (pfd.revents & POLLIN) == 0 || fd_ < 0) return nullptr;
  const int conn = ::accept(fd, nullptr, nullptr);
  if (conn < 0) return nullptr;
  return std::make_unique<TcpStream>(conn);
}

void TcpListener::shutdown() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
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
      return std::make_unique<TcpStream>(fd);
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
