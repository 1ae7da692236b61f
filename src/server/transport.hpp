#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace topil::server {

/// Owns one file descriptor and closes it on destruction or `reset()`.
class UniqueFd {
 public:
  explicit UniqueFd(int fd = -1) : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  /// Close the descriptor (idempotent).
  void reset();

 private:
  int fd_ = -1;
};

/// Minimal full-duplex byte stream: the transport seam between the governor
/// service and its clients. Every connection is a blocking stream socket
/// (`SocketStream` in transport.cpp): a TCP connection, or one end of a
/// Unix socketpair for in-process clients — same class, same wire bytes.
/// Tests fake it to watch the server's writes. Reads never block; writes
/// block in the kernel until every byte is queued, or throw. Safe for one
/// reader thread plus one writer thread (the server reads connections on
/// its IO thread while shard workers write actions).
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Read up to `n` available bytes into `out`; returns the count, 0 when
  /// nothing is pending. Returns 0 after peer close too — poll `closed()`
  /// to tell the difference.
  virtual std::size_t read_some(void* out, std::size_t n) = 0;

  /// Write all `n` bytes. Throws topil::Error if the peer is gone.
  virtual void write(const void* data, std::size_t n) = 0;
  void write(const std::string& data) { write(data.data(), data.size()); }

  /// True once the peer has closed and every buffered byte was read.
  virtual bool closed() = 0;

  /// Close this end; the peer observes `closed()` after draining.
  virtual void close() = 0;

  /// Descriptor that poll() reports readable when `read_some` has bytes
  /// or the peer hung up; -1 when there is none.
  virtual int fd() const = 0;
};

/// Connected in-process stream pair (client end, server end): the two ends
/// of a Unix socketpair.
std::pair<std::unique_ptr<ByteStream>, std::unique_ptr<ByteStream>>
make_loopback_pair();

/// Non-blocking loopback TCP listener (127.0.0.1). `port` 0 binds an
/// ephemeral port; `port()` reports the actual one.
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port);

  std::uint16_t port() const { return port_; }
  /// Polled for POLLIN: a connection is waiting.
  int fd() const { return fd_.get(); }

  /// The next pending connection; nullptr when none is waiting.
  std::unique_ptr<ByteStream> accept();

 private:
  UniqueFd fd_;
  std::uint16_t port_ = 0;
};

/// Parse a TCP port number. Throws std::invalid_argument on text that is
/// not a number and std::out_of_range on a value above 65535.
std::uint16_t parse_port(const std::string& text);

/// Connect to a TCP server; retries briefly while the port is not yet
/// listening (server startup race in tests/CI).
std::unique_ptr<ByteStream> connect_tcp(const std::string& host,
                                        std::uint16_t port);

}  // namespace topil::server
