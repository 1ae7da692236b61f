#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace topil::server {

/// Minimal full-duplex byte stream: the transport seam between the governor
/// service and its clients. Two implementations: an in-process loopback
/// pair (tests, stress harness, CI determinism gates — no sockets, no
/// ports, same wire bytes) and a plain TCP connection. Reads never block;
/// writes are complete-or-throw. Implementations are safe for one reader
/// thread plus one writer thread (the server reads connections on its IO
/// thread while shard workers write actions).
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
};

/// Connected in-process stream pair (client end, server end).
std::pair<std::unique_ptr<ByteStream>, std::unique_ptr<ByteStream>>
make_loopback_pair();

/// Loopback TCP listener (127.0.0.1). `port` 0 binds an ephemeral port;
/// `port()` reports the actual one.
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Wait up to `timeout_ms` for a connection; nullptr on timeout or after
  /// `shutdown()`.
  std::unique_ptr<ByteStream> accept(int timeout_ms);

  /// Unblock pending and future accepts (idempotent).
  void shutdown();

 private:
  int fd_ = -1;
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
