#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/protocol.hpp"
#include "server/transport.hpp"

namespace topil::server {

/// One decoded server-to-client frame, stamped with the steady-clock
/// receive time (action latency = recv_ns - action.sent_ns; both ends use
/// CLOCK_MONOTONIC, comparable across processes on one host).
struct ClientEvent {
  MsgType type{};
  std::uint64_t recv_ns = 0;
  RegisterAckMsg ack;    ///< kRegisterAck
  ActionMsg action;      ///< kAction
  RetireMsg retire;      ///< kRetire
  StatsReplyMsg stats;   ///< kStatsReply
  ErrorMsg error;        ///< kError
};

/// Client endpoint of the governor service: frames requests onto a
/// ByteStream (socketpair or TCP) and decodes the server's reply stream.
/// Single-threaded; one client may multiplex any number of devices (the
/// protocol is device_id-keyed). Requests are blocking writes; a client
/// that stops reading replies eventually stalls the shards that write to
/// it, so read (poll) regularly, or close.
class ServiceClient {
 public:
  explicit ServiceClient(std::unique_ptr<ByteStream> stream);

  void register_device(std::uint64_t device_id,
                       const std::string& scenario_text);
  void deregister_device(std::uint64_t device_id);
  void request_stats();

  /// Decode every complete frame currently available into `out`; returns
  /// the number appended. Never blocks.
  std::size_t poll(std::vector<ClientEvent>& out);

  /// Block in poll() on the stream until at least one event arrives, the
  /// server closes, or `timeout_ms` passes.
  std::size_t poll_wait(std::vector<ClientEvent>& out, int timeout_ms);

  /// True once the server closed its end and all frames were drained.
  bool closed();

  void close() { stream_->close(); }

 private:
  std::unique_ptr<ByteStream> stream_;
  FrameReader reader_;
  std::vector<char> buf_;
};

}  // namespace topil::server
