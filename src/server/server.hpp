#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/shard.hpp"
#include "server/transport.hpp"

namespace topil::server {

/// Governor-as-a-service (DESIGN.md §14): devices register over the wire
/// protocol, the acceptor routes each to shard `device_id % nshards`, and
/// every shard's worker thread steps its fleet in lockstep with one
/// cross-tenant NPU batch per tick, streaming action epochs back.
///
/// Threading model:
///  - ONE IO thread owns every connection's read side. It blocks in one
///    poll() over a wake eventfd (written by stop() and connect_local()),
///    the non-blocking TCP listener and every client socket; it accepts
///    TCP clients, pumps read_some through per-connection FrameReaders,
///    and dispatches requests to shard inboxes. A malformed frame kills
///    only the offending connection (kError reply, then close).
///  - N shard worker threads call Shard::pump() in a loop, sleeping
///    briefly when their shard is idle. Each pump writes its acks, errors,
///    actions and retire frames itself, once per connection (Connection
///    serializes writes). The write blocks while the client's socket
///    buffer is full, so a client that stops reading stalls its shard;
///    one that closes marks its connection dead instead.
struct ServerConfig {
  std::size_t nshards = 4;
  std::uint64_t policy_seed = 1;
  std::size_t epoch_ticks = 50;
  /// Attach the invariant checker to every device (soak mode).
  bool validate = false;
  /// Durability root (shard WALs + checkpoints live here); empty = none.
  std::string state_dir;
  std::size_t checkpoint_every_ticks = 0;
  bool resume = false;
  /// Listen on 127.0.0.1:<tcp_port> (0 = ephemeral). In-process clients
  /// via connect_local() work either way.
  bool tcp = false;
  std::uint16_t tcp_port = 0;
};

class GovernorServer {
 public:
  explicit GovernorServer(const ServerConfig& config);
  ~GovernorServer();

  GovernorServer(const GovernorServer&) = delete;
  GovernorServer& operator=(const GovernorServer&) = delete;

  /// Launch the IO thread and one worker per shard. Call once.
  void start();

  /// Join every thread, close the listener, write final checkpoints.
  /// Idempotent; the destructor calls it.
  void stop();

  /// In-process client endpoint: one end of a Unix socketpair, served
  /// like a TCP connection.
  std::unique_ptr<ByteStream> connect_local();

  /// Actual TCP port (only valid with config.tcp, until stop()).
  std::uint16_t tcp_port() const;

  /// Block until every shard is idle (all devices retired or deregistered
  /// and inboxes drained) — then one more sweep so retire frames are out.
  void wait_drained() {
    wait_drained([] { return false; });
  }
  /// The same wait, given up as soon as `stop` returns true (polled every
  /// millisecond; a signal-driven tool passes its stop flag).
  void wait_drained(const std::function<bool()>& stop);

  /// Aggregate counters across shards (also served over kStatsRequest).
  StatsReplyMsg stats() const;

  const ServerConfig& config() const { return config_; }

 private:
  struct Client {
    std::shared_ptr<Connection> conn;
    FrameReader reader;
  };

  void io_loop();
  void worker_loop(std::size_t shard_index);
  void adopt_stream(std::unique_ptr<ByteStream> stream);
  /// Return the IO thread from poll().
  void wake();
  /// Returns false when the connection must be dropped (protocol error).
  bool dispatch(Client& client, Frame&& frame);

  ServerConfig config_;
  std::string meta_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<TcpListener> listener_;

  std::mutex clients_mutex_;
  std::vector<std::unique_ptr<Client>> pending_clients_;  ///< adopted, not yet polled
  UniqueFd wake_fd_;  ///< eventfd in the IO thread's poll set

  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace topil::server
