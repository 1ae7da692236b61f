#include "server/server.hpp"

#include <poll.h>
#include <sys/eventfd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"

namespace topil::server {

namespace {
constexpr auto kIdleSleep = std::chrono::microseconds(200);
constexpr std::size_t kReadChunk = 16 * 1024;
}  // namespace

GovernorServer::GovernorServer(const ServerConfig& config)
    : config_(config), wake_fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  TOPIL_REQUIRE(config_.nshards > 0, "server needs at least one shard");
  TOPIL_REQUIRE(wake_fd_.get() >= 0, "server: eventfd() failed");
  // Configuration fingerprint recorded in every shard checkpoint: resuming
  // under a different sharding/policy/epoch layout would silently change
  // digests, so it is refused instead.
  meta_ = "server:v1 nshards=" + std::to_string(config_.nshards) +
          " policy_seed=" + std::to_string(config_.policy_seed) +
          " epoch_ticks=" + std::to_string(config_.epoch_ticks);
  for (std::size_t k = 0; k < config_.nshards; ++k) {
    Shard::Config sc;
    sc.index = k;
    sc.policy_seed = config_.policy_seed;
    sc.epoch_ticks = config_.epoch_ticks;
    sc.validate = config_.validate;
    sc.state_dir = config_.state_dir;
    sc.checkpoint_every_ticks = config_.checkpoint_every_ticks;
    sc.resume = config_.resume;
    sc.meta = meta_;
    shards_.push_back(std::make_unique<Shard>(sc));
  }
  if (config_.tcp) {
    listener_ = std::make_unique<TcpListener>(config_.tcp_port);
  }
}

GovernorServer::~GovernorServer() { stop(); }

void GovernorServer::start() {
  TOPIL_REQUIRE(!started_, "server already started");
  started_ = true;
  threads_.emplace_back([this] { io_loop(); });
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    threads_.emplace_back([this, k] { worker_loop(k); });
  }
}

void GovernorServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  wake();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  listener_.reset();  // the IO thread polled it until it was joined
  // Workers are parked at a step boundary, so a final checkpoint captures
  // a clean resumable state (aggregator empty, all lanes between ticks).
  for (auto& shard : shards_) shard->write_checkpoint();
}

std::uint16_t GovernorServer::tcp_port() const {
  TOPIL_REQUIRE(listener_ != nullptr, "server has no TCP listener");
  return listener_->port();
}

std::unique_ptr<ByteStream> GovernorServer::connect_local() {
  auto [client_end, server_end] = make_loopback_pair();
  adopt_stream(std::move(server_end));
  wake();
  return std::move(client_end);
}

void GovernorServer::wake() { ::eventfd_write(wake_fd_.get(), 1); }

void GovernorServer::adopt_stream(std::unique_ptr<ByteStream> stream) {
  auto client = std::make_unique<Client>();
  client->conn = std::make_shared<Connection>(std::move(stream));
  std::lock_guard<std::mutex> lock(clients_mutex_);
  pending_clients_.push_back(std::move(client));
}

void GovernorServer::wait_drained(const std::function<bool()>& stop) {
  for (;;) {
    if (stop()) return;
    bool idle = true;
    for (const auto& shard : shards_) idle = idle && shard->idle();
    if (idle) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // One settling interval: the last pump() that retired a device has
  // already sent its kRetire frame (send happens inside pump), but give
  // the IO thread a beat to flush any error replies.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

StatsReplyMsg GovernorServer::stats() const {
  StatsReplyMsg s;
  for (const auto& shard : shards_) {
    s.devices_registered += shard->devices_registered();
    s.devices_live += shard->devices_live();
    s.devices_retired += shard->devices_retired();
    s.actions_sent += shard->actions_sent();
    s.fleet_ticks += shard->fleet_ticks();
    s.npu_rows += shard->npu_rows();
    s.npu_device_calls += shard->npu_device_calls();
    s.invariant_violations += shard->invariant_violations();
  }
  return s;
}

bool GovernorServer::dispatch(Client& client, Frame&& frame) {
  switch (frame.type) {
    case MsgType::kRegister: {
      auto msg = decode<RegisterMsg>(frame.payload);
      const std::size_t k = msg.device_id % shards_.size();
      shards_[k]->enqueue_register(std::move(msg), client.conn);
      return true;
    }
    case MsgType::kDeregister: {
      const auto msg = decode<DeregisterMsg>(frame.payload);
      shards_[msg.device_id % shards_.size()]->enqueue_deregister(
          msg.device_id);
      return true;
    }
    case MsgType::kStatsRequest: {
      decode<StatsRequestMsg>(frame.payload);
      client.conn->send(MsgType::kStatsReply, encode(stats()));
      return true;
    }
    default:
      // Server-bound traffic only; a client echoing server frame types is
      // a protocol violation.
      client.conn->send(
          MsgType::kError,
          encode(ErrorMsg{
              0, "unexpected client frame type " +
                     std::to_string(static_cast<unsigned>(frame.type))}));
      return false;
  }
}

void GovernorServer::io_loop() {
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<::pollfd> fds;
  std::vector<char> buf(kReadChunk);
  while (!stopping_.load(std::memory_order_relaxed)) {
    // One wait for every event: fds[0] is the wake eventfd, fds[1] the
    // listener (-1 without TCP, which poll() skips), then one per client.
    fds.assign({{wake_fd_.get(), POLLIN, 0},
                {listener_ ? listener_->fd() : -1, POLLIN, 0}});
    for (const auto& client : clients) {
      fds.push_back({client->conn->stream().fd(), POLLIN, 0});
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) continue;  // EINTR
    if (fds[0].revents != 0) {
      ::eventfd_t wakes = 0;
      ::eventfd_read(wake_fd_.get(), &wakes);
    }
    if (fds[1].revents != 0) {
      while (auto stream = listener_->accept()) adopt_stream(std::move(stream));
    }

    for (std::size_t i = 0; i + 2 < fds.size(); ++i) {
      Client* client = clients[i].get();
      if (fds[i + 2].revents == 0 || client->conn->dead()) continue;
      try {
        for (;;) {
          const std::size_t n =
              client->conn->stream().read_some(buf.data(), buf.size());
          if (n == 0) break;
          client->reader.feed(buf.data(), n);
          while (auto frame = client->reader.next()) {
            if (!dispatch(*client, std::move(*frame))) {
              client->conn->mark_dead();
              break;
            }
          }
          if (client->conn->dead()) break;
        }
        if (client->conn->stream().closed()) {
          // Peer hung up; buffered() > 0 means a truncated final frame,
          // which simply dies with the connection.
          client->conn->mark_dead();
        }
      } catch (const std::exception& e) {
        // Corrupt frame: tell the client why (best effort), then drop it.
        // Devices it registered keep running headless until they retire.
        client->conn->send(MsgType::kError, encode(ErrorMsg{0, e.what()}));
        client->conn->mark_dead();
      }
    }
    clients.erase(
        std::remove_if(clients.begin(), clients.end(),
                       [](const std::unique_ptr<Client>& c) {
                         return c->conn->dead();
                       }),
        clients.end());
    std::lock_guard<std::mutex> lock(clients_mutex_);
    for (auto& c : pending_clients_) clients.push_back(std::move(c));
    pending_clients_.clear();
  }
}

void GovernorServer::worker_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!shard.pump()) std::this_thread::sleep_for(kIdleSleep);
  }
}

}  // namespace topil::server
