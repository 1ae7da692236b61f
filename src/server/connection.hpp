#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "server/protocol.hpp"
#include "server/transport.hpp"

namespace topil::server {

/// One client connection, shared between the server's IO thread (which
/// reads requests) and the shard workers whose devices stream actions back
/// over it. Writes are serialized by a mutex (frames from different shards
/// must not interleave mid-frame); a failed write marks the connection
/// dead, and every later send becomes a cheap no-op — a vanished client
/// must not take its devices' shard down with it.
class Connection {
 public:
  explicit Connection(std::unique_ptr<ByteStream> stream)
      : stream_(std::move(stream)) {}

  /// Frame and write one message; swallows transport errors (marks dead).
  void send(MsgType type, const std::string& payload) {
    if (dead()) return;
    write_frames(encode_frame(type, payload));
  }

  /// Write whole frames (one or more, already encoded) in one stream
  /// write; swallows transport errors (marks dead).
  void write_frames(const std::string& frames) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (dead()) return;
    try {
      stream_->write(frames);
    } catch (const std::exception&) {
      dead_.store(true, std::memory_order_relaxed);
    }
  }

  bool dead() const { return dead_.load(std::memory_order_relaxed); }
  void mark_dead() { dead_.store(true, std::memory_order_relaxed); }

  /// IO-thread-only access for reading.
  ByteStream& stream() { return *stream_; }

 private:
  std::unique_ptr<ByteStream> stream_;
  std::mutex write_mutex_;
  std::atomic<bool> dead_{false};
};

/// Frames bound for any number of connections, gathered during one shard
/// pump and written by `flush` with one `write_frames` per connection, in
/// the order they were queued. Single-threaded (the shard worker's).
class Outbox {
 public:
  /// Frame `payload` behind the frames already queued for `conn`; a null
  /// or dead connection drops it.
  void queue(const std::shared_ptr<Connection>& conn, MsgType type,
             std::string_view payload) {
    if (conn == nullptr || conn->dead()) return;
    const auto [it, added] = slot_.try_emplace(conn.get(), pending_.size());
    if (added) pending_.push_back(Pending{conn, {}});
    append_frame(pending_[it->second].frames, type, payload);
  }

  void flush() {
    for (const Pending& p : pending_) p.conn->write_frames(p.frames);
    pending_.clear();
    slot_.clear();
  }

 private:
  struct Pending {
    std::shared_ptr<Connection> conn;
    std::string frames;
  };
  std::vector<Pending> pending_;
  std::unordered_map<const Connection*, std::size_t> slot_;  ///< into pending_
};

}  // namespace topil::server
