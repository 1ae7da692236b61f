#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "validate/state_digest.hpp"

namespace topil::server {

/// Wire framing of the governor service (DESIGN.md §14), shaped after the
/// persist layer's TOPW records:
///
///   u32 payload_len | u16 type | payload bytes | u32 crc32(type ‖ payload)
///
/// all little-endian. The CRC covers the type and payload, so a flipped
/// header or payload bit is detected before any message field is
/// interpreted; the length is bounded by kMaxFramePayload, so a corrupt
/// length can never trigger a large allocation. Message payloads reuse the
/// persist StateWriter/StateReader codec (4-char section tags, length
/// bounds against remaining bytes, trailing-garbage rejection).
inline constexpr std::size_t kFrameHeaderBytes = 4 + 2;
inline constexpr std::size_t kFrameTrailerBytes = 4;
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

enum class MsgType : std::uint16_t {
  /// client -> server: add a device (scenario text) to the fleet.
  kRegister = 1,
  /// server -> client: device accepted, assigned to a shard.
  kRegisterAck = 2,
  /// server -> client: one governor epoch's actions for a device.
  kAction = 3,
  /// server -> client: device ran to completion (digest + action summary).
  kRetire = 4,
  /// client -> server: remove a still-running device.
  kDeregister = 5,
  /// client -> server: ask for server-wide counters.
  kStatsRequest = 6,
  /// server -> client: the counters.
  kStatsReply = 7,
  /// server -> client: a request was rejected (bad scenario, duplicate id).
  kError = 8,
};

struct RegisterMsg {
  std::uint64_t device_id = 0;
  std::string scenario_text;
};

struct RegisterAckMsg {
  std::uint64_t device_id = 0;
  std::uint64_t shard = 0;
};

/// One migration+DVFS action epoch for a device: the complete control
/// surface the paper's governor owns — per-cluster requested VF levels and
/// the pid -> core placement of every running process. `sent_ns` is a
/// steady-clock stamp for client-side latency percentiles; it is the one
/// field excluded from action digests (see fold_action).
struct ActionMsg {
  std::uint64_t device_id = 0;
  std::uint64_t seq = 0;     ///< per-device action counter, from 0
  std::uint64_t tick = 0;    ///< simulator tick index at sampling
  double sim_time_s = 0.0;
  std::uint64_t sent_ns = 0;
  std::vector<std::uint64_t> vf_levels;  ///< requested level per cluster
  struct Placement {
    std::uint64_t pid = 0;
    std::uint64_t core = 0;
  };
  std::vector<Placement> placements;  ///< ascending pid
};

struct RetireMsg {
  std::uint64_t device_id = 0;
  std::uint64_t digest = 0;  ///< chained per-tick state digest of the run
  std::uint64_t ticks = 0;
  std::uint64_t actions = 0;        ///< action epochs emitted
  std::uint64_t action_digest = 0;  ///< chained fold_action digest
};

struct DeregisterMsg {
  std::uint64_t device_id = 0;
};

struct StatsReplyMsg {
  std::uint64_t devices_registered = 0;
  std::uint64_t devices_live = 0;
  std::uint64_t devices_retired = 0;
  std::uint64_t actions_sent = 0;
  std::uint64_t fleet_ticks = 0;
  std::uint64_t npu_rows = 0;
  std::uint64_t npu_device_calls = 0;
  std::uint64_t invariant_violations = 0;
};

struct ErrorMsg {
  std::uint64_t device_id = 0;  ///< 0 when not about a specific device
  std::string message;
};

/// A decoded frame: the type plus its raw payload (still codec-encoded).
struct Frame {
  MsgType type{};
  std::string payload;
};

/// Frame `payload` under the wire format.
std::string encode_frame(MsgType type, std::string_view payload);
/// Append the frame of `payload` to `out` (several frames may share one
/// buffer and one write).
void append_frame(std::string& out, MsgType type, std::string_view payload);

/// Incremental frame decoder over a byte stream. Feed arbitrary chunks;
/// `next()` returns complete frames in order and throws InvalidArgument on
/// structural corruption (oversized length, CRC mismatch, unknown type).
/// Bytes of a not-yet-complete frame are held back (`buffered()` > 0), so
/// truncation is visible but never mis-decoded.
class FrameReader {
 public:
  void feed(const void* data, std::size_t n);
  void feed(std::string_view data) { feed(data.data(), data.size()); }

  std::optional<Frame> next();

  /// Bytes held that do not yet form a complete frame.
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
};

// --- message codecs ---
// encode_* returns the frame-ready payload; decode_* validates the section
// tag, every field bound, and trailing bytes, throwing InvalidArgument on
// anything malformed.

std::string encode_register(const RegisterMsg& m);
RegisterMsg decode_register(std::string_view payload);

std::string encode_register_ack(const RegisterAckMsg& m);
RegisterAckMsg decode_register_ack(std::string_view payload);

std::string encode_action(const ActionMsg& m);
ActionMsg decode_action(std::string_view payload);

std::string encode_retire(const RetireMsg& m);
RetireMsg decode_retire(std::string_view payload);

std::string encode_deregister(const DeregisterMsg& m);
DeregisterMsg decode_deregister(std::string_view payload);

std::string encode_stats_request();
void decode_stats_request(std::string_view payload);

std::string encode_stats_reply(const StatsReplyMsg& m);
StatsReplyMsg decode_stats_reply(std::string_view payload);

std::string encode_error(const ErrorMsg& m);
ErrorMsg decode_error(std::string_view payload);

/// Fold an action epoch into a device's chained action digest. Everything
/// the governor decided is covered — device, seq, tick, simulated time, VF
/// levels, placements — but NOT `sent_ns`: wall-clock send stamps differ
/// between runs of identical simulations, and the digest's whole point is
/// that a shard-batched device and a solo rollout produce the same value.
void fold_action(validate::Fnv64& digest, const ActionMsg& m);

}  // namespace topil::server
