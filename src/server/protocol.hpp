#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "persist/state_codec.hpp"
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
/// bounds against remaining bytes, trailing-garbage rejection): a payload
/// is the message's tag, then its field list, `fields`.
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
  static constexpr char kTag[] = "SREG";
  std::uint64_t device_id = 0;
  std::string scenario_text;

  template <typename Io, typename Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.device_id);
    io.str(m.scenario_text);
  }
};

struct RegisterAckMsg {
  static constexpr char kTag[] = "SACK";
  std::uint64_t device_id = 0;
  std::uint64_t shard = 0;

  template <typename Io, typename Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.device_id);
    io.u64(m.shard);
  }
};

/// One migration+DVFS action epoch for a device: the complete control
/// surface the paper's governor owns — per-cluster requested VF levels and
/// the pid -> core placement of every running process. `sent_ns` is a
/// steady-clock stamp for client-side latency percentiles; it is the one
/// field excluded from action digests (see fold_action).
struct ActionMsg {
  static constexpr char kTag[] = "SACT";
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

  template <typename Io, typename Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.device_id);
    io.u64(m.seq);
    io.u64(m.tick);
    io.f64(m.sim_time_s);
    io.u64(m.sent_ns);
    io.seq(m.vf_levels);
    io.seq(m.placements, [&](auto& p) {
      io.u64(p.pid);
      io.u64(p.core);
    });
  }
};

struct RetireMsg {
  static constexpr char kTag[] = "SRET";
  std::uint64_t device_id = 0;
  std::uint64_t digest = 0;  ///< chained per-tick state digest of the run
  std::uint64_t ticks = 0;
  std::uint64_t actions = 0;        ///< action epochs emitted
  std::uint64_t action_digest = 0;  ///< chained fold_action digest

  template <typename Io, typename Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.device_id);
    io.u64(m.digest);
    io.u64(m.ticks);
    io.u64(m.actions);
    io.u64(m.action_digest);
  }
};

struct DeregisterMsg {
  static constexpr char kTag[] = "SDRG";
  std::uint64_t device_id = 0;

  template <typename Io, typename Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.device_id);
  }
};

/// No fields: the tag is the request.
struct StatsRequestMsg {
  static constexpr char kTag[] = "SSTQ";

  template <typename Io, typename Self>
  static void fields(Io&, Self&) {}
};

struct StatsReplyMsg {
  static constexpr char kTag[] = "SSTR";
  std::uint64_t devices_registered = 0;
  std::uint64_t devices_live = 0;
  std::uint64_t devices_retired = 0;
  std::uint64_t actions_sent = 0;
  std::uint64_t fleet_ticks = 0;
  std::uint64_t npu_rows = 0;
  std::uint64_t npu_device_calls = 0;
  std::uint64_t invariant_violations = 0;

  template <typename Io, typename Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.devices_registered);
    io.u64(m.devices_live);
    io.u64(m.devices_retired);
    io.u64(m.actions_sent);
    io.u64(m.fleet_ticks);
    io.u64(m.npu_rows);
    io.u64(m.npu_device_calls);
    io.u64(m.invariant_violations);
  }
};

struct ErrorMsg {
  static constexpr char kTag[] = "SERR";
  std::uint64_t device_id = 0;  ///< 0 when not about a specific device
  std::string message;

  template <typename Io, typename Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.device_id);
    io.str(m.message);
  }
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

/// The frame-ready payload of `m`: `tag` (the message's own, or a log
/// record's that holds the same fields), then the message's fields.
template <typename Msg>
std::string encode(const Msg& m, const char (&tag)[5] = Msg::kTag) {
  persist::StateWriter out;
  out.tag(tag);
  Msg::fields(out, m);
  return out.take_buffer();
}

/// Parses a payload `encode` wrote; throws InvalidArgument on another
/// tag, a field out of bounds, or trailing bytes.
template <typename Msg>
Msg decode(std::string_view payload, const char (&tag)[5] = Msg::kTag) {
  persist::StateReader in(payload);
  in.tag(tag);
  Msg m;
  Msg::fields(in, m);
  in.require_done();
  return m;
}

/// Fold an action epoch into a device's chained action digest. Everything
/// the governor decided is covered — device, seq, tick, simulated time, VF
/// levels, placements — but NOT `sent_ns`: wall-clock send stamps differ
/// between runs of identical simulations, and the digest's whole point is
/// that a shard-batched device and a solo rollout produce the same value.
void fold_action(validate::Fnv64& digest, const ActionMsg& m);

}  // namespace topil::server
