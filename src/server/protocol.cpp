#include "server/protocol.hpp"

#include <cstring>

#include "common/error.hpp"
#include "persist/crc32.hpp"
#include "persist/state_codec.hpp"

namespace topil::server {

namespace {

bool known_type(std::uint16_t t) {
  return t >= static_cast<std::uint16_t>(MsgType::kRegister) &&
         t <= static_cast<std::uint16_t>(MsgType::kError);
}

std::uint32_t frame_crc(std::uint16_t type, std::string_view payload) {
  persist::Crc32 crc;
  crc.update(&type, sizeof(type));
  crc.update(payload);
  return crc.value();
}

}  // namespace

std::string encode_frame(MsgType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  append_frame(out, type, payload);
  return out;
}

void append_frame(std::string& out, MsgType type, std::string_view payload) {
  TOPIL_REQUIRE(payload.size() <= kMaxFramePayload,
                "server frame payload too large: " +
                    std::to_string(payload.size()));
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint16_t t = static_cast<std::uint16_t>(type);
  const std::uint32_t crc = frame_crc(t, payload);
  out.append(reinterpret_cast<const char*>(&len), sizeof(len));
  out.append(reinterpret_cast<const char*>(&t), sizeof(t));
  out.append(payload.data(), payload.size());
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
}

void FrameReader::feed(const void* data, std::size_t n) {
  // Drop consumed prefix before growing the buffer (amortized O(1)).
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 16)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(static_cast<const char*>(data), n);
}

std::optional<Frame> FrameReader::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return std::nullopt;
  std::uint32_t len = 0;
  std::uint16_t type = 0;
  std::memcpy(&len, buf_.data() + pos_, sizeof(len));
  std::memcpy(&type, buf_.data() + pos_ + sizeof(len), sizeof(type));
  // Reject implausible headers before waiting for (or allocating) the
  // advertised payload: a corrupt length must not stall or balloon the
  // stream.
  TOPIL_REQUIRE(len <= kMaxFramePayload,
                "server frame length " + std::to_string(len) +
                    " exceeds the " + std::to_string(kMaxFramePayload) +
                    "-byte bound");
  TOPIL_REQUIRE(known_type(type),
                "unknown server frame type " + std::to_string(type));
  const std::size_t total =
      kFrameHeaderBytes + static_cast<std::size_t>(len) + kFrameTrailerBytes;
  if (avail < total) return std::nullopt;

  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.payload.assign(buf_, pos_ + kFrameHeaderBytes, len);
  std::uint32_t crc = 0;
  std::memcpy(&crc, buf_.data() + pos_ + total - kFrameTrailerBytes,
              sizeof(crc));
  TOPIL_REQUIRE(crc == frame_crc(type, frame.payload),
                "server frame CRC mismatch (corrupt stream)");
  pos_ += total;
  return frame;
}

// --- message codecs ---

std::string encode_register(const RegisterMsg& m) {
  persist::StateWriter out;
  out.tag("SREG");
  out.u64(m.device_id);
  out.str(m.scenario_text);
  return out.take_buffer();
}

RegisterMsg decode_register(std::string_view payload) {
  persist::StateReader in(payload);
  in.expect_tag("SREG");
  RegisterMsg m;
  m.device_id = in.u64();
  m.scenario_text = in.str();
  in.require_done();
  return m;
}

std::string encode_register_ack(const RegisterAckMsg& m) {
  persist::StateWriter out;
  out.tag("SACK");
  out.u64(m.device_id);
  out.u64(m.shard);
  return out.take_buffer();
}

RegisterAckMsg decode_register_ack(std::string_view payload) {
  persist::StateReader in(payload);
  in.expect_tag("SACK");
  RegisterAckMsg m;
  m.device_id = in.u64();
  m.shard = in.u64();
  in.require_done();
  return m;
}

std::string encode_action(const ActionMsg& m) {
  persist::StateWriter out;
  out.tag("SACT");
  out.u64(m.device_id);
  out.u64(m.seq);
  out.u64(m.tick);
  out.f64(m.sim_time_s);
  out.u64(m.sent_ns);
  out.u64(m.vf_levels.size());
  for (std::uint64_t level : m.vf_levels) out.u64(level);
  out.u64(m.placements.size());
  for (const ActionMsg::Placement& p : m.placements) {
    out.u64(p.pid);
    out.u64(p.core);
  }
  return out.take_buffer();
}

ActionMsg decode_action(std::string_view payload) {
  persist::StateReader in(payload);
  in.expect_tag("SACT");
  ActionMsg m;
  m.device_id = in.u64();
  m.seq = in.u64();
  m.tick = in.u64();
  m.sim_time_s = in.f64();
  m.sent_ns = in.u64();
  const std::uint64_t nlevels = in.u64();
  TOPIL_REQUIRE(nlevels <= in.remaining() / sizeof(std::uint64_t),
                "server action: implausible VF level count");
  m.vf_levels.reserve(static_cast<std::size_t>(nlevels));
  for (std::uint64_t i = 0; i < nlevels; ++i) m.vf_levels.push_back(in.u64());
  const std::uint64_t nplace = in.u64();
  TOPIL_REQUIRE(nplace <= in.remaining() / (2 * sizeof(std::uint64_t)),
                "server action: implausible placement count");
  m.placements.reserve(static_cast<std::size_t>(nplace));
  for (std::uint64_t i = 0; i < nplace; ++i) {
    ActionMsg::Placement p;
    p.pid = in.u64();
    p.core = in.u64();
    m.placements.push_back(p);
  }
  in.require_done();
  return m;
}

std::string encode_retire(const RetireMsg& m) {
  persist::StateWriter out;
  out.tag("SRET");
  out.u64(m.device_id);
  out.u64(m.digest);
  out.u64(m.ticks);
  out.u64(m.actions);
  out.u64(m.action_digest);
  return out.take_buffer();
}

RetireMsg decode_retire(std::string_view payload) {
  persist::StateReader in(payload);
  in.expect_tag("SRET");
  RetireMsg m;
  m.device_id = in.u64();
  m.digest = in.u64();
  m.ticks = in.u64();
  m.actions = in.u64();
  m.action_digest = in.u64();
  in.require_done();
  return m;
}

std::string encode_deregister(const DeregisterMsg& m) {
  persist::StateWriter out;
  out.tag("SDRG");
  out.u64(m.device_id);
  return out.take_buffer();
}

DeregisterMsg decode_deregister(std::string_view payload) {
  persist::StateReader in(payload);
  in.expect_tag("SDRG");
  DeregisterMsg m;
  m.device_id = in.u64();
  in.require_done();
  return m;
}

std::string encode_stats_request() {
  persist::StateWriter out;
  out.tag("SSTQ");
  return out.take_buffer();
}

void decode_stats_request(std::string_view payload) {
  persist::StateReader in(payload);
  in.expect_tag("SSTQ");
  in.require_done();
}

std::string encode_stats_reply(const StatsReplyMsg& m) {
  persist::StateWriter out;
  out.tag("SSTR");
  out.u64(m.devices_registered);
  out.u64(m.devices_live);
  out.u64(m.devices_retired);
  out.u64(m.actions_sent);
  out.u64(m.fleet_ticks);
  out.u64(m.npu_rows);
  out.u64(m.npu_device_calls);
  out.u64(m.invariant_violations);
  return out.take_buffer();
}

StatsReplyMsg decode_stats_reply(std::string_view payload) {
  persist::StateReader in(payload);
  in.expect_tag("SSTR");
  StatsReplyMsg m;
  m.devices_registered = in.u64();
  m.devices_live = in.u64();
  m.devices_retired = in.u64();
  m.actions_sent = in.u64();
  m.fleet_ticks = in.u64();
  m.npu_rows = in.u64();
  m.npu_device_calls = in.u64();
  m.invariant_violations = in.u64();
  in.require_done();
  return m;
}

std::string encode_error(const ErrorMsg& m) {
  persist::StateWriter out;
  out.tag("SERR");
  out.u64(m.device_id);
  out.str(m.message);
  return out.take_buffer();
}

ErrorMsg decode_error(std::string_view payload) {
  persist::StateReader in(payload);
  in.expect_tag("SERR");
  ErrorMsg m;
  m.device_id = in.u64();
  m.message = in.str();
  in.require_done();
  return m;
}

void fold_action(validate::Fnv64& digest, const ActionMsg& m) {
  digest.u64(m.device_id);
  digest.u64(m.seq);
  digest.u64(m.tick);
  digest.f64(m.sim_time_s);
  digest.u64(m.vf_levels.size());
  for (std::uint64_t level : m.vf_levels) digest.u64(level);
  digest.u64(m.placements.size());
  for (const ActionMsg::Placement& p : m.placements) {
    digest.u64(p.pid);
    digest.u64(p.core);
  }
}

}  // namespace topil::server
