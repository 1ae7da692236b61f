#include "server/protocol.hpp"

#include <cstring>

#include "common/error.hpp"
#include "persist/crc32.hpp"

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
