#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "server/protocol.hpp"

// Corruption-injection sweeps over the wire protocol, mirroring the
// persisted-format sweeps in tests/persist/test_corruption.cpp: every
// truncation point, every single-bit flip of the whole frame, oversized
// lengths, trailing garbage, and interleaved partial delivery. The oracle:
// a corrupted byte stream must either raise a clean error or yield no
// frame — it may never silently produce a (wrong) message. Run under
// ASan/UBSan by the CI server gate.
namespace topil::server {
namespace {

std::string flip(std::string bytes, std::size_t byte, unsigned bit) {
  bytes[byte] = static_cast<char>(static_cast<unsigned char>(bytes[byte]) ^
                                  (1u << bit));
  return bytes;
}

ActionMsg sample_action_msg() {
  ActionMsg m;
  m.device_id = 7;
  m.seq = 3;
  m.tick = 150;
  m.sim_time_s = 1.5;
  m.sent_ns = 123456789;
  m.vf_levels = {2, 5};
  m.placements = {{1, 0}, {2, 6}};
  return m;
}

std::string sample_frame() {
  return encode_frame(MsgType::kAction, encode(sample_action_msg()));
}

/// Feed `bytes` to a fresh reader; returns the decoded frames, or nullopt
/// if decoding raised.
std::optional<std::vector<Frame>> decode_all(const std::string& bytes) {
  FrameReader reader;
  std::vector<Frame> frames;
  try {
    reader.feed(bytes);
    while (auto f = reader.next()) frames.push_back(std::move(*f));
  } catch (const Error&) {
    return std::nullopt;
  }
  return frames;
}

TEST(Protocol, RoundTripsEveryMessageType) {
  const RegisterMsg reg{42, "scenario text\nwith lines\n"};
  const RegisterMsg reg2 = decode<RegisterMsg>(encode(reg));
  EXPECT_EQ(reg2.device_id, 42u);
  EXPECT_EQ(reg2.scenario_text, reg.scenario_text);

  const RegisterAckMsg ack2 =
      decode<RegisterAckMsg>(encode(RegisterAckMsg{42, 3}));
  EXPECT_EQ(ack2.device_id, 42u);
  EXPECT_EQ(ack2.shard, 3u);

  const ActionMsg a = sample_action_msg();
  const ActionMsg a2 = decode<ActionMsg>(encode(a));
  EXPECT_EQ(a2.device_id, a.device_id);
  EXPECT_EQ(a2.seq, a.seq);
  EXPECT_EQ(a2.tick, a.tick);
  EXPECT_EQ(a2.sim_time_s, a.sim_time_s);
  EXPECT_EQ(a2.sent_ns, a.sent_ns);
  EXPECT_EQ(a2.vf_levels, a.vf_levels);
  ASSERT_EQ(a2.placements.size(), a.placements.size());
  EXPECT_EQ(a2.placements[1].pid, a.placements[1].pid);
  EXPECT_EQ(a2.placements[1].core, a.placements[1].core);

  const RetireMsg r2 =
      decode<RetireMsg>(encode(RetireMsg{9, 111, 222, 333, 444}));
  EXPECT_EQ(r2.device_id, 9u);
  EXPECT_EQ(r2.digest, 111u);
  EXPECT_EQ(r2.action_digest, 444u);

  EXPECT_EQ(decode<DeregisterMsg>(encode(DeregisterMsg{5})).device_id, 5u);
  // No payload, must not throw.
  decode<StatsRequestMsg>(encode(StatsRequestMsg{}));

  StatsReplyMsg s;
  s.devices_registered = 10;
  s.invariant_violations = 2;
  const StatsReplyMsg s2 = decode<StatsReplyMsg>(encode(s));
  EXPECT_EQ(s2.devices_registered, 10u);
  EXPECT_EQ(s2.invariant_violations, 2u);

  const ErrorMsg e2 = decode<ErrorMsg>(encode(ErrorMsg{1, "went wrong"}));
  EXPECT_EQ(e2.device_id, 1u);
  EXPECT_EQ(e2.message, "went wrong");
}

TEST(Protocol, PristineFrameDecodes) {
  const auto frames = decode_all(sample_frame());
  ASSERT_TRUE(frames.has_value());
  ASSERT_EQ(frames->size(), 1u);
  EXPECT_EQ((*frames)[0].type, MsgType::kAction);
  const ActionMsg m = decode<ActionMsg>((*frames)[0].payload);
  EXPECT_EQ(m.device_id, 7u);
}

TEST(ProtocolFuzz, EveryTruncationYieldsNoFrame) {
  const std::string full = sample_frame();
  for (std::size_t len = 0; len < full.size(); ++len) {
    const auto frames = decode_all(full.substr(0, len));
    if (frames.has_value()) {
      EXPECT_TRUE(frames->empty()) << "truncated to " << len;
    }
    // else: threw cleanly — also acceptable (corrupt header prefix).
  }
}

TEST(ProtocolFuzz, EveryBitFlipYieldsNoFrame) {
  const std::string full = sample_frame();
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      const auto frames = decode_all(flip(full, byte, bit));
      if (frames.has_value()) {
        EXPECT_TRUE(frames->empty())
            << "flip byte " << byte << " bit " << bit
            << " produced a frame";
      }
    }
  }
}

TEST(ProtocolFuzz, OversizedLengthIsRejectedBeforeBuffering) {
  // A length beyond kMaxFramePayload must throw on the spot — the reader
  // may not wait for (or try to allocate) gigabytes of payload.
  std::string header(kFrameHeaderBytes, '\0');
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(header.data(), &huge, sizeof(huge));
  const std::uint16_t type = static_cast<std::uint16_t>(MsgType::kAction);
  std::memcpy(header.data() + 4, &type, sizeof(type));
  FrameReader reader;
  reader.feed(header);
  EXPECT_THROW(reader.next(), Error);
}

TEST(ProtocolFuzz, UnknownTypeIsRejectedFromHeaderAlone) {
  std::string header(kFrameHeaderBytes, '\0');
  const std::uint32_t len = 0;
  std::memcpy(header.data(), &len, sizeof(len));
  const std::uint16_t type = 999;
  std::memcpy(header.data() + 4, &type, sizeof(type));
  FrameReader reader;
  reader.feed(header);
  EXPECT_THROW(reader.next(), Error);
}

TEST(ProtocolFuzz, TrailingGarbageAfterValidFrameDoesNotCorruptIt) {
  const std::string full = sample_frame();
  // 'Z' repeated makes an implausible length field, so the reader throws
  // once it looks at the garbage "header" — after handing out the intact
  // first frame.
  FrameReader reader;
  reader.feed(full + std::string(16, 'Z'));
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, MsgType::kAction);
  EXPECT_THROW(reader.next(), Error);
}

TEST(ProtocolFuzz, InterleavedPartialFramesDecodeExactlyAtCompletion) {
  const std::string f1 = sample_frame();
  const std::string f2 =
      encode_frame(MsgType::kRetire, encode(RetireMsg{1, 2, 3, 4, 5}));
  const std::string both = f1 + f2;

  FrameReader reader;
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < both.size(); ++i) {
    reader.feed(both.substr(i, 1));
    while (auto f = reader.next()) frames.push_back(std::move(*f));
    // Frames must materialize exactly when their last byte arrives.
    const std::size_t expect =
        (i + 1 >= f1.size() ? 1u : 0u) + (i + 1 >= both.size() ? 1u : 0u);
    EXPECT_EQ(frames.size(), expect) << "after byte " << i;
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MsgType::kAction);
  EXPECT_EQ(frames[1].type, MsgType::kRetire);
  EXPECT_EQ(decode<RetireMsg>(frames[1].payload).action_digest, 5u);
  EXPECT_EQ(reader.buffered(), 0u);
}

/// Message-payload sweep: every truncation and every trailing byte of the
/// codec payloads must throw (bounds checks + require_done), mirroring
/// the persist StateReader contract.
template <typename DecodeFn>
void sweep_payload(const std::string& payload, const DecodeFn& decode) {
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(decode(payload.substr(0, len)), Error)
        << "truncated to " << len;
  }
  EXPECT_THROW(decode(payload + 'Z'), Error) << "trailing garbage";
  decode(payload);  // pristine payload still decodes
}

TEST(ProtocolFuzz, MessageCodecsRejectTruncationAndTrailingGarbage) {
  sweep_payload(encode(RegisterMsg{42, "spec"}),
                [](std::string_view p) { decode<RegisterMsg>(p); });
  sweep_payload(encode(RegisterAckMsg{42, 3}),
                [](std::string_view p) { decode<RegisterAckMsg>(p); });
  sweep_payload(encode(sample_action_msg()),
                [](std::string_view p) { decode<ActionMsg>(p); });
  sweep_payload(encode(RetireMsg{9, 1, 2, 3, 4}),
                [](std::string_view p) { decode<RetireMsg>(p); });
  sweep_payload(encode(DeregisterMsg{5}),
                [](std::string_view p) { decode<DeregisterMsg>(p); });
  sweep_payload(encode(StatsReplyMsg{}),
                [](std::string_view p) { decode<StatsReplyMsg>(p); });
  sweep_payload(encode(ErrorMsg{1, "m"}),
                [](std::string_view p) { decode<ErrorMsg>(p); });
}

TEST(ProtocolFuzz, ActionCountsAreBoundedByPayloadSize) {
  // A corrupt vf_levels/placements count must be rejected against the
  // bytes actually remaining, never honored with a giant allocation.
  ActionMsg m = sample_action_msg();
  std::string payload = encode(m);
  // vf_levels count is a u64 right after tag + 4 u64 + 1 f64; stomp it.
  const std::size_t count_offset = 4 + 8 * 4 + 8;
  ASSERT_LT(count_offset + 8, payload.size());
  const std::uint64_t huge = 1ull << 40;
  std::memcpy(payload.data() + count_offset, &huge, sizeof(huge));
  EXPECT_THROW(decode<ActionMsg>(payload), Error);
}

TEST(Protocol, FoldActionIgnoresSentNsOnly) {
  const ActionMsg a = sample_action_msg();
  ActionMsg b = a;
  b.sent_ns = 0;  // wall-clock stamp must not affect the digest
  validate::Fnv64 da, db;
  fold_action(da, a);
  fold_action(db, b);
  EXPECT_EQ(da.value(), db.value());

  ActionMsg c = a;
  c.placements[1].core = 3;  // any decision field must affect it
  validate::Fnv64 dc;
  fold_action(dc, c);
  EXPECT_NE(da.value(), dc.value());
}

}  // namespace
}  // namespace topil::server
