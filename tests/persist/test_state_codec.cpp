#include "persist/state_codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace topil::persist {
namespace {

/// One field of every kind, in one field list.
struct EveryKind {
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double f64 = 0.0;
  bool yes = false;
  bool no = true;
  std::size_t size = 0;
  std::string str;
  std::string empty = "stale";
  float f32[1] = {};
  std::vector<float> floats;
  std::vector<double> doubles = {9.0};
  std::vector<std::size_t> sizes;
  std::vector<std::pair<std::string, double>> named;
  std::map<std::string, double> keyed;
  std::optional<std::uint64_t> some;
  std::optional<std::uint64_t> none = 5;

  template <typename Io, typename Self>
  static void fields(Io& io, Self& x) {
    io.tag("TEST");
    io.u32(x.u32);
    io.u64(x.u64);
    io.f64(x.f64);
    io.boolean(x.yes);
    io.boolean(x.no);
    io.u64(x.size);
    io.str(x.str);
    io.str(x.empty);
    io.array(x.f32, 1);
    io.seq(x.floats);
    io.seq(x.doubles);
    io.seq(x.sizes);
    io.seq(x.named, [&](auto& entry) {
      io.str(entry.first);
      io.f64(entry.second);
    });
    io.seq(x.keyed, [&](auto& entry) {
      io.str(entry.first);
      io.f64(entry.second);
    });
    io.optional(x.some, [&](auto& v) { io.u64(v); });
    io.optional(x.none, [&](auto& v) { io.u64(v); });
  }
};

TEST(StateCodec, RoundTripsEveryType) {
  EveryKind saved;
  saved.u32 = 0xdeadbeefu;
  saved.u64 = 1ull << 50;
  saved.f64 = -2.25;
  saved.yes = true;
  saved.no = false;
  saved.size = 77;
  saved.str = "hello";
  saved.empty = "";
  saved.f32[0] = 1.5f;
  saved.floats = {1.0f, 2.0f, 3.0f};
  saved.doubles = {};
  saved.sizes = {4, 5, 6};
  saved.named = {{"a", 1.0}, {"b", -1.0}};
  saved.keyed = {{"x", 0.5}};
  saved.some = 12;
  saved.none.reset();
  StateWriter out;
  EveryKind::fields(out, saved);

  EveryKind in_kind;
  StateReader in(out.buffer());
  EveryKind::fields(in, in_kind);
  in.require_done();
  EXPECT_EQ(in_kind.u32, 0xdeadbeefu);
  EXPECT_EQ(in_kind.u64, 1ull << 50);
  EXPECT_EQ(in_kind.f64, -2.25);
  EXPECT_TRUE(in_kind.yes);
  EXPECT_FALSE(in_kind.no);
  EXPECT_EQ(in_kind.size, 77u);
  EXPECT_EQ(in_kind.str, "hello");
  EXPECT_EQ(in_kind.empty, "");
  EXPECT_EQ(in_kind.f32[0], 1.5f);
  EXPECT_EQ(in_kind.floats, (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_TRUE(in_kind.doubles.empty());
  EXPECT_EQ(in_kind.sizes, (std::vector<std::size_t>{4, 5, 6}));
  EXPECT_EQ(in_kind.named, saved.named);
  EXPECT_EQ(in_kind.keyed, saved.keyed);
  EXPECT_EQ(in_kind.some, std::optional<std::uint64_t>(12));
  EXPECT_FALSE(in_kind.none.has_value());
}

TEST(StateCodec, FloatVectorsPreserveBitPatterns) {
  StateWriter out;
  out.seq(std::vector<double>{std::numeric_limits<double>::denorm_min(),
                              -std::numeric_limits<double>::infinity(), 0.0,
                              -0.0});
  StateReader in(out.buffer());
  std::vector<double> v;
  in.seq(v);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(v[1], -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::signbit(v[3]));
}

TEST(StateCodec, TagMismatchThrows) {
  StateWriter out;
  out.tag("AAAA");
  StateReader in(out.buffer());
  EXPECT_THROW(in.tag("BBBB"), Error);
}

TEST(StateCodec, TruncatedScalarThrows) {
  StateWriter out;
  out.u64(7);
  const std::string& buf = out.buffer();
  for (std::size_t len = 0; len < buf.size(); ++len) {
    StateReader in(std::string_view(buf.data(), len));
    std::uint64_t v = 0;
    EXPECT_THROW(in.u64(v), Error) << "truncated to " << len;
  }
}

TEST(StateCodec, ImplausibleVectorLengthThrows) {
  // A corrupt count claiming more elements than bytes remain must be
  // rejected before any allocation happens.
  StateWriter out;
  out.u64(std::numeric_limits<std::uint64_t>::max());
  out.f64(1.0);
  StateReader in(out.buffer());
  std::vector<double> v;
  EXPECT_THROW(in.seq(v), Error);
}

TEST(StateCodec, ImplausibleStringLengthThrows) {
  StateWriter out;
  out.u64(1ull << 40);
  out.array("abc", 3);
  StateReader in(out.buffer());
  std::string s;
  EXPECT_THROW(in.str(s), Error);
}

TEST(StateCodec, TrailingGarbageRejectedByRequireDone) {
  StateWriter out;
  out.u32(1);
  out.array("junk", 4);
  StateReader in(out.buffer());
  std::uint32_t v = 0;
  in.u32(v);
  EXPECT_THROW(in.require_done(), Error);
}

TEST(StateCodec, RemainingTracksConsumption) {
  StateWriter out;
  out.u32(1);
  out.u64(2);
  StateReader in(out.buffer());
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  EXPECT_EQ(in.remaining(), 12u);
  in.u32(u32);
  EXPECT_EQ(in.remaining(), 8u);
  in.u64(u64);
  EXPECT_EQ(in.remaining(), 0u);
  in.require_done();
}

}  // namespace
}  // namespace topil::persist
