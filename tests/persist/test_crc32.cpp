#include "persist/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace topil::persist {
namespace {

// One table lookup per byte, the textbook form of the same CRC.
std::uint32_t bytewise_crc32(const unsigned char* data, std::size_t size) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32().value(), 0x00000000u);
}

// Every length from 0 to 64 bytes, from each of 8 start offsets, split at
// every point into two updates: both loops, their hand-over and every tail
// length agree with the bytewise reference.
TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthSplitAndOffset) {
  std::vector<unsigned char> buffer(64 + 8);
  std::uint32_t x = 0x12345678u;
  for (unsigned char& b : buffer) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* data = buffer.data() + offset;
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint32_t expected = bytewise_crc32(data, len);
      ASSERT_EQ(crc32(data, len), expected) << offset << "/" << len;
      for (std::size_t split = 0; split <= len; ++split) {
        Crc32 crc;
        crc.update(data, split);
        crc.update(data + split, len - split);
        ASSERT_EQ(crc.value(), expected)
            << offset << "/" << len << "/" << split;
      }
    }
  }
}

TEST(Crc32, LargeBufferMatchesBytewiseReference) {
  std::string data(1 << 20, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>((i * 131u) ^ (i >> 7));
  }
  EXPECT_EQ(crc32(data),
            bytewise_crc32(reinterpret_cast<const unsigned char*>(data.data()),
                           data.size()));
}

}  // namespace
}  // namespace topil::persist
