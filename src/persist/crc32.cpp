#include "persist/crc32.hpp"

#include <array>

namespace topil::persist {

namespace {

using Table = std::array<std::uint32_t, 256>;

// Slicing-by-8 (Kounavis and Berry): kTables[0] is the bytewise table of
// the reflected polynomial, and kTables[k][i] advances kTables[k - 1][i]
// through one more zero byte, so eight lookups absorb eight bytes.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr auto kTables = make_tables();

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

void Crc32::update(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = kTables;
  std::uint32_t c = state_;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = c ^ load_le32(bytes);
    const std::uint32_t hi = load_le32(bytes + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    c = t[0][(c ^ *bytes) & 0xffu] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t crc32(const void* data, std::size_t size) {
  Crc32 crc;
  crc.update(data, size);
  return crc.value();
}

}  // namespace topil::persist
