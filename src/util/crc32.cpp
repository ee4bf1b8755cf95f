#include "util/crc32.hpp"

#include <array>
#include <cstddef>

namespace xunet::util {
namespace {

using Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 lookup tables for the reflected 0x04C11DB7 polynomial
/// (Kounavis & Berry, ISCC 2005), generated at compile time.  kT[0] is the
/// classic byte-at-a-time table; kT[k][i] is the CRC of byte i followed by
/// k zero bytes, so eight lookups fold eight input bytes at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr auto kT = make_tables();

/// Little-endian 32-bit load built from bytes: defined at any alignment and
/// independent of host byte order.
inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

}  // namespace

void Crc32::update(BytesView data) noexcept {
  std::uint32_t c = state_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kT[7][lo & 0xFFu] ^ kT[6][(lo >> 8) & 0xFFu] ^
        kT[5][(lo >> 16) & 0xFFu] ^ kT[4][lo >> 24] ^
        kT[3][hi & 0xFFu] ^ kT[2][(hi >> 8) & 0xFFu] ^
        kT[1][(hi >> 16) & 0xFFu] ^ kT[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kT[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t crc32(BytesView data) noexcept {
  Crc32 c;
  c.update(data);
  return c.value();
}

}  // namespace xunet::util
