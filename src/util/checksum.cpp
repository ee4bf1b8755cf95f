#include "util/checksum.hpp"

#include <algorithm>

namespace xunet::util {

std::uint16_t internet_checksum(BytesView data) noexcept {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) {
    sum += static_cast<std::uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFFu) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFFu);
}

std::uint16_t fletcher16(BytesView data) noexcept {
  // Reduce mod 255 once per block, not twice per byte.  From sums below 255,
  // 5802 bytes of 0xFF take b to 255*n*(n+1)/2 + 254*(n+1) < 2^32; one byte
  // more could overflow it.
  constexpr std::size_t kBlock = 5802;
  std::uint32_t a = 0, b = 0;
  for (std::size_t at = 0; at < data.size(); at += kBlock) {
    for (std::uint8_t byte : data.subspan(at, std::min(kBlock, data.size() - at))) {
      a += byte;
      b += a;
    }
    a %= 255;
    b %= 255;
  }
  return static_cast<std::uint16_t>((b << 8) | a);
}

}  // namespace xunet::util
