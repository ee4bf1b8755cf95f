// checksum.hpp — 16-bit one's-complement Internet checksum (RFC 1071),
// used by the simulated IP header, and the Fletcher-16 checksum that
// guards every signaling message body.
#pragma once

#include <cstdint>

#include "util/buffer.hpp"

namespace xunet::util {

/// Internet checksum over a byte run.  An odd trailing byte is padded with
/// zero, per RFC 1071.
[[nodiscard]] std::uint16_t internet_checksum(BytesView data) noexcept;

/// True when a header whose checksum field is included in `data` verifies.
[[nodiscard]] inline bool checksum_ok(BytesView data) noexcept {
  return internet_checksum(data) == 0;
}

/// Fletcher-16 (two running sums mod 255; the second sum in the high
/// byte).  The signaling PVCs are datagram sockets: a corrupted cell that
/// slips past (or is injected above) the AAL5 CRC must never parse into a
/// plausible message, so a flipped bit becomes loss, which the
/// reliable-delivery layer already handles.
[[nodiscard]] std::uint16_t fletcher16(BytesView data) noexcept;

}  // namespace xunet::util
