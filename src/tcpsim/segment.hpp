// segment.hpp — simulated TCP segment wire format.
#pragma once

#include <cstdint>

#include "ip/addr.hpp"
#include "util/buffer.hpp"

namespace xunet::tcp {

/// Segment control flags.
struct Flags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  bool operator==(const Flags&) const = default;
};

/// Simplified TCP header + payload.
struct Segment {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  Flags flags;
  std::uint16_t window = 0;
  util::Buffer payload;
};

/// Header bytes on the wire for this model: ports 4, seq 4, ack 4, flags 1,
/// reserved 1, window 2.
inline constexpr std::size_t kTcpHeaderBytes = 16;

[[nodiscard]] util::Buffer serialize(const Segment& s);
[[nodiscard]] util::Result<Segment> parse_segment(util::BytesView wire);

}  // namespace xunet::tcp
