// wire_test.cpp — the wire encodings, byte for byte, and what encoding
// them costs the allocator.
//
// Wire byte counts are simulated behaviour: they set how many cells and
// TCP segments a call takes.  The golden vectors pin every encoder's bytes
// so a faster codec must keep the encoding exactly.  The allocation tests
// need the counting operator new (this binary links xunet_alloc_hook) and
// skip themselves without it.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "atm/aal5.hpp"
#include "ip/packet.hpp"
#include "signaling/messages.hpp"
#include "signaling/stub_proto.hpp"
#include "tcpsim/segment.hpp"
#include "util/alloc_hook.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace xunet {
namespace {

std::string hex(util::BytesView b) {
  std::string s;
  char byte[3];
  for (std::uint8_t x : b) {
    std::snprintf(byte, sizeof byte, "%02x", x);
    s += byte;
  }
  return s;
}

sig::Msg golden_msg() {
  sig::Msg m;
  m.type = sig::MsgType::connect_req;
  m.req_id = 0x01020304;
  m.seq = 0x0A0B0C0D;
  m.cookie = 0xBEEF;
  m.vci = 42;
  m.vci2 = 43;
  m.port = 4000;
  m.error = 3;
  m.trace_id = 0x1122334455667788ull;
  m.parent_span = 0x99AABBCCDDEEFF00ull;
  m.service = "echo";
  m.qos = "class=predicted,bw=1000000";
  m.dst = "berkeley.rt";
  m.comment = "hi";
  return m;
}

sig::StubMsg golden_stub() {
  sig::StubMsg s;
  s.type = sig::StubMsg::Type::up_indication;
  s.up_type = kern::AnandUpType::bind_indication;
  s.vci = 0x0102;
  s.cookie = 0xBEEF;
  s.machine = ip::make_ip(10, 0, 0, 2);
  return s;
}

tcp::Segment golden_segment() {
  tcp::Segment g;
  g.src_port = 1024;
  g.dst_port = 177;
  g.seq = 0x01020304;
  g.ack = 0xA0B0C0D0;
  g.flags.ack = true;
  g.flags.fin = true;
  g.window = 8;
  g.payload = {'a', 'b', 'c'};
  return g;
}

ip::IpPacket golden_packet() {
  ip::IpPacket p;
  p.src = ip::make_ip(10, 0, 0, 2);
  p.dst = ip::make_ip(10, 0, 0, 1);
  p.protocol = ip::IpProto::tcp;
  p.id = 0x1234;
  p.payload = {1, 2, 3, 4, 5, 6};
  return p;
}

/// A non-first fragment: MF set, non-zero offset, its own TTL and protocol.
ip::IpPacket golden_fragment() {
  ip::IpPacket p = golden_packet();
  p.protocol = ip::IpProto::atm;
  p.more_fragments = true;
  p.frag_offset = 1480;
  p.ttl = 63;
  p.payload = {7, 8, 9, 10, 11};
  return p;
}

// The 87-byte CONNECT_REQ body: Fletcher-16, the fixed fields, then four
// u16-length-prefixed strings.
constexpr const char* kMsgHex =
    "0ea208010203040a0b0c0dbeef002a002b0fa003112233445566778899aabbcc"
    "ddeeff0000046563686f001a636c6173733d7072656469637465642c62773d31"
    "303030303030000b6265726b656c65792e727400026869";

TEST(WireGolden, MessageSerializeAndFrame) {
  const sig::Msg m = golden_msg();
  EXPECT_EQ(hex(sig::serialize(m)), kMsgHex);
  EXPECT_EQ(hex(sig::frame(m)), std::string("0057") + kMsgHex);
  auto back = sig::parse_msg(sig::serialize(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(hex(sig::serialize(*back)), kMsgHex);
}

TEST(WireGolden, StubMessage) {
  EXPECT_EQ(hex(sig::serialize(golden_stub())), "03010102beef0a000002");
}

TEST(WireGolden, TcpSegment) {
  EXPECT_EQ(hex(tcp::serialize(golden_segment())),
            "040000b101020304a0b0c0d006000008616263");
}

TEST(WireGolden, IpPacketAndFragment) {
  EXPECT_EQ(hex(ip::serialize(golden_packet())),
            "4500001a12340000400654a80a0000020a000001010203040506");
  EXPECT_EQ(hex(ip::serialize(golden_fragment())),
            "45000019123420b93f79347d0a0000020a0000010708090a0b");
}

/// Fletcher-16 as written in the textbook: two reductions per byte.
std::uint16_t fletcher16_reference(util::BytesView data) {
  std::uint32_t a = 0, b = 0;
  for (std::uint8_t byte : data) {
    a = (a + byte) % 255;
    b = (b + a) % 255;
  }
  return static_cast<std::uint16_t>((b << 8) | a);
}

TEST(Fletcher16, MatchesPerByteReferenceAtEveryLength) {
  util::Rng rng(16);
  util::Buffer random(1500);
  for (auto& x : random) x = static_cast<std::uint8_t>(rng.next());
  // All 0xFF is the overflow worst case: both sums grow fastest.
  const util::Buffer ones(1500, 0xFF);
  for (std::size_t n = 0; n <= 1500; ++n) {
    ASSERT_EQ(util::fletcher16({random.data(), n}),
              fletcher16_reference({random.data(), n}))
        << "random input, length " << n;
    ASSERT_EQ(util::fletcher16({ones.data(), n}),
              fletcher16_reference({ones.data(), n}))
        << "all-0xFF input, length " << n;
  }
  // Up to, just past and several times past one 5802-byte block.
  for (std::size_t n : {std::size_t{5802}, std::size_t{5803}, std::size_t{3 * 5802 + 1}}) {
    const util::Buffer long_ones(n, 0xFF);
    EXPECT_EQ(util::fletcher16(long_ones), fletcher16_reference(long_ones)) << n;
  }
}

/// Heap allocations made by one call of `encode`.
template <typename F>
std::uint64_t allocs_of(F&& encode) {
  const std::uint64_t before = util::alloc_count();
  const util::Buffer out = encode();
  const std::uint64_t n = util::alloc_count() - before;
  EXPECT_FALSE(out.empty());
  return n;
}

TEST(WireAllocs, EveryEncoderAllocatesOnce) {
  if (!util::alloc_hook_installed()) {
    GTEST_SKIP() << "alloc hook not linked into this binary";
  }
  const sig::Msg m = golden_msg();
  const sig::StubMsg stub = golden_stub();
  const tcp::Segment seg = golden_segment();
  const ip::IpPacket pkt = golden_packet();
  EXPECT_EQ(allocs_of([&] { return sig::serialize(m); }), 1u);
  EXPECT_EQ(allocs_of([&] { return sig::frame(m); }), 1u);
  EXPECT_EQ(allocs_of([&] { return sig::serialize(stub); }), 1u);
  EXPECT_EQ(allocs_of([&] { return tcp::serialize(seg); }), 1u);
  EXPECT_EQ(allocs_of([&] { return ip::serialize(pkt); }), 1u);
}

TEST(WireAllocs, SteadyStateAal5ReassemblyAllocatesOncePerFrame) {
  if (!util::alloc_hook_installed()) {
    GTEST_SKIP() << "alloc hook not linked into this binary";
  }
  constexpr atm::Vci kVci = 100;
  constexpr int kWarm = 4, kMeasured = 32;
  for (std::size_t size : {std::size_t{64}, std::size_t{9180}}) {
    // Segment every frame up front so only reassembly is counted.
    atm::Aal5Segmenter seg;
    std::vector<std::vector<atm::Cell>> frames;
    for (int f = 0; f < kWarm + kMeasured; ++f) {
      auto cells = seg.segment(kVci, util::Buffer(size, static_cast<std::uint8_t>(f)));
      ASSERT_TRUE(cells.ok());
      frames.push_back(std::move(*cells));
    }
    std::size_t delivered = 0;
    atm::Aal5Reassembler reasm([&](atm::Aal5Frame fr) {
      if (fr.payload.size() == size) ++delivered;
    });
    for (int f = 0; f < kWarm; ++f) {
      for (const atm::Cell& c : frames[static_cast<std::size_t>(f)]) reasm.cell_arrival(c);
    }
    const std::uint64_t before = util::alloc_count();
    for (int f = kWarm; f < kWarm + kMeasured; ++f) {
      for (const atm::Cell& c : frames[static_cast<std::size_t>(f)]) reasm.cell_arrival(c);
    }
    const std::uint64_t allocs = util::alloc_count() - before;
    EXPECT_EQ(delivered, static_cast<std::size_t>(kWarm + kMeasured)) << size << " B";
    EXPECT_EQ(reasm.error_count(), 0u) << size << " B";
    EXPECT_LE(allocs, static_cast<std::uint64_t>(kMeasured))
        << size << " B frames: more than one allocation per frame";
  }
}

}  // namespace
}  // namespace xunet
