#include "tcpsim/segment.hpp"

namespace xunet::tcp {

using util::Errc;

util::Buffer serialize(const Segment& s) {
  util::Writer w(kTcpHeaderBytes + s.payload.size());
  w.u16(s.src_port);
  w.u16(s.dst_port);
  w.u32(s.seq);
  w.u32(s.ack);
  std::uint8_t f = 0;
  if (s.flags.syn) f |= 0x01;
  if (s.flags.ack) f |= 0x02;
  if (s.flags.fin) f |= 0x04;
  if (s.flags.rst) f |= 0x08;
  w.u8(f);
  w.u8(0);  // reserved
  // Window scaled down to u16 granularity of 1 KiB to keep the header small.
  w.u16(s.window);
  w.bytes(s.payload);
  return w.take();
}

util::Result<Segment> parse_segment(util::BytesView wire) {
  util::Reader r(wire);
  Segment s;
  auto sp = r.u16();
  auto dp = r.u16();
  auto seq = r.u32();
  auto ack = r.u32();
  auto f = r.u8();
  auto reserved = r.u8();
  auto win = r.u16();
  if (!sp || !dp || !seq || !ack || !f || !reserved || !win) {
    return Errc::protocol_error;
  }
  s.src_port = *sp;
  s.dst_port = *dp;
  s.seq = *seq;
  s.ack = *ack;
  s.flags.syn = (*f & 0x01) != 0;
  s.flags.ack = (*f & 0x02) != 0;
  s.flags.fin = (*f & 0x04) != 0;
  s.flags.rst = (*f & 0x08) != 0;
  s.window = *win;
  s.payload = util::to_buffer(r.rest());
  return s;
}

}  // namespace xunet::tcp
