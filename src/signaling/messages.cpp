#include "signaling/messages.hpp"

#include <algorithm>
#include <cassert>

#include "util/checksum.hpp"

namespace xunet::sig {

using util::Errc;

std::string_view to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::export_srv: return "EXPORT_SRV";
    case MsgType::service_regs: return "SERVICE_REGS";
    case MsgType::withdraw_srv: return "WITHDRAW_SRV";
    case MsgType::incoming_conn: return "INCOMING_CONN";
    case MsgType::accept_conn: return "ACCEPT_CONN";
    case MsgType::reject_conn: return "REJECT_CONN";
    case MsgType::vci_for_conn: return "VCI_FOR_CONN";
    case MsgType::connect_req: return "CONNECT_REQ";
    case MsgType::req_id: return "REQ_ID";
    case MsgType::cancel_req: return "CANCEL_REQ";
    case MsgType::conn_failed: return "CONN_FAILED";
    case MsgType::peer_setup: return "PEER_SETUP";
    case MsgType::peer_accept: return "PEER_ACCEPT";
    case MsgType::peer_reject: return "PEER_REJECT";
    case MsgType::peer_established: return "PEER_ESTABLISHED";
    case MsgType::peer_bound: return "PEER_BOUND";
    case MsgType::peer_setup_failed: return "PEER_SETUP_FAILED";
    case MsgType::peer_teardown: return "PEER_TEARDOWN";
    case MsgType::peer_cancel: return "PEER_CANCEL";
    case MsgType::peer_ack: return "PEER_ACK";
    case MsgType::peer_resync: return "PEER_RESYNC";
    case MsgType::peer_resync_ack: return "PEER_RESYNC_ACK";
    case MsgType::peer_resync_info: return "PEER_RESYNC_INFO";
  }
  return "?";
}

namespace {

/// The fixed fields and the four u16 string lengths after the checksum.
constexpr std::size_t kFixedBodyBytes = 42;

std::size_t body_size(const Msg& m) noexcept {
  return kFixedBodyBytes + m.service.size() + m.qos.size() + m.dst.size() +
         m.comment.size();
}

/// One exact-size buffer: the u16 length when `framed`, the body's
/// Fletcher-16 (written in place once the body is), then the body.
util::Buffer encode(const Msg& m, bool framed) {
  const std::size_t body = body_size(m);
  const std::size_t sum_at = framed ? 2 : 0;
  util::Writer w(sum_at + 2 + body);
  if (framed) w.u16(static_cast<std::uint16_t>(2 + body));
  w.u16(0);
  w.u8(static_cast<std::uint8_t>(m.type));
  w.u32(m.req_id);
  w.u32(m.seq);
  w.u16(m.cookie);
  w.u16(m.vci);
  w.u16(m.vci2);
  w.u16(m.port);
  w.u8(m.error);
  w.u64(m.trace_id);
  w.u64(m.parent_span);
  w.lp_string(m.service);
  w.lp_string(m.qos);
  w.lp_string(m.dst);
  w.lp_string(m.comment);
  util::Buffer out = w.take();
  const std::uint16_t sum = util::fletcher16({out.data() + sum_at + 2, body});
  out[sum_at] = static_cast<std::uint8_t>(sum >> 8);
  out[sum_at + 1] = static_cast<std::uint8_t>(sum);
  return out;
}

}  // namespace

bool fits_frame(const Msg& m) noexcept { return 2 + body_size(m) <= 0xFFFF; }

util::Buffer serialize(const Msg& m) {
  assert(std::max({m.service.size(), m.qos.size(), m.dst.size(),
                   m.comment.size()}) <= 0xFFFF);
  return encode(m, false);
}

util::Result<Msg> parse_msg(util::BytesView wire) {
  // Past this size check the checksum and fixed fields cannot run short.
  util::Reader r(wire);
  if (wire.size() < 2 + kFixedBodyBytes ||
      *r.u16() != util::fletcher16(wire.subspan(2))) {
    return Errc::protocol_error;
  }
  const std::uint8_t type = *r.u8();
  if (type < static_cast<std::uint8_t>(MsgType::export_srv) ||
      type > static_cast<std::uint8_t>(MsgType::peer_resync_info)) {
    return Errc::protocol_error;
  }
  Msg m;
  m.type = static_cast<MsgType>(type);
  m.req_id = *r.u32();
  m.seq = *r.u32();
  m.cookie = *r.u16();
  m.vci = *r.u16();
  m.vci2 = *r.u16();
  m.port = *r.u16();
  m.error = *r.u8();
  m.trace_id = *r.u64();
  m.parent_span = *r.u64();
  for (std::string* field : {&m.service, &m.qos, &m.dst, &m.comment}) {
    auto text = r.lp_bytes();
    if (!text) return Errc::protocol_error;
    field->assign(reinterpret_cast<const char*>(text->data()), text->size());
  }
  if (!r.exhausted()) return Errc::protocol_error;
  return m;
}

util::Buffer frame(const Msg& m) {
  assert(fits_frame(m));
  return encode(m, true);
}

void MsgFramer::feed(util::BytesView chunk) {
  // Parse in place: only a message split across chunks is copied, into
  // pending_, and parsed from there.
  if (!pending_.empty()) pending_.insert(pending_.end(), chunk.begin(), chunk.end());
  util::BytesView rest = pending_.empty() ? chunk : util::BytesView(pending_);
  while (rest.size() >= 2) {
    std::size_t len = static_cast<std::size_t>(rest[0]) << 8 | rest[1];
    if (rest.size() < 2 + len) break;
    auto parsed = parse_msg(rest.subspan(2, len));
    rest = rest.subspan(2 + len);
    if (parsed) {
      on_msg_(*parsed);
    } else if (on_err_) {
      on_err_(parsed.error());
    }
  }
  pending_ = util::Buffer(rest.begin(), rest.end());
}

}  // namespace xunet::sig
