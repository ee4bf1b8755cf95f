#include "signaling/stub_proto.hpp"

namespace xunet::sig {

util::Buffer serialize(const StubMsg& m) {
  util::Writer w(kStubMsgBytes);
  w.u8(static_cast<std::uint8_t>(m.type));
  w.u8(static_cast<std::uint8_t>(m.up_type));
  w.u16(m.vci);
  w.u16(m.cookie);
  w.u32(m.machine.value);
  return w.take();
}

void StubFramer::feed(util::BytesView chunk) {
  pending_.insert(pending_.end(), chunk.begin(), chunk.end());
  while (pending_.size() >= kStubMsgBytes) {
    util::Reader r({pending_.data(), kStubMsgBytes});
    StubMsg m;
    m.type = static_cast<StubMsg::Type>(*r.u8());
    m.up_type = static_cast<kern::AnandUpType>(*r.u8());
    m.vci = *r.u16();
    m.cookie = *r.u16();
    m.machine.value = *r.u32();
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<long>(kStubMsgBytes));
    on_msg_(m);
  }
}

}  // namespace xunet::sig
