#include "atm/aal5.hpp"

#include <cassert>
#include <cstring>

#include "util/crc32.hpp"

namespace xunet::atm {

using util::Errc;

std::string_view to_string(Aal5Error e) noexcept {
  switch (e) {
    case Aal5Error::crc_mismatch: return "crc_mismatch";
    case Aal5Error::length_mismatch: return "length_mismatch";
    case Aal5Error::out_of_order: return "out_of_order";
    case Aal5Error::oversize: return "oversize";
  }
  return "?";
}

util::Result<void> Aal5Segmenter::emit(Vci vci, const util::BytesView* spans,
                                       std::size_t nspans, std::size_t total,
                                       std::vector<Cell>& out) {
  if (total > kMaxFramePayload) return Errc::message_too_long;
  if (vci == kInvalidVci) return Errc::invalid_argument;

  const std::uint8_t seq = seq_[vci]++;

  // CPCS-PDU = payload | pad | trailer, a multiple of the cell payload
  // size — but the PDU is never materialized: each cell payload is filled
  // straight from the scattered input and fed to the incremental CRC.
  const std::size_t ncells = cells_for_payload(total);
  out.resize(ncells);
  util::Crc32 crc;
  std::size_t si = 0;    // current input span
  std::size_t soff = 0;  // offset within it
  for (std::size_t i = 0; i < ncells; ++i) {
    Cell& c = out[i];
    c.vci = vci;
    c.end_of_frame = (i + 1 == ncells);
    std::size_t filled = 0;
    while (filled < kCellPayload && si < nspans) {
      const util::BytesView& s = spans[si];
      const std::size_t take = std::min(kCellPayload - filled, s.size() - soff);
      if (take > 0) {
        std::memcpy(c.payload.data() + filled, s.data() + soff, take);
        filled += take;
        soff += take;
      }
      if (soff == s.size()) {
        ++si;
        soff = 0;
      }
    }
    std::memset(c.payload.data() + filled, 0, kCellPayload - filled);
    if (!c.end_of_frame) {
      crc.update({c.payload.data(), kCellPayload});
      continue;
    }
    // The data never reaches the trailer region of the final cell
    // (cells_for_payload reserves the 8 trailer bytes), so the zero pad
    // above is safely overwritten here.
    std::uint8_t* trailer = c.payload.data() + kCellPayload - kAal5TrailerBytes;
    trailer[0] = seq;  // UU: Xunet-variant frame sequence number
    trailer[1] = 0;    // CPI
    trailer[2] = static_cast<std::uint8_t>(total >> 8);
    trailer[3] = static_cast<std::uint8_t>(total);
    // CRC-32 covers the whole PDU except the CRC field itself.
    crc.update({c.payload.data(), kCellPayload - 4});
    const std::uint32_t v = crc.value();
    trailer[4] = static_cast<std::uint8_t>(v >> 24);
    trailer[5] = static_cast<std::uint8_t>(v >> 16);
    trailer[6] = static_cast<std::uint8_t>(v >> 8);
    trailer[7] = static_cast<std::uint8_t>(v);
  }
  return {};
}

util::Result<std::vector<Cell>> Aal5Segmenter::segment(Vci vci,
                                                       util::BytesView payload) {
  std::vector<Cell> cells;
  auto r = emit(vci, &payload, 1, payload.size(), cells);
  if (!r) return r.error();
  return cells;
}

util::Result<void> Aal5Segmenter::segment_gather(
    Vci vci, const std::vector<util::Buffer>& segs, std::vector<Cell>& out) {
  spans_.clear();
  std::size_t total = 0;
  for (const util::Buffer& s : segs) {
    spans_.emplace_back(s.data(), s.size());
    total += s.size();
  }
  return emit(vci, spans_.data(), spans_.size(), total, out);
}

std::uint8_t Aal5Segmenter::next_seq(Vci vci) const noexcept {
  const std::uint8_t* s = seq_.find(vci);
  return s == nullptr ? 0 : *s;
}

Aal5Reassembler::Aal5Reassembler(FrameHandler on_frame, ErrorHandler on_error)
    : on_frame_(std::move(on_frame)), on_error_(std::move(on_error)) {
  assert(on_frame_);
}

void Aal5Reassembler::fail(Vci vci, Aal5Error e) {
  ++errors_;
  ++errors_by_cause_[static_cast<std::size_t>(e)];
  if (on_error_) on_error_(vci, e);
}

void Aal5Reassembler::cell_arrival(const Cell& cell) {
  // RM cells are never part of an AAL5 frame; a feedback cell slipping
  // into the reassembly stream must not corrupt a partial frame.  The
  // Hobbit board filters them before reassembly; this is the backstop for
  // endpoints that feed the reassembler directly.
  if (cell.rm) return;
  VcState& vc = vcs_[cell.vci];
  if (vc.partial.size() + kCellPayload > kMaxFramePayload + kCellPayload * 2) {
    // A lost end-of-frame cell would otherwise grow this buffer without
    // bound; discard and report, as the Hobbit hardware would.
    vc.partial.clear();
    fail(cell.vci, Aal5Error::oversize);
    return;
  }
  vc.partial.insert(vc.partial.end(), cell.payload.begin(), cell.payload.end());
  if (!cell.end_of_frame) return;

  // The PDU is checked in place and the payload copied out, so the buffer
  // keeps its capacity for the next frame; every exit below clears it
  // before a callback can release the VC.
  const util::Buffer& pdu = vc.partial;
  // The PDU is a whole number of cells >= 1, so the trailer is present.
  const std::uint8_t* trailer = pdu.data() + pdu.size() - kAal5TrailerBytes;
  const std::uint8_t seq = trailer[0];
  const std::size_t length =
      static_cast<std::size_t>(trailer[2]) << 8 | trailer[3];
  const std::uint32_t wire_crc = static_cast<std::uint32_t>(trailer[4]) << 24 |
                                 static_cast<std::uint32_t>(trailer[5]) << 16 |
                                 static_cast<std::uint32_t>(trailer[6]) << 8 |
                                 trailer[7];
  auto drop = [&](Aal5Error e) {
    vc.partial.clear();
    fail(cell.vci, e);
  };

  if (util::crc32({pdu.data(), pdu.size() - 4}) != wire_crc) {
    drop(Aal5Error::crc_mismatch);
    return;
  }
  // Length consistency: payload must fit the PDU with <48 bytes of pad.
  const std::size_t expected_pdu =
      cells_for_payload(length) * kCellPayload;
  if (expected_pdu != pdu.size()) {
    drop(Aal5Error::length_mismatch);
    return;
  }
  const bool in_order = !vc.has_expected_seq || seq == vc.expected_seq;
  // An out-of-order frame resynchronizes the VC to itself, so one loss does
  // not poison it.
  vc.expected_seq = static_cast<std::uint8_t>(seq + 1);
  vc.has_expected_seq = true;
  if (!in_order) {
    drop(Aal5Error::out_of_order);
    return;
  }

  Aal5Frame frame;
  frame.vci = cell.vci;
  frame.seq = seq;
  frame.payload.assign(pdu.begin(), pdu.begin() + static_cast<long>(length));
  vc.partial.clear();
  ++frames_;
  on_frame_(std::move(frame));
}

void Aal5Reassembler::release(Vci vci) { vcs_.erase(vci); }

}  // namespace xunet::atm
