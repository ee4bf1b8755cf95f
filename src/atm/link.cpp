#include "atm/link.hpp"

#include <algorithm>
#include <cassert>

namespace xunet::atm {

CellLink::CellLink(sim::Simulator& sim, std::uint64_t rate_bps,
                   sim::SimDuration propagation, CellSink& sink)
    : sim_(sim),
      rate_bps_(rate_bps),
      cell_time_ns_(static_cast<std::int64_t>(kCellBits * 1'000'000'000ull / rate_bps)),
      propagation_(propagation),
      sink_(sink),
      delivery_(sim) {
  assert(rate_bps_ > 0);
}

void CellLink::send(const Cell& cell) {
  if (down_) {
    ++cells_dropped_;
    return;
  }
  if (loss_prob_ > 0.0 && rng_ != nullptr && rng_->chance(loss_prob_)) {
    ++cells_dropped_;
    return;
  }
  const bool corrupt =
      corrupt_prob_ > 0.0 && rng_ != nullptr && rng_->chance(corrupt_prob_);
  // Serialization: the cell starts when the transmitter frees up, takes one
  // cell-time on the wire, then propagates.
  const sim::SimTime start = std::max(line_free_at_, sim_.now());
  const sim::SimTime tx_done = start + cell_time();
  line_free_at_ = tx_done;
  ++cells_sent_;
  Pending& p = pending_.push_slot();
  p.at = tx_done + propagation_;
  p.cell = cell;
  if (corrupt) {
    // One flipped payload bit; AAL5's CRC-32 catches it at reassembly.
    const std::size_t byte = rng_->below(kCellPayload);
    p.cell.payload[byte] ^= static_cast<std::uint8_t>(1u << rng_->below(8));
    ++cells_corrupted_;
  }
  // Arrival instants are non-decreasing (line_free_at_ and now() are both
  // monotone), so the front of the queue is always the next due cell.
  if (!delivery_.armed()) {
    delivery_.arm(pending_.front().at - sim_.now(), [this] { deliver(); });
  }
}

void CellLink::deliver() {
  train_.clear();
  const sim::SimTime now = sim_.now();
  while (!pending_.empty() && pending_.front().at <= now) {
    train_.push_back(pending_.front().cell);
    pending_.pop_front();
  }
  if (!train_.empty()) sink_.cells_arrival(train_.data(), train_.size());
  if (!pending_.empty() && !delivery_.armed()) {
    delivery_.arm(pending_.front().at - now, [this] { deliver(); });
  }
}

}  // namespace xunet::atm
