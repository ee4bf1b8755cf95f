// link.hpp — unidirectional ATM links with rate and propagation delay.
//
// Xunet II long-distance transmission ran over DS3 (45 Mb/s) and optically
// amplified 622 Mb/s lines; both are just parameter choices here.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atm/cell.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"

namespace xunet::atm {

/// Receives cells from a link.  Implemented by switch ports and host
/// interfaces.
class CellSink {
 public:
  virtual ~CellSink() = default;
  virtual void cell_arrival(const Cell& cell) = 0;
  /// A cell train: every cell arrived at the current instant.  Sinks on the
  /// fast path override this; the default unbundles to cell_arrival.
  virtual void cells_arrival(const Cell* cells, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) cell_arrival(cells[i]);
  }
};

/// Canonical Xunet line rates.
inline constexpr std::uint64_t kDs3Bps = 45'000'000;
inline constexpr std::uint64_t kOc12Bps = 622'000'000;

/// Unidirectional cell pipe.  Models serialization (cells queue behind one
/// another at the line rate) plus fixed propagation delay.  Optional random
/// cell loss supports the AAL5 loss-detection experiments.
///
/// Every cell arrives at its own exact instant: serialization end plus
/// propagation.  In-flight cells live in a ring queue ordered by arrival
/// instant, and one delivery Timer delivers every cell due at that instant
/// as a train, so the event queue holds one entry per link instead of one
/// per cell in flight.
class CellLink {
 public:
  /// `sink` must outlive the link.
  CellLink(sim::Simulator& sim, std::uint64_t rate_bps,
           sim::SimDuration propagation, CellSink& sink);
  CellLink(const CellLink&) = delete;
  CellLink& operator=(const CellLink&) = delete;

  /// Enqueue a cell for transmission.
  void send(const Cell& cell);

  /// Drop each cell independently with probability `p` using `rng`
  /// (which must outlive the link).  p=0 disables loss.
  void set_loss(double p, util::Rng* rng) noexcept {
    loss_prob_ = p;
    rng_ = rng;
  }

  /// Fail (or restore) the link: while down, every cell is dropped —
  /// a fibre cut between switches.
  void set_down(bool down) noexcept { down_ = down; }
  [[nodiscard]] bool is_down() const noexcept { return down_; }

  /// Flip one payload bit in each cell independently with probability `p`
  /// (rng must outlive the link).  The AAL5 CRC-32 at the reassembling
  /// endpoint detects the damage and discards the whole frame.
  void set_corrupt(double p, util::Rng* rng) noexcept {
    corrupt_prob_ = p;
    rng_ = rng;
  }

  [[nodiscard]] std::uint64_t rate_bps() const noexcept { return rate_bps_; }
  [[nodiscard]] sim::SimDuration propagation() const noexcept { return propagation_; }
  [[nodiscard]] std::uint64_t cells_sent() const noexcept { return cells_sent_; }
  [[nodiscard]] std::uint64_t cells_dropped() const noexcept { return cells_dropped_; }
  [[nodiscard]] std::uint64_t cells_corrupted() const noexcept { return cells_corrupted_; }

  /// Serialization time of one cell at this link's rate.
  [[nodiscard]] sim::SimDuration cell_time() const noexcept {
    return sim::nanoseconds(cell_time_ns_);
  }

 private:
  struct Pending {
    sim::SimTime at;
    Cell cell;
  };

  void deliver();

  sim::Simulator& sim_;
  std::uint64_t rate_bps_;
  std::int64_t cell_time_ns_;  ///< cached kCellBits/rate, avoids a div per cell
  sim::SimDuration propagation_;
  CellSink& sink_;
  sim::SimTime line_free_at_{};  ///< when the transmitter finishes its queue
  util::RingQueue<Pending> pending_;  ///< in-flight cells, arrival order
  std::vector<Cell> train_;           ///< reused delivery scratch
  sim::Timer delivery_;               ///< the one outstanding delivery event
  bool down_ = false;
  double loss_prob_ = 0.0;
  double corrupt_prob_ = 0.0;
  util::Rng* rng_ = nullptr;
  std::uint64_t cells_sent_ = 0;
  std::uint64_t cells_dropped_ = 0;
  std::uint64_t cells_corrupted_ = 0;
};

}  // namespace xunet::atm
