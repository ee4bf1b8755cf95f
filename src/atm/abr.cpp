#include "atm/abr.hpp"

#include <algorithm>

namespace xunet::atm {

AbrSource::AbrSource(sim::Simulator& sim, CellLink& uplink, Vci vci,
                     AbrParams params)
    : uplink_(uplink),
      vci_(vci),
      params_(params),
      acr_bps_(params.icr_bps > 0 ? params.icr_bps
                                  : std::max(params.pcr_bps / 16, floor_bps())),
      // Start due-for-RM so the very first transmission is a forward RM
      // cell: the loop gets feedback before the source has built momentum.
      since_rm_(params.nrm),
      pacer_(sim) {}

std::uint64_t AbrSource::floor_bps() const noexcept {
  return std::max(params_.mcr_bps, kAbrFloorBps);
}

void AbrSource::submit(const Cell& cell) {
  Cell& slot = q_.push_slot();
  slot = cell;
  slot.vci = vci_;
  if (!pacer_.armed()) arm();
}

void AbrSource::arm() {
  const std::int64_t gap = cell_interval_ns(acr_bps_);
  pacer_.arm(sim::nanoseconds(gap), [this] { pump(); });
}

void AbrSource::pump() {
  if (q_.empty()) return;
  if (since_rm_ >= params_.nrm) {
    // In-rate forward RM cell: it takes this transmission slot, so RM
    // overhead is charged against ACR like the standard requires.
    Cell rm;
    rm.vci = vci_;
    rm.rm = true;
    rm.er_bps = params_.pcr_bps;  // ask for everything; switches shave it
    uplink_.send(rm);
    ++rm_sent_;
    since_rm_ = 0;
  } else {
    uplink_.send(q_.front());
    q_.pop_front();
    ++cells_sent_;
    ++since_rm_;
  }
  if (!q_.empty()) arm();
}

void AbrSource::on_backward_rm(const Cell& rm) {
  if (!rm.rm || !rm.backward) return;
  ++rm_received_;
  if (rm.ci) {
    acr_bps_ -= acr_bps_ >> params_.rdf_shift;
  } else {
    acr_bps_ += params_.pcr_bps >> params_.rif_shift;
  }
  if (rm.er_bps > 0) acr_bps_ = std::min(acr_bps_, rm.er_bps);
  acr_bps_ = std::min(acr_bps_, params_.pcr_bps);
  acr_bps_ = std::max(acr_bps_, floor_bps());
}

void AbrTurnaround::on_rm(const Cell& fwd) {
  if (!fwd.rm || fwd.backward) return;
  Cell back = fwd;
  back.vci = return_vci_;
  back.backward = true;
  uplink_.send(back);
  ++turned_;
}

}  // namespace xunet::atm
