// timer.hpp — restartable one-shot timer over the Simulator.
//
// The one way a component owns a cancellable event.  Sighost's per-call
// request and wait-for-bind timers (§7.2: "sighost keeps a per-VCI timer
// that is loaded when a VCI is handed to an application"), its peer
// retransmit, resync and recovery-grace timers, the TCP model's RTO and
// TIME_WAIT expiries, the native stream's RTO and delayed ACK, the cell
// link's delivery event, the switch's per-port fabric and drain wake-ups,
// the ABR source's pacing and the kernel's process_terminated retry are
// all Timers.
//
// A Timer is a movable handle over one EventId: the scheduled callable never
// captures the Timer, so records holding Timers by value may live in
// vectors, maps and slabs that move them.
//
// A Timer arms with a delay, or with a DispatchKey reserved earlier: the
// switch drain reserves the key of the instant its line frees up and arms
// under it only when a cell is waiting, so it never wakes up idle.
#pragma once

#include <utility>

#include "sim/simulator.hpp"

namespace xunet::sim {

/// One-shot timer.  Arm it with a delay and callback; cancel or re-arm at
/// will.  Destroying the timer, or move-assigning onto it, cancels its
/// pending expiry, so a Timer member can never fire into a destroyed owner.
/// Moving transfers the pending expiry and leaves the source unarmed.
class Timer {
 public:
  explicit Timer(Simulator& sim) noexcept : sim_(&sim) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  Timer(Timer&& o) noexcept : sim_(o.sim_), id_(std::exchange(o.id_, 0)) {}
  Timer& operator=(Timer&& o) noexcept {
    if (this != &o) {
      cancel();
      sim_ = o.sim_;
      id_ = std::exchange(o.id_, 0);
    }
    return *this;
  }

  /// Arm (or re-arm) the timer.  A pending expiry is cancelled first.
  template <typename F>
  void arm(SimDuration delay, F&& on_expiry) {
    cancel();
    id_ = sim_->schedule(delay, std::forward<F>(on_expiry));
  }

  /// Arm (or re-arm) the timer under a key from Simulator::reserve() that
  /// has not passed: it expires exactly where an expiry armed at reserve()
  /// time would have.  A pending expiry is cancelled first.
  template <typename F>
  void arm(DispatchKey key, F&& on_expiry) {
    cancel();
    id_ = sim_->schedule_at(key, std::forward<F>(on_expiry));
  }

  /// Cancel a pending expiry; no-op when idle.
  void cancel() noexcept {
    if (id_ != 0) sim_->cancel(std::exchange(id_, 0));
  }

  /// True while the expiry is pending: false once it fired (already inside
  /// its own callback), was cancelled, or was moved away.  A false answer
  /// forgets the spent id, so the usual `if (!t.armed()) t.arm(...)` asks
  /// the engine once, not twice.
  [[nodiscard]] bool armed() const noexcept {
    if (id_ != 0 && !sim_->is_pending(id_)) id_ = 0;
    return id_ != 0;
  }

 private:
  Simulator* sim_;
  mutable EventId id_ = 0;  ///< the last expiry scheduled; 0 once known spent
};

}  // namespace xunet::sim
