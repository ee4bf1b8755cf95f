// simulator.hpp — the discrete-event engine every substrate runs on.
//
// A Simulator owns a time-ordered event queue.  Components schedule
// callbacks at future instants; run() dispatches them in (time, insertion)
// order, so simulations are fully deterministic.
//
// Every event lives in a chunked pool of small-buffer-optimized records
// (captures up to 48 bytes never touch the allocator).  An EventId is
// (generation << 32) | pool index: cancel() checks the record's generation,
// destroys the callable at once and marks the record dead, so the queue
// entry is dropped without any lookup when it reaches the front.  Firing
// or cancelling bumps the generation, which makes every older id for that
// record stale; the generation skips 0, so 0 is never a valid id.
//
// Queue entries are ordered by (time, schedule sequence), the classic
// (time, insertion) order.  Near-future events go into a 1024-slot bucket
// ring (4.096 us granularity, ~4.2 ms horizon); far events fall back to a
// binary heap and migrate into the ring as the window advances.  A plain
// (time, sequence) priority queue is the reference model the tests compare
// this queue against.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sim/time.hpp"

namespace xunet::sim {

/// Handle for a scheduled event, used to cancel it: (generation << 32) |
/// pool index.  Never 0, so 0 can mean "not armed".
using EventId = std::uint64_t;

/// Discrete-event simulator: event queue + clock + observability context.
class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay` from now.  Zero delay is allowed and runs
  /// after all already-queued events at the current instant.  Negative
  /// delays (e.g. from an underflowed SimTime subtraction) are clamped to
  /// "now" instead of corrupting the queue.
  template <typename F>
  EventId schedule(SimDuration delay, F&& fn) {
    if (delay.ns() < 0) delay = SimDuration{0};
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule at an absolute instant (must not be in the past).
  template <typename F>
  EventId schedule_at(SimTime when, F&& fn) {
    assert(when >= now_);
    std::uint32_t idx = alloc_rec();
    bind(rec(idx), std::forward<F>(fn));
    return insert_ref(when, idx);
  }

  /// Cancel a scheduled event and destroy its callable.  Returns true only
  /// if the event was still pending; false for 0, for an id whose event
  /// already fired, is running or was cancelled, and for a stale id whose
  /// record now holds a newer event (which is left alone).  O(1).
  bool cancel(EventId id);

  /// True while the event behind `id` can still fire: false for 0, for an
  /// id whose event already fired, is running or was cancelled, and for a
  /// stale id whose record now holds a newer event.  O(1), one pool read.
  [[nodiscard]] bool is_pending(EventId id) const noexcept {
    const auto idx = static_cast<std::uint32_t>(id);
    if (idx >= chunks_.size() << kChunkShift) return false;
    const EventRec& rc = rec(idx);
    return rc.gen == id >> 32 && rc.thunk != nullptr;
  }

  /// Run events until the queue empties.  Returns the number of queue
  /// entries retired: events run plus cancelled entries dropped.
  std::size_t run();

  /// Run events with timestamp <= deadline; the clock ends at `deadline`
  /// even if the queue empties earlier.  Returns entries retired, as run().
  std::size_t run_until(SimTime deadline);

  /// Advance by `d` from the current time (convenience over run_until).
  std::size_t run_for(SimDuration d) { return run_until(now_ + d); }

  /// Number of events scheduled that have neither fired nor been cancelled.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// High-water mark of pending() over the simulator's lifetime.
  [[nodiscard]] std::size_t peak_pending() const noexcept { return peak_pending_; }

  /// The per-simulation observability context (trace buffer + metrics),
  /// clock-bound to this simulator.  Tracing is off by default.
  [[nodiscard]] obs::Observability& obs() noexcept { return obs_; }
  [[nodiscard]] const obs::Observability& obs() const noexcept { return obs_; }

 private:
  friend struct SimulatorTestPeer;  ///< drives a record to the generation wrap

  static constexpr std::size_t kSboBytes = 48;
  static constexpr unsigned kGranShift = 12;  ///< 4096 ns bucket granularity
  static constexpr std::size_t kSlots = 1024;  ///< ring horizon ~4.19 ms
  static constexpr std::size_t kSlotMask = kSlots - 1;
  static constexpr std::uint32_t kChunkShift = 9;  ///< 512 records per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  /// Type-erased event record.  Callables whose capture fits kSboBytes are
  /// stored inline; larger ones spill to one heap allocation whose pointer
  /// is stored inline instead.
  struct EventRec {
    using Thunk = void (*)(EventRec&, bool run);
    Thunk thunk = nullptr;  ///< null unless the event is pending
    std::uint32_t gen = 1;  ///< generation half of the pending event's id
    alignas(std::max_align_t) unsigned char sbo[kSboBytes];
  };

  /// Queue handle: (when, seq) is the dispatch key, rec indexes the pool.
  struct Ref {
    std::int64_t when;
    std::uint64_t seq;
    std::uint32_t rec;
  };
  struct RefLater {
    bool operator()(const Ref& a, const Ref& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  template <typename F>
  static void bind(EventRec& r, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kSboBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(r.sbo)) Fn(std::forward<F>(fn));
      r.thunk = [](EventRec& rr, bool run) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(rr.sbo));
        if (run) (*f)();
        f->~Fn();
      };
    } else {
      ::new (static_cast<void*>(r.sbo)) Fn*(new Fn(std::forward<F>(fn)));
      r.thunk = [](EventRec& rr, bool run) {
        Fn* f = *std::launder(reinterpret_cast<Fn**>(rr.sbo));
        if (run) (*f)();
        delete f;
      };
    }
  }

  [[nodiscard]] EventRec& rec(std::uint32_t idx) const noexcept {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  /// The pending event's id is now stale; the generation skips 0.
  static void retire(EventRec& r) noexcept {
    if (++r.gen == 0) r.gen = 1;
  }

  std::uint32_t alloc_rec();
  EventId insert_ref(SimTime when, std::uint32_t idx);
  bool refill();               ///< make active_ non-empty if any event exists
  void activate_slot(std::int64_t abs_slot);
  void drain_overflow();       ///< pull overflow events now inside the window
  void dispatch_ref(const Ref& r);
  void set_occ(std::size_t ring_idx) noexcept { occ_[ring_idx >> 6] |= 1ull << (ring_idx & 63); }
  void clear_occ(std::size_t ring_idx) noexcept {
    occ_[ring_idx >> 6] &= ~(1ull << (ring_idx & 63));
  }

  // ---- state -------------------------------------------------------------

  SimTime now_{};
  std::uint64_t scheduled_ = 0;  ///< events ever scheduled; the next seq
  std::size_t pending_ = 0;
  std::size_t peak_pending_ = 0;

  std::vector<std::unique_ptr<EventRec[]>> chunks_;
  std::vector<std::uint32_t> free_list_;
  std::vector<Ref> active_;    ///< min-heap of the active slot
  std::vector<Ref> overflow_;  ///< min-heap of events beyond the ring horizon
  std::array<std::vector<Ref>, kSlots> ring_;
  std::array<std::uint64_t, kSlots / 64> occ_{};
  std::int64_t active_slot_ = 0;  ///< window start; active_ holds this slot
  std::size_t ring_count_ = 0;

  obs::Observability obs_;
};

}  // namespace xunet::sim
