// simulator.hpp — the discrete-event engine every substrate runs on.
//
// A Simulator owns a time-ordered event queue.  Components schedule
// callbacks at future instants; run() dispatches them in (time, insertion)
// order, so simulations are fully deterministic.
//
// Every event lives in a chunked pool of small-buffer-optimized records
// (captures up to 48 bytes never touch the allocator).  An EventId is
// (generation << 32) | pool index.  Firing or cancelling bumps the record's
// generation, which makes every older id for it stale.  cancel() checks the
// generation, destroys the callable and puts the record straight back on the
// free list, so a cancelled far-future timer holds no record while it waits.
// Each queue entry carries the generation its record had when it was
// queued; an entry that surfaces with a different one is dead and is
// dropped without a lookup.  A record whose generation would wrap to 0 is
// never reused, so 0 is never a valid id and a dead entry can never match
// a newer event (the cost is one record per 2^32 reuses of it).
//
// Queue entries are ordered by (time, schedule sequence), the classic
// (time, insertion) order: the pair is the entry's DispatchKey.  reserve()
// hands out a key now without queueing anything; schedule_at(key, fn) may
// queue an event under it later, as long as the key has not passed(), and
// it dispatches exactly where an event scheduled at reserve() time would
// have.  Near-future events go into a 1024-slot bucket ring (4.096 us
// granularity, ~4.2 ms horizon); far events fall back to a binary heap and
// migrate into the ring as the window advances.  A plain (time, sequence)
// priority queue is the reference model the tests compare this queue
// against.
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

/// A dispatch position: events run in ascending (when, seq) order.  Taken
/// by Simulator::reserve(); seq is unique across every event and key.
struct DispatchKey {
  SimTime when;
  std::uint64_t seq = 0;
  [[nodiscard]] constexpr auto operator<=>(const DispatchKey&) const noexcept = default;
};

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
    return enqueue(when.ns(), scheduled_++, std::forward<F>(fn));
  }

  /// Take the dispatch key of an event `delay` from now (negative delays
  /// clamp to now, as in schedule()) without queueing anything.  It uses up
  /// the sequence number such an event would have had.
  [[nodiscard]] DispatchKey reserve(SimDuration delay) noexcept {
    if (delay.ns() < 0) delay = SimDuration{0};
    return {now_ + delay, scheduled_++};
  }

  /// Schedule under a key from reserve() that no dispatched event lies
  /// beyond (see passed()): the event runs exactly where one scheduled at
  /// reserve() time would have.
  template <typename F>
  EventId schedule_at(DispatchKey key, F&& fn) {
    assert(key.seq < scheduled_ && !(key < through_));
    return enqueue(key.when.ns(), key.seq, std::forward<F>(fn));
  }

  /// True once every event with a smaller (when, seq) than `key` has been
  /// dispatched, so an event under `key` could no longer run in order.
  /// Inside a callback the engine has dispatched through that event's key;
  /// when run() or run_until() returns, through (now, next sequence).
  [[nodiscard]] bool passed(DispatchKey key) const noexcept { return key <= through_; }

  /// Cancel a scheduled event, destroy its callable and free its record at
  /// once (its queue entry is dropped when it surfaces).  Returns true only
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
  friend struct SimulatorTestPeer;  ///< generation wrap and pool size

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

  /// Queue handle: (when, seq) is the dispatch key, rec indexes the pool
  /// and gen is the record's generation when the entry was queued.
  struct Ref {
    std::int64_t when;
    std::uint64_t seq;
    std::uint32_t rec;
    std::uint32_t gen;
  };
  static_assert(sizeof(Ref) == 24, "gen must fill Ref's padding");
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

  template <typename F>
  EventId enqueue(std::int64_t when, std::uint64_t seq, F&& fn) {
    std::uint32_t idx = alloc_rec();
    bind(rec(idx), std::forward<F>(fn));
    return insert_ref(Ref{when, seq, idx, rec(idx).gen});
  }

  /// The fired or cancelled event's id and queue entry are now stale; the
  /// record goes back on the free list unless its generation wrapped.
  void release(std::uint32_t idx) {
    if (++rec(idx).gen != 0) free_list_.push_back(idx);
  }

  std::uint32_t alloc_rec();
  EventId insert_ref(const Ref& r);
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
  std::uint64_t scheduled_ = 0;  ///< events and keys ever issued; the next seq
  DispatchKey through_{};        ///< every smaller key has been dispatched
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
