// sim_test.cpp — unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "atm/abr.hpp"
#include "atm/switch.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace xunet::sim {

/// Sets the generation of a free pool record, so a test can reach the
/// generation wrap without 2^32 schedule/fire cycles, and reads the pool size.
struct SimulatorTestPeer {
  static void set_generation(Simulator& sim, std::uint32_t idx, std::uint32_t gen) {
    ASSERT_EQ(sim.rec(idx).thunk, nullptr) << "record must be free";
    sim.rec(idx).gen = gen;
  }
  static std::size_t chunks(const Simulator& sim) { return sim.chunks_.size(); }
};

namespace {

TEST(SimTime, Arithmetic) {
  SimTime t(1'000'000);
  SimDuration d = milliseconds(2);
  EXPECT_EQ((t + d).ns(), 3'000'000);
  EXPECT_EQ(((t + d) - t).ns(), d.ns());
  EXPECT_LT(t, t + d);
  EXPECT_DOUBLE_EQ(d.ms(), 2.0);
  EXPECT_DOUBLE_EQ(seconds(3).sec(), 3.0);
  EXPECT_EQ(seconds_f(0.5).ns(), 500'000'000);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule(milliseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ms(), 30.0);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ZeroDelayRunsAfterCurrentEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimDuration{}, [&] {
    order.push_back(1);
    sim.schedule(SimDuration{}, [&] { order.push_back(3); });
    order.push_back(2);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.schedule(milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule(milliseconds(10), [&] { ++count; });
  sim.schedule(milliseconds(30), [&] { ++count; });
  sim.run_until(SimTime(20'000'000));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now().ns(), 20'000'000);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunForAdvancesRelative) {
  Simulator sim;
  sim.run_for(milliseconds(5));
  EXPECT_EQ(sim.now().ms(), 5.0);
  sim.run_for(milliseconds(5));
  EXPECT_EQ(sim.now().ms(), 10.0);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule(microseconds(1), recurse);
  };
  sim.schedule(microseconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now().us(), 100.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  // Regression: a negative delay (e.g. computed from a clock that ran
  // slightly backwards) must behave like zero delay, not wrap into the
  // far future or corrupt the timer wheel.
  Simulator sim;
  sim.schedule(milliseconds(1), [&] {
    sim.schedule(nanoseconds(-5), [&] {
      EXPECT_EQ(sim.now().ms(), 1.0);  // fired at the clamped instant
    });
  });
  std::vector<int> order;
  sim.schedule(nanoseconds(-100), [&] { order.push_back(1); });
  sim.schedule(nanoseconds(0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // clamp preserves FIFO at now
  EXPECT_EQ(sim.now().ms(), 1.0);
}

TEST(Simulator, FarFutureEventsBeyondWheelHorizonDispatchInOrder) {
  // Events past the timer wheel's span land in the overflow heap; they must
  // still interleave correctly with near events as the wheel advances.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(seconds(30), [&] { order.push_back(3); });   // far overflow
  sim.schedule(microseconds(10), [&] { order.push_back(1); });
  sim.schedule(seconds(1), [&] { order.push_back(2); });
  sim.schedule(seconds(60), [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now().sec(), 60.0);
}

TEST(Simulator, PeakPendingTracksHighWaterMark) {
  Simulator sim;
  for (int i = 0; i < 50; ++i) {
    sim.schedule(microseconds(i), [] {});
  }
  EXPECT_EQ(sim.pending(), 50u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_GE(sim.peak_pending(), 50u);
}

TEST(Simulator, MixedDelaysDispatchInTimeThenScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(milliseconds(2), [&] { order.push_back(2); });
  sim.schedule(milliseconds(1), [&] {
    order.push_back(1);
    sim.schedule(nanoseconds(-1), [&] { order.push_back(10); });
    sim.schedule(milliseconds(5), [&] { order.push_back(4); });
  });
  sim.schedule(milliseconds(2), [&] { order.push_back(3); });
  sim.schedule(seconds(20), [&] { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2, 3, 4, 5}));
}

// ------------------------------------------------ contract of ids and cancel

TEST(EngineContract, CancelAfterFireReturnsFalse) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.schedule(milliseconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
  sim.schedule(milliseconds(1), [] {});
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(EngineContract, CancelFromOwnCallbackReturnsFalse) {
  Simulator sim;
  EventId id = 0;
  std::optional<bool> cancelled;
  id = sim.schedule(milliseconds(1), [&] { cancelled = sim.cancel(id); });
  sim.run();
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_FALSE(*cancelled);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EngineContract, StaleIdLeavesReusedRecordAlone) {
  Simulator sim;
  EventId fired_id = sim.schedule(milliseconds(1), [] {});
  sim.run();
  EventId cancelled_id = sim.schedule(milliseconds(1), [] {});
  EXPECT_TRUE(sim.cancel(cancelled_id));
  sim.run();
  bool ran = false;
  EventId id = sim.schedule(milliseconds(1), [&] { ran = true; });
  // All three events used the same pool record.
  EXPECT_EQ(static_cast<std::uint32_t>(id), static_cast<std::uint32_t>(fired_id));
  EXPECT_EQ(static_cast<std::uint32_t>(id), static_cast<std::uint32_t>(cancelled_id));
  EXPECT_FALSE(sim.cancel(fired_id));
  EXPECT_FALSE(sim.cancel(cancelled_id));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EngineContract, CancelDestroysTheCallableAtOnce) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  EventId id = sim.schedule(seconds(30), [token] {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(token.use_count(), 1);  // not held until the 30 s deadline
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 1u);  // the dead entry is retired without running
}

TEST(EngineContract, IdZeroIsNeverIssuedAcrossTheGenerationWrap) {
  Simulator sim;
  bool ran = false;
  EventId first = sim.schedule(milliseconds(1), [] {});
  ASSERT_EQ(static_cast<std::uint32_t>(first), 0u);  // pool record 0
  sim.run();
  // Record 0 is free again; put it on the last generation before the wrap.
  SimulatorTestPeer::set_generation(sim, 0, std::numeric_limits<std::uint32_t>::max());
  EventId last = sim.schedule(milliseconds(1), [] {});
  EXPECT_EQ(last, EventId{std::numeric_limits<std::uint32_t>::max()} << 32);
  EXPECT_FALSE(sim.cancel(0));
  sim.run();
  // Firing would wrap record 0's generation to 0, so the record is retired
  // for good: the next event takes another record, and no id is ever 0.
  EventId next = sim.schedule(milliseconds(1), [&] { ran = true; });
  EXPECT_NE(next, 0u);
  EXPECT_NE(static_cast<std::uint32_t>(next), 0u);
  EXPECT_EQ(next >> 32, 1u);  // a fresh record's first generation
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_FALSE(sim.cancel(last));
  EXPECT_FALSE(sim.is_pending(last));
  sim.run();
  EXPECT_TRUE(ran);
  // The same holds when a cancel reaches the wrap.
  const auto idx = static_cast<std::uint32_t>(next);
  SimulatorTestPeer::set_generation(sim, idx, std::numeric_limits<std::uint32_t>::max());
  EventId doomed = sim.schedule(seconds(30), [] { FAIL() << "cancelled event ran"; });
  ASSERT_EQ(static_cast<std::uint32_t>(doomed), idx);
  ASSERT_TRUE(sim.cancel(doomed));
  for (int i = 0; i < 4; ++i) {
    EventId id = sim.schedule(milliseconds(1), [] {});
    EXPECT_NE(id, 0u);
    EXPECT_NE(static_cast<std::uint32_t>(id), 0u);
    EXPECT_NE(static_cast<std::uint32_t>(id), idx);
  }
  EXPECT_EQ(sim.run(), 5u);  // four events plus the dead entry
}

TEST(EngineContract, DeadEntryNeverRunsTheEventThatReusesItsRecord) {
  Simulator sim;
  int a_runs = 0;
  std::vector<std::int64_t> b_at;
  EventId a = sim.schedule(seconds(30), [&] { ++a_runs; });
  ASSERT_TRUE(sim.cancel(a));
  // A's record is free at once, so B takes it while A's entry is queued.
  EventId b = sim.schedule(milliseconds(1), [&] { b_at.push_back(sim.now().ns()); });
  ASSERT_EQ(static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(a));
  EXPECT_FALSE(sim.is_pending(a));
  EXPECT_TRUE(sim.is_pending(b));
  EXPECT_EQ(sim.run(), 2u);  // B, then A's dead entry at 30 s
  EXPECT_EQ(a_runs, 0);
  EXPECT_EQ(b_at, (std::vector<std::int64_t>{1'000'000}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EngineContract, CancelledFarEventsDoNotGrowThePool) {
  Simulator sim;
  for (int i = 0; i < 10'000; ++i) {
    EventId id = sim.schedule(seconds(30), [] {});
    ASSERT_TRUE(sim.cancel(id));
  }
  // Every cancel returned its record, so one 512-record chunk served all
  // 10k events although their dead entries are still queued.
  EXPECT_EQ(SimulatorTestPeer::chunks(sim), 1u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.peak_pending(), 1u);
  EXPECT_EQ(sim.run(), 10'000u);
}

TEST(EngineContract, CancelOfUnissuedIdsIsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(0));
  EventId id = sim.schedule(milliseconds(1), [] {});
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_FALSE(sim.cancel(id + 1));            // a record never used
  EXPECT_FALSE(sim.cancel(id | 0xFFFF'FFFFu));  // beyond the pool
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
}

TEST(EngineContract, IsPendingOnlyWhileTheEventCanFire) {
  Simulator sim;
  EXPECT_FALSE(sim.is_pending(0));
  std::optional<bool> inside;
  EventId fired = 0;
  fired = sim.schedule(milliseconds(1), [&] { inside = sim.is_pending(fired); });
  EXPECT_TRUE(sim.is_pending(fired));
  sim.run();
  ASSERT_TRUE(inside.has_value());
  EXPECT_FALSE(*inside);  // already false inside its own callback
  EXPECT_FALSE(sim.is_pending(fired));
  EventId cancelled = sim.schedule(milliseconds(1), [] {});
  ASSERT_TRUE(sim.cancel(cancelled));
  EXPECT_FALSE(sim.is_pending(cancelled));
  sim.run();  // retires the dead entry, freeing its record
  // The same record now holds a newer event; both older ids are stale.
  EventId live = sim.schedule(milliseconds(1), [] {});
  ASSERT_EQ(static_cast<std::uint32_t>(live), static_cast<std::uint32_t>(fired));
  ASSERT_EQ(static_cast<std::uint32_t>(live), static_cast<std::uint32_t>(cancelled));
  EXPECT_TRUE(sim.is_pending(live));
  EXPECT_FALSE(sim.is_pending(fired));
  EXPECT_FALSE(sim.is_pending(cancelled));
  EXPECT_FALSE(sim.is_pending(live + 1));            // a record never used
  EXPECT_FALSE(sim.is_pending(live | 0xFFFF'FFFFu));  // beyond the pool
  EXPECT_FALSE(sim.is_pending(0));
  sim.run();
}

// ------------------------------------------------------------ dispatch keys

TEST(DispatchKeys, ReservedKeyRunsBeforeALaterSameInstantEvent) {
  Simulator sim;
  std::vector<std::string> order;
  const DispatchKey key = sim.reserve(milliseconds(1));
  sim.schedule(milliseconds(1), [&] { order.push_back("later"); });
  EXPECT_EQ(sim.pending(), 1u);  // the reservation queued nothing
  EXPECT_FALSE(sim.passed(key));
  std::optional<bool> passed_inside;
  sim.schedule_at(key, [&] {
    order.push_back("reserved");
    passed_inside = sim.passed(key);
  });
  EXPECT_FALSE(sim.passed(key));
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<std::string>{"reserved", "later"}));
  ASSERT_TRUE(passed_inside.has_value());
  EXPECT_TRUE(*passed_inside);
  EXPECT_TRUE(sim.passed(key));
}

TEST(DispatchKeys, PassedOnceRunUntilCoversAnUnscheduledKey) {
  Simulator sim;
  const DispatchKey key = sim.reserve(milliseconds(2));
  const DispatchKey neg = sim.reserve(milliseconds(-1));  // clamps to now
  EXPECT_EQ(neg.when, SimTime{});
  EXPECT_EQ(neg.seq, key.seq + 1);
  sim.run_until(SimTime(1'500'000));
  EXPECT_FALSE(sim.passed(key));
  EXPECT_TRUE(sim.passed(neg));
  sim.run_until(SimTime(2'000'000));
  EXPECT_TRUE(sim.passed(key));
}

TEST(DispatchKeys, KeyPassesWhenTheEventBeforeItIsDispatched) {
  Simulator sim;
  std::vector<bool> seen;
  sim.schedule(milliseconds(1), [&] { seen.push_back(false); });
  const DispatchKey key = sim.reserve(milliseconds(1));
  // Runs at the same instant but after `key`: the key has passed by then.
  sim.schedule(milliseconds(1), [&] { seen.push_back(sim.passed(key)); });
  sim.schedule(microseconds(999), [&] { seen.push_back(sim.passed(key)); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<bool>{false, false, true}));
}

TEST(Timer, KeyedArmFiresAtItsKeyAfterMoveAndCancels) {
  Simulator sim;
  std::vector<std::string> order;
  Timer t(sim);
  const DispatchKey key = sim.reserve(milliseconds(1));
  sim.schedule(milliseconds(1), [&] { order.push_back("later"); });
  t.arm(key, [&] { order.push_back("timer"); });
  EXPECT_TRUE(t.armed());
  Timer moved(std::move(t));
  EXPECT_FALSE(t.armed());  // NOLINT(bugprone-use-after-move): moved-from is unarmed
  EXPECT_TRUE(moved.armed());
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"timer", "later"}));
  EXPECT_FALSE(moved.armed());

  // Re-armed under a second key and cancelled: nothing runs, nothing waits.
  const DispatchKey key2 = sim.reserve(milliseconds(1));
  moved.arm(key2, [&] { order.push_back("cancelled"); });
  EXPECT_EQ(sim.pending(), 1u);
  moved.cancel();
  EXPECT_FALSE(moved.armed());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run_for(milliseconds(1)), 1u);  // the dead entry, dropped
  EXPECT_EQ(order.size(), 2u);
  EXPECT_TRUE(sim.passed(key2));
}

// ------------------------------------ differential test against a reference

/// Reference model of the event queue: a plain vector of (when, seq, id,
/// live) entries, popped by minimum (when, seq).  It shares no code with
/// Simulator.  Its ids are never reused, so a fired id is simply absent and
/// a cancelled one is a dead entry that still counts as retired when popped.
class ReferenceQueue {
 public:
  using Id = std::uint64_t;

  [[nodiscard]] std::int64_t now() const { return now_; }
  [[nodiscard]] std::size_t pending() const {
    return static_cast<std::size_t>(std::count_if(
        entries_.begin(), entries_.end(), [](const Entry& e) { return e.live; }));
  }

  Id schedule(std::int64_t delay_ns, std::function<void()> fn) {
    entries_.push_back(
        {now_ + std::max<std::int64_t>(delay_ns, 0), seq_++, ++last_id_, true, std::move(fn)});
    return last_id_;
  }

  bool cancel(Id id) {
    for (Entry& e : entries_) {
      if (e.id == id && e.live) {
        e.live = false;
        e.fn = nullptr;
        return true;
      }
    }
    return false;
  }

  std::size_t run() { return drain(std::numeric_limits<std::int64_t>::max()); }
  std::size_t run_until(std::int64_t deadline) {
    const std::size_t n = drain(deadline);
    now_ = std::max(now_, deadline);
    return n;
  }

 private:
  struct Entry {
    std::int64_t when;
    std::uint64_t seq;
    Id id;
    bool live;
    std::function<void()> fn;
  };

  std::size_t drain(std::int64_t deadline) {
    std::size_t n = 0;
    while (!entries_.empty()) {
      auto first = std::min_element(entries_.begin(), entries_.end(),
                                    [](const Entry& a, const Entry& b) {
                                      return a.when != b.when ? a.when < b.when
                                                              : a.seq < b.seq;
                                    });
      if (first->when > deadline) break;
      Entry e = std::move(*first);
      entries_.erase(first);
      ++n;
      if (e.live) {
        now_ = e.when;
        e.fn();
      }
    }
    return n;
  }

  std::vector<Entry> entries_;
  std::int64_t now_ = 0;
  std::uint64_t seq_ = 0;
  Id last_id_ = 0;
};

/// Simulator behind the same interface as ReferenceQueue.
class SimulatorQueue {
 public:
  using Id = EventId;

  [[nodiscard]] std::int64_t now() const { return sim_.now().ns(); }
  [[nodiscard]] std::size_t pending() const { return sim_.pending(); }
  template <typename F>
  Id schedule(std::int64_t delay_ns, F&& fn) {
    return sim_.schedule(nanoseconds(delay_ns), std::forward<F>(fn));
  }
  bool cancel(Id id) { return sim_.cancel(id); }
  std::size_t run() { return sim_.run(); }
  std::size_t run_until(std::int64_t deadline) {
    return sim_.run_until(SimTime(deadline));
  }

 private:
  Simulator sim_;
};

/// A seeded random script of schedules, cancels and runs, also issued from
/// inside callbacks.  Events are named by a tag (their schedule order), so
/// both queues see the same script; the transcript records every dispatch
/// and every observable result.
template <typename Queue>
class EngineScript {
 public:
  explicit EngineScript(std::uint64_t seed) : rng_(seed) {}

  std::vector<std::string> play(int steps) {
    for (int step = 0; step < steps; ++step) {
      const std::uint64_t op = rng_.below(1000);
      if (op < 450) {
        schedule_random();
      } else if (op < 600) {
        cancel_random();
      } else if (op < 999) {
        const std::int64_t deadline = q_.now() + run_delta();
        note("run_until " + std::to_string(deadline) + " -> " +
             std::to_string(q_.run_until(deadline)));
      } else {
        note("run -> " + std::to_string(q_.run()));
      }
      note("pending " + std::to_string(q_.pending()) + " now " +
           std::to_string(q_.now()));
    }
    note("final run -> " + std::to_string(q_.run()) + " pending " +
         std::to_string(q_.pending()));
    return std::move(log_);
  }

 private:
  static constexpr std::int64_t kSlotNs = 4096;
  static constexpr std::int64_t kHorizonNs = 1024 * kSlotNs;  // ~4.19 ms
  static constexpr std::size_t kMaxEvents = 60'000;

  /// Delays covering every queue region: now, the current slot, the ring,
  /// either side of the ring horizon, the far overflow, and negative.
  std::int64_t random_delay() {
    const auto pick = [this](std::int64_t lo, std::int64_t hi) {
      return lo + static_cast<std::int64_t>(rng_.below(static_cast<std::uint64_t>(hi - lo + 1)));
    };
    switch (rng_.below(7)) {
      case 0: return 0;
      case 1: return pick(1, kSlotNs - 1);
      case 2: return pick(kSlotNs, kHorizonNs - kSlotNs);
      case 3: return pick(kHorizonNs - 2 * kSlotNs, kHorizonNs + 2 * kSlotNs);
      case 4: return pick(1'000'000'000, 3'000'000'000);
      case 5: return -pick(1, 100'000);
      default: return pick(0, 200'000);
    }
  }

  /// run_until steps: mostly shorter than the gaps to far events, so the
  /// queue peeks past its deadline and later schedules land before the
  /// window it advanced to.
  std::int64_t run_delta() {
    switch (rng_.below(5)) {
      case 0: return 0;
      case 1: return static_cast<std::int64_t>(rng_.below(kSlotNs));
      case 2: return static_cast<std::int64_t>(rng_.below(kHorizonNs));
      case 3: return static_cast<std::int64_t>(rng_.below(2 * kHorizonNs));
      default: return static_cast<std::int64_t>(rng_.below(50'000));
    }
  }

  void schedule_random() {
    if (ids_.size() >= kMaxEvents) return;
    const std::size_t tag = ids_.size();
    const std::int64_t delay = random_delay();
    ids_.push_back(q_.schedule(delay, [this, tag] { fire(tag); }));
    note("schedule " + std::to_string(tag) + " +" + std::to_string(delay));
  }

  /// Cancel a pending, fired, cancelled or reused-record id, or id 0.
  void cancel_random() {
    if (ids_.empty() || rng_.below(16) == 0) {
      note("cancel 0 -> " + std::to_string(q_.cancel(0)));
      return;
    }
    const std::size_t recent = std::min<std::size_t>(ids_.size(), 64);
    const std::size_t tag = rng_.chance(0.5)
                                ? ids_.size() - 1 - rng_.below(recent)
                                : rng_.below(ids_.size());
    note("cancel " + std::to_string(tag) + " -> " +
         std::to_string(q_.cancel(ids_[tag])));
  }

  void fire(std::size_t tag) {
    note("fire " + std::to_string(tag) + " at " + std::to_string(q_.now()) +
         " pending " + std::to_string(q_.pending()));
    // Fewer than one child per event on average, so callbacks settle.
    const std::uint64_t kids = rng_.below(10);
    if (kids >= 5) schedule_random();
    if (kids >= 8) schedule_random();
    if (rng_.below(4) == 0) cancel_random();
  }

  void note(std::string line) { log_.push_back(std::move(line)); }

  Queue q_;
  util::Rng rng_;
  std::vector<typename Queue::Id> ids_;  ///< by tag
  std::vector<std::string> log_;
};

TEST(EngineReference, RandomScriptsMatchTheReferenceQueue) {
  for (std::uint64_t seed : {1u, 7u, 11u, 1994u}) {
    const auto want = EngineScript<ReferenceQueue>(seed).play(20'000);
    const auto got = EngineScript<SimulatorQueue>(seed).play(20'000);
    ASSERT_GT(want.size(), 40'000u);
    const auto diff = std::mismatch(want.begin(), want.end(), got.begin(), got.end());
    ASSERT_TRUE(diff.first == want.end() && diff.second == got.end())
        << "seed " << seed << " diverges at transcript line "
        << (diff.first - want.begin()) << ": reference '"
        << (diff.first == want.end() ? "<end>" : *diff.first) << "' vs simulator '"
        << (diff.second == got.end() ? "<end>" : *diff.second) << "'";
  }
}

TEST(Timer, FiresOnce) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.arm(milliseconds(5), [&] { ++fired; });
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, CancelStopsExpiry) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.arm(milliseconds(5), [&] { ++fired; });
  t.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RearmReplacesPending) {
  Simulator sim;
  Timer t(sim);
  std::vector<int> hits;
  t.arm(milliseconds(5), [&] { hits.push_back(1); });
  t.arm(milliseconds(10), [&] { hits.push_back(2); });
  sim.run();
  EXPECT_EQ(hits, (std::vector<int>{2}));
  EXPECT_EQ(sim.now().ms(), 10.0);
}

TEST(Timer, DestructionCancels) {
  Simulator sim;
  int fired = 0;
  {
    Timer t(sim);
    t.arm(milliseconds(5), [&] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CanRearmFromOwnCallback) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 5) t.arm(milliseconds(1), tick);
  };
  t.arm(milliseconds(1), tick);
  sim.run();
  EXPECT_EQ(fired, 5);
}

TEST(Timer, MovedTimerFiresOnceAndTheSourceIsUnarmed) {
  Simulator sim;
  int fired = 0;
  Timer a(sim);
  a.arm(milliseconds(5), [&] { ++fired; });
  Timer b(std::move(a));
  EXPECT_FALSE(a.armed());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.armed());
  Timer c(sim);
  c = std::move(b);
  EXPECT_FALSE(b.armed());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(c.armed());
  a.cancel();  // a moved-from timer no longer owns the expiry
  b.cancel();
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(c.armed());
}

TEST(Timer, MoveAssignOntoArmedTimerCancelsItsExpiry) {
  Simulator sim;
  std::vector<int> hits;
  Timer target(sim);
  target.arm(milliseconds(5), [&] { hits.push_back(1); });
  Timer source(sim);
  source.arm(milliseconds(10), [&] { hits.push_back(2); });
  target = std::move(source);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(hits, (std::vector<int>{2}));
}

TEST(Timer, TimersInAReallocatingVectorStillFireAndCancel) {
  Simulator sim;
  std::vector<int> hits;
  std::vector<Timer> timers;
  for (int i = 0; i < 64; ++i) {  // grows the vector through several moves
    timers.emplace_back(sim);
    timers.back().arm(milliseconds(1 + i), [&hits, i] { hits.push_back(i); });
  }
  for (std::size_t i = 0; i < timers.size(); i += 2) timers[i].cancel();
  for (std::size_t i = 0; i < timers.size(); ++i) EXPECT_EQ(timers[i].armed(), i % 2 == 1);
  sim.run();
  std::vector<int> odd;
  for (int i = 1; i < 64; i += 2) odd.push_back(i);
  EXPECT_EQ(hits, odd);
  for (const Timer& t : timers) EXPECT_FALSE(t.armed());
}

// A component that owns its pending event through a Timer leaves nothing
// behind when it is destroyed: the simulator holds no event for it and
// running on calls nothing into the freed object.
struct CountingSink final : atm::CellSink {
  std::size_t n = 0;
  void cell_arrival(const atm::Cell&) override { ++n; }
};

TEST(TimerOwners, DestroyedAbrSourceWithABacklogLeavesNoEvent) {
  Simulator sim;
  CountingSink sink;
  atm::CellLink up(sim, atm::kOc12Bps, microseconds(1), sink);
  atm::AbrParams params;
  params.pcr_bps = 10'000'000;
  auto src = std::make_unique<atm::AbrSource>(sim, up, 100, params);
  atm::Cell cell;
  for (int i = 0; i < 8; ++i) src->submit(cell);
  // Halfway to the second transmission slot: one cell (the forward RM) has
  // reached the sink and the pacer is armed for the next.
  const std::int64_t gap = atm::cell_interval_ns(src->acr_bps());
  sim.run_for(nanoseconds(gap + gap / 2));
  ASSERT_EQ(sink.n, 1u);
  ASSERT_GT(src->backlog(), 0u);
  ASSERT_EQ(sim.pending(), 1u);
  src.reset();
  ASSERT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(sink.n, 1u);
}

TEST(TimerOwners, DestroyedSwitchWithCellsMidFabricLeavesNoEvent) {
  Simulator sim;
  CountingSink sink;
  auto sw = std::make_unique<atm::AtmSwitch>(sim, "sw", microseconds(10));
  const int p_in = sw->add_port();
  const int p_out = sw->add_port();
  // A DS3 output behind an OC-12 input: cells queue at the output port.
  auto in = std::make_unique<atm::CellLink>(sim, atm::kOc12Bps, microseconds(5),
                                            sw->input(p_in));
  auto out = std::make_unique<atm::CellLink>(sim, atm::kDs3Bps, microseconds(5), sink);
  sw->set_output(p_out, *out);
  ASSERT_TRUE(sw->install_route(p_in, 100, p_out, 200, atm::Qos{}).ok());
  atm::Cell cell;
  cell.vci = 100;
  for (int i = 0; i < 20; ++i) in->send(cell);
  // Every cell has reached the switch; some are still crossing the fabric,
  // some wait in the output queue behind the armed drain.
  sim.run_until(SimTime(20'000));
  ASSERT_GT(sw->queue_depth(p_out), 0u);
  ASSERT_EQ(sw->cells_switched(), 20u);
  in.reset();
  sw.reset();
  out.reset();
  ASSERT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(sink.n, 0u);
}

}  // namespace
}  // namespace xunet::sim
