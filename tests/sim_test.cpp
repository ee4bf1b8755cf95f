// sim_test.cpp — unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace xunet::sim {

/// Sets the generation of a free pool record, so a test can reach the
/// generation wrap without 2^32 schedule/fire cycles.
struct SimulatorTestPeer {
  static void set_generation(Simulator& sim, std::uint32_t idx, std::uint32_t gen) {
    ASSERT_EQ(sim.rec(idx).thunk, nullptr) << "record must be free";
    sim.rec(idx).gen = gen;
  }
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

TEST(Simulator, BothEnginesAgreeOnDispatchOrder) {
  auto run_with = [](Simulator::Engine e) {
    Simulator sim(e);
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
    return order;
  };
  EXPECT_EQ(run_with(Simulator::Engine::pooled),
            run_with(Simulator::Engine::legacy_heap));
}

// Contract of ids, cancel() and pending(), run against both engines.
class EngineContract : public ::testing::TestWithParam<Simulator::Engine> {};

INSTANTIATE_TEST_SUITE_P(Engines, EngineContract,
                         ::testing::Values(Simulator::Engine::pooled,
                                           Simulator::Engine::legacy_heap),
                         [](const auto& info) {
                           return info.param == Simulator::Engine::pooled ? "pooled"
                                                                          : "legacy_heap";
                         });

TEST_P(EngineContract, CancelAfterFireReturnsFalse) {
  Simulator sim(GetParam());
  int fired = 0;
  EventId id = sim.schedule(milliseconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
  sim.schedule(milliseconds(1), [] {});
  EXPECT_EQ(sim.pending(), 1u);
}

TEST_P(EngineContract, CancelFromOwnCallbackReturnsFalse) {
  Simulator sim(GetParam());
  EventId id = 0;
  std::optional<bool> cancelled;
  id = sim.schedule(milliseconds(1), [&] { cancelled = sim.cancel(id); });
  sim.run();
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_FALSE(*cancelled);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST_P(EngineContract, StaleIdLeavesReusedRecordAlone) {
  Simulator sim(GetParam());
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

TEST_P(EngineContract, CancelDestroysTheCallableAtOnce) {
  Simulator sim(GetParam());
  auto token = std::make_shared<int>(0);
  EventId id = sim.schedule(seconds(30), [token] {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(token.use_count(), 1);  // not held until the 30 s deadline
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 1u);  // the dead entry is retired without running
}

TEST_P(EngineContract, IdZeroIsNeverIssuedAcrossTheGenerationWrap) {
  Simulator sim(GetParam());
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
  EventId wrapped = sim.schedule(milliseconds(1), [&] { ran = true; });
  EXPECT_NE(wrapped, 0u);
  EXPECT_EQ(wrapped, EventId{1} << 32);  // generation 0 is skipped
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_FALSE(sim.cancel(last));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST_P(EngineContract, CancelOfUnissuedIdsIsFalse) {
  Simulator sim(GetParam());
  EXPECT_FALSE(sim.cancel(0));
  EventId id = sim.schedule(milliseconds(1), [] {});
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_FALSE(sim.cancel(id + 1));            // a record never used
  EXPECT_FALSE(sim.cancel(id | 0xFFFF'FFFFu));  // beyond the pool
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
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

}  // namespace
}  // namespace xunet::sim
