// atm_test.cpp — QoS, VCI allocation, cell links, switches, and the ATM
// network controller (routing, admission, PVCs, teardown).
#include <gtest/gtest.h>

#include "atm/network.hpp"
#include "atm/qos.hpp"

namespace xunet::atm {
namespace {

// --------------------------------------------------------------------- QoS

TEST(Qos, FormatAndParseRoundTrip) {
  Qos q{ServiceClass::guaranteed, 1'500'000};
  auto s = to_string(q);
  EXPECT_EQ(s, "class=guaranteed,bw=1500000");
  auto back = parse_qos(s);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, q);
}

TEST(Qos, EmptyStringIsBestEffort) {
  auto q = parse_qos("");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->service_class, ServiceClass::best_effort);
  EXPECT_EQ(q->bandwidth_bps, 0u);
  EXPECT_FALSE(q->needs_reservation());
}

TEST(Qos, UnknownKeysIgnoredForExtensibility) {
  auto q = parse_qos("class=predicted,bw=100,delay=5ms");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->service_class, ServiceClass::predicted);
  EXPECT_EQ(q->bandwidth_bps, 100u);
}

TEST(Qos, MalformedStringsRejected) {
  EXPECT_FALSE(parse_qos("class").ok());
  EXPECT_FALSE(parse_qos("bw=abc").ok());
  EXPECT_FALSE(parse_qos("class=warp").ok());
  EXPECT_FALSE(parse_qos("bw=1x").ok());
}

struct NegotiateCase {
  Qos offered;
  Qos limit;
  Qos expect;
};

class QosNegotiate : public ::testing::TestWithParam<NegotiateCase> {};

TEST_P(QosNegotiate, ServerMayOnlyShrink) {
  const auto& c = GetParam();
  Qos granted = negotiate(c.offered, c.limit);
  EXPECT_EQ(granted, c.expect);
  // The granted QoS never exceeds either side.
  EXPECT_LE(granted.bandwidth_bps, c.offered.bandwidth_bps);
  EXPECT_LE(granted.bandwidth_bps, c.limit.bandwidth_bps);
}

// The default printer names each case by dumping its bytes, padding
// included.  A static table is zero-filled, so the padding (and with it
// every test name) is the same on every build and run.
constexpr NegotiateCase kNegotiateCases[] = {
    {{ServiceClass::guaranteed, 100}, {ServiceClass::guaranteed, 200}, {ServiceClass::guaranteed, 100}},
    {{ServiceClass::guaranteed, 300}, {ServiceClass::predicted, 200}, {ServiceClass::predicted, 200}},
    {{ServiceClass::best_effort, 0}, {ServiceClass::guaranteed, 200}, {ServiceClass::best_effort, 0}},
    {{ServiceClass::predicted, 500}, {ServiceClass::guaranteed, 100}, {ServiceClass::predicted, 100}},
};

INSTANTIATE_TEST_SUITE_P(Cases, QosNegotiate, ::testing::ValuesIn(kNegotiateCases));

// ----------------------------------------------------------- VciAllocator

TEST(VciAllocator, AllocatesDistinctSwitchedVcis) {
  VciAllocator a;
  auto v1 = a.allocate();
  auto v2 = a.allocate();
  ASSERT_TRUE(v1.ok() && v2.ok());
  EXPECT_NE(*v1, *v2);
  EXPECT_GE(*v1, kFirstSwitchedVci);
}

TEST(VciAllocator, ReserveAndConflict) {
  VciAllocator a;
  EXPECT_TRUE(a.reserve(5).ok());
  EXPECT_EQ(a.reserve(5).error(), util::Errc::duplicate);
  EXPECT_EQ(a.reserve(0).error(), util::Errc::invalid_argument);
  a.release(5);
  EXPECT_TRUE(a.reserve(5).ok());
}

TEST(VciAllocator, ReleaseEnablesReuse) {
  VciAllocator a;
  auto v = a.allocate();
  ASSERT_TRUE(v.ok());
  a.release(*v);
  auto again = a.allocate();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *v);
}

TEST(VciAllocator, ExhaustionReported) {
  VciAllocator a;
  // 32-bit counter: kMaxVci is the top of the 16-bit space, so a Vci loop
  // variable would wrap instead of terminating.
  for (std::uint32_t v = kFirstSwitchedVci; v <= kMaxVci; ++v) {
    ASSERT_TRUE(a.allocate().ok());
  }
  EXPECT_EQ(a.allocate().error(), util::Errc::no_resources);
}

// ---------------------------------------------------------------- CellLink

struct SinkCapture : CellSink {
  std::vector<Cell> cells;
  void cell_arrival(const Cell& c) override { cells.push_back(c); }
};

TEST(CellLink, DeliversAfterSerializationAndPropagation) {
  sim::Simulator sim;
  SinkCapture sink;
  CellLink link(sim, kDs3Bps, sim::microseconds(100), sink);
  Cell c;
  c.vci = 42;
  link.send(c);
  sim.run();
  ASSERT_EQ(sink.cells.size(), 1u);
  // 424 bits at 45 Mb/s ≈ 9.42 us + 100 us propagation.
  EXPECT_NEAR(sim.now().us(), 424.0 / 45.0 + 100.0, 0.1);
}

TEST(CellLink, BackToBackCellsQueueAtLineRate) {
  sim::Simulator sim;
  SinkCapture sink;
  CellLink link(sim, kDs3Bps, sim::SimDuration{}, sink);
  for (int i = 0; i < 10; ++i) link.send(Cell{});
  sim.run();
  EXPECT_EQ(sink.cells.size(), 10u);
  EXPECT_NEAR(sim.now().us(), 10 * 424.0 / 45.0, 0.2);
  EXPECT_EQ(link.cells_sent(), 10u);
}

TEST(CellLink, LossInjectionDropsCells) {
  sim::Simulator sim;
  SinkCapture sink;
  util::Rng rng(3);
  CellLink link(sim, kOc12Bps, sim::SimDuration{}, sink);
  link.set_loss(0.5, &rng);
  for (int i = 0; i < 1000; ++i) link.send(Cell{});
  sim.run();
  EXPECT_GT(link.cells_dropped(), 350u);
  EXPECT_LT(link.cells_dropped(), 650u);
  EXPECT_EQ(sink.cells.size() + link.cells_dropped(), 1000u);
}

// --------------------------------------------------------------- AtmSwitch

TEST(AtmSwitch, RoutesAndRewritesVci) {
  sim::Simulator sim;
  AtmSwitch sw(sim, "s");
  SinkCapture out;
  int p_in = sw.add_port();
  int p_out = sw.add_port();
  CellLink out_link(sim, kDs3Bps, sim::SimDuration{}, out);
  sw.set_output(p_out, out_link);
  ASSERT_TRUE(sw.install_route(p_in, 50, p_out, 60, Qos{}).ok());

  Cell c;
  c.vci = 50;
  sw.input(p_in).cell_arrival(c);
  sim.run();
  ASSERT_EQ(out.cells.size(), 1u);
  EXPECT_EQ(out.cells[0].vci, 60);
  EXPECT_EQ(sw.cells_switched(), 1u);
}

TEST(AtmSwitch, UnroutedCellsDropAndCount) {
  sim::Simulator sim;
  AtmSwitch sw(sim, "s");
  int p_in = sw.add_port();
  Cell c;
  c.vci = 99;
  sw.input(p_in).cell_arrival(c);
  sim.run();
  EXPECT_EQ(sw.cells_unroutable(), 1u);
}

TEST(AtmSwitch, DuplicateRouteRejected) {
  sim::Simulator sim;
  AtmSwitch sw(sim, "s");
  SinkCapture out;
  int p_in = sw.add_port();
  int p_out = sw.add_port();
  CellLink out_link(sim, kDs3Bps, sim::SimDuration{}, out);
  sw.set_output(p_out, out_link);
  ASSERT_TRUE(sw.install_route(p_in, 50, p_out, 60, Qos{}).ok());
  EXPECT_EQ(sw.install_route(p_in, 50, p_out, 61, Qos{}).error(),
            util::Errc::duplicate);
}

TEST(AtmSwitch, AdmissionControlEnforcesLinkCapacity) {
  sim::Simulator sim;
  AtmSwitch sw(sim, "s");
  SinkCapture out;
  int p_in = sw.add_port();
  int p_out = sw.add_port();
  CellLink out_link(sim, kDs3Bps, sim::SimDuration{}, out);  // 45 Mb/s
  sw.set_output(p_out, out_link);

  Qos q30{ServiceClass::guaranteed, 30'000'000};
  Qos q20{ServiceClass::guaranteed, 20'000'000};
  EXPECT_TRUE(sw.install_route(p_in, 50, p_out, 60, q30).ok());
  EXPECT_EQ(sw.reserved_bps(p_out), 30'000'000u);
  EXPECT_EQ(sw.install_route(p_in, 51, p_out, 61, q20).error(),
            util::Errc::no_resources);
  // Best effort always fits.
  EXPECT_TRUE(sw.install_route(p_in, 52, p_out, 62, Qos{}).ok());
  // Removing the reservation frees capacity.
  EXPECT_TRUE(sw.remove_route(p_in, 50).ok());
  EXPECT_EQ(sw.reserved_bps(p_out), 0u);
  EXPECT_TRUE(sw.install_route(p_in, 51, p_out, 61, q20).ok());
}

/// Records each cell's arrival instant and send-order tag (payload[0]).
struct TimedSink : CellSink {
  explicit TimedSink(const sim::Simulator& s) : sim(s) {}
  void cell_arrival(const Cell& c) override { cells_arrival(&c, 1); }
  void cells_arrival(const Cell* cs, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      at_ns.push_back(sim.now().ns());
      tags.push_back(cs[i].payload[0]);
      vcis.push_back(cs[i].vci);
    }
  }
  const sim::Simulator& sim;
  std::vector<std::int64_t> at_ns;
  std::vector<int> tags;
  std::vector<Vci> vcis;
};

TEST(AtmSwitch, ExactPathDeliversEachCellAtItsOwnInstant) {
  // 424 bits at 622 Mb/s, truncated to whole nanoseconds.
  constexpr std::int64_t kCell = 681;
  constexpr std::int64_t kProp = 5'000;
  constexpr std::int64_t kFabric = 10'000;
  constexpr int kCells = 8;
  sim::Simulator sim;
  AtmSwitch sw(sim, "s", sim::nanoseconds(kFabric));
  const int p_in = sw.add_port();
  const int p_out = sw.add_port();
  TimedSink sink(sim);
  CellLink in(sim, kOc12Bps, sim::nanoseconds(kProp), sw.input(p_in));
  CellLink out(sim, kOc12Bps, sim::nanoseconds(kProp), sink);
  sw.set_output(p_out, out);
  ASSERT_TRUE(sw.install_route(p_in, 100, p_out, 200, Qos{}).ok());
  ASSERT_EQ(in.cell_time().ns(), kCell);

  // Back-to-back sends on the input link: cell i reaches the switch after
  // i + 1 serializations plus propagation, crosses the fabric, and leaves
  // at once (the output line keeps pace), so it reaches the sink one more
  // serialization and propagation later.
  Cell c;
  c.vci = 100;
  for (int i = 0; i < kCells; ++i) {
    c.payload[0] = static_cast<std::uint8_t>(i);
    in.send(c);
  }
  // Per cell: the input link's delivery, the fabric and the output link's
  // delivery.  The drain sends each cell from its fabric event and never
  // wakes up to an empty queue.
  EXPECT_EQ(sim.run(), static_cast<std::size_t>(3 * kCells));
  ASSERT_EQ(sink.at_ns.size(), static_cast<std::size_t>(kCells));
  for (int i = 0; i < kCells; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(sink.tags[i], i);
    EXPECT_EQ(sink.vcis[i], 200);
    EXPECT_EQ(sink.at_ns[i], (i + 1) * kCell + kProp + kFabric + kCell + kProp);
  }

  // A train handed to the switch at one instant crosses the fabric
  // together; the drain then serves one cell per output cell-time, so the
  // cells reach the sink as a train on the output line, in send order.
  const std::int64_t t0 = sim.now().ns() + 1'000'000;
  std::vector<Cell> train(kCells, c);
  for (int i = 0; i < kCells; ++i) {
    train[static_cast<std::size_t>(i)].payload[0] =
        static_cast<std::uint8_t>(kCells + i);
  }
  sim.schedule_at(sim::SimTime(t0), [&] {
    sw.input(p_in).cells_arrival(train.data(), train.size());
  });
  // The arrival, one fabric event for the train, a drain wake-up for each
  // cell after the first, and one output delivery per cell.
  EXPECT_EQ(sim.run(), static_cast<std::size_t>(1 + 1 + (kCells - 1) + kCells));
  ASSERT_EQ(sink.at_ns.size(), static_cast<std::size_t>(2 * kCells));
  for (int i = 0; i < kCells; ++i) {
    SCOPED_TRACE(kCells + i);
    const std::size_t k = static_cast<std::size_t>(kCells + i);
    EXPECT_EQ(sink.tags[k], kCells + i);
    EXPECT_EQ(sink.at_ns[k], t0 + kFabric + i * kCell + kCell + kProp);
  }
  EXPECT_EQ(sw.cells_switched(), static_cast<std::uint64_t>(2 * kCells));
}

TEST(AtmSwitch, MergedInputsLeaveAtLineFreeOrAtOnce) {
  constexpr std::int64_t kCell = 681;  // OC-12 cell time, whole ns
  constexpr std::int64_t kProp = 5'000;
  constexpr std::int64_t kFabric = 10'000;
  sim::Simulator sim;
  AtmSwitch sw(sim, "s", sim::nanoseconds(kFabric));
  const int p_a = sw.add_port();
  const int p_b = sw.add_port();
  const int p_out = sw.add_port();
  TimedSink sink(sim);
  CellLink out(sim, kOc12Bps, sim::nanoseconds(kProp), sink);
  sw.set_output(p_out, out);
  ASSERT_TRUE(sw.install_route(p_a, 100, p_out, 200, Qos{}).ok());
  ASSERT_TRUE(sw.install_route(p_b, 101, p_out, 201, Qos{}).ok());
  ASSERT_EQ(out.cell_time().ns(), kCell);

  // Cell `tag` reaches input `port` at `at`, and the fabric kFabric later.
  auto arrive = [&](std::int64_t at, int port, Vci vci, int tag) {
    Cell c;
    c.vci = vci;
    c.payload[0] = static_cast<std::uint8_t>(tag);
    sim.schedule_at(sim::SimTime(at), [&sw, port, c] { sw.input(port).cell_arrival(c); });
  };
  const std::int64_t t0 = 1'000'000;
  arrive(t0, p_a, 100, 0);                 // idle line: leaves at once
  arrive(t0 + kCell / 2, p_b, 101, 1);     // mid-cell-time: waits for line-free
  arrive(t0 + 2 * kCell, p_a, 100, 2);     // exactly at line-free: at once
  arrive(t0 + 10 * kCell, p_b, 101, 3);    // long after: at once
  // Four arrivals, four fabric events, two drain wake-ups (cells 1 and 2
  // each waited for the line) and four output deliveries.
  EXPECT_EQ(sim.run(), 14u);

  const std::int64_t leave[] = {t0 + kFabric, t0 + kFabric + kCell,
                                t0 + kFabric + 2 * kCell, t0 + kFabric + 10 * kCell};
  ASSERT_EQ(sink.at_ns.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(sink.tags[i], static_cast<int>(i));
    EXPECT_EQ(sink.at_ns[i], leave[i] + kCell + kProp);
  }
  EXPECT_EQ(sink.vcis, (std::vector<Vci>{200, 201, 200, 201}));
}

TEST(AtmSwitch, RemoveUnknownRouteFails) {
  sim::Simulator sim;
  AtmSwitch sw(sim, "s");
  sw.add_port();
  EXPECT_EQ(sw.remove_route(0, 1).error(), util::Errc::not_found);
}

// -------------------------------------------------------------- AtmNetwork

struct NetFixture : ::testing::Test {
  sim::Simulator sim;
  atm::AtmNetwork net{sim};
  SinkCapture ep_a, ep_b;
  CellLink* up_a = nullptr;
  CellLink* up_b = nullptr;

  void SetUp() override {
    auto& s1 = net.make_switch("s1");
    auto& s2 = net.make_switch("s2");
    net.connect_switches(s1, s2, kDs3Bps, sim::microseconds(500));
    auto a = net.attach_endpoint(AtmAddress{"a"}, ep_a, s1, kDs3Bps,
                                 sim::microseconds(100));
    auto b = net.attach_endpoint(AtmAddress{"b"}, ep_b, s2, kDs3Bps,
                                 sim::microseconds(100));
    ASSERT_TRUE(a.ok() && b.ok());
    up_a = *a;
    up_b = *b;
  }
};

TEST_F(NetFixture, SetupVcEndToEndAndDataFlows) {
  std::optional<util::Result<VcHandle>> result;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, Qos{},
               [&](util::Result<VcHandle> r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value() && result->ok());
  VcHandle h = result->value();
  EXPECT_EQ(h.hop_count, 3);  // a-s1, s1-s2, s2-b: the 3-hop path of §9

  Cell c;
  c.vci = h.src_vci;
  up_a->send(c);
  sim.run();
  ASSERT_EQ(ep_b.cells.size(), 1u);
  EXPECT_EQ(ep_b.cells[0].vci, h.dst_vci);
  EXPECT_EQ(net.active_vc_count(), 1u);
}

TEST_F(NetFixture, SetupLatencyModelsSwitchesAndPropagation) {
  sim::SimTime start = sim.now();
  std::optional<sim::SimTime> done;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, Qos{},
               [&](util::Result<VcHandle>) { done = sim.now(); });
  sim.run();
  ASSERT_TRUE(done.has_value());
  // 2 switches × 2 ms + 2 × (100+500+100) us propagation = 5.4 ms.
  EXPECT_NEAR((*done - start).ms(), 5.4, 0.01);
}

TEST_F(NetFixture, TeardownReleasesEverything) {
  std::optional<VcHandle> h;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, Qos{},
               [&](util::Result<VcHandle> r) { h = *r; });
  sim.run();
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(net.teardown(h->id).ok());
  EXPECT_EQ(net.active_vc_count(), 0u);
  EXPECT_EQ(net.teardown(h->id).error(), util::Errc::not_found);

  // Data on the dead VC goes nowhere.
  Cell c;
  c.vci = h->src_vci;
  up_a->send(c);
  sim.run();
  EXPECT_TRUE(ep_b.cells.empty());
}

TEST_F(NetFixture, AdmissionDenialRollsBackPartialState) {
  Qos q{ServiceClass::guaranteed, 40'000'000};
  std::optional<util::Result<VcHandle>> r1, r2;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, q,
               [&](util::Result<VcHandle> r) { r1 = r; });
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, q,
               [&](util::Result<VcHandle> r) { r2 = r; });
  sim.run();
  ASSERT_TRUE(r1 && r1->ok());
  ASSERT_TRUE(r2 && !r2->ok());
  EXPECT_EQ(r2->error(), util::Errc::no_resources);
  EXPECT_EQ(net.active_vc_count(), 1u);
  // Tear down the first; the same request now fits (no leaked reservation).
  ASSERT_TRUE(net.teardown(r1->value().id).ok());
  std::optional<util::Result<VcHandle>> r3;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, q,
               [&](util::Result<VcHandle> r) { r3 = r; });
  sim.run();
  ASSERT_TRUE(r3 && r3->ok());
}

TEST_F(NetFixture, UnknownEndpointsFail) {
  std::optional<util::Result<VcHandle>> r;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"ghost"}, Qos{},
               [&](util::Result<VcHandle> rr) { r = rr; });
  sim.run();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->error(), util::Errc::no_route);
  EXPECT_EQ(net.setups_denied(), 1u);
}

TEST_F(NetFixture, PvcUsesRequestedVciOnBothEnds) {
  auto h = net.setup_pvc(AtmAddress{"a"}, AtmAddress{"b"}, 5, Qos{});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->src_vci, 5);
  EXPECT_EQ(h->dst_vci, 5);
  // The VCI is now taken on those links: a second identical PVC fails.
  EXPECT_EQ(net.setup_pvc(AtmAddress{"a"}, AtmAddress{"b"}, 5, Qos{}).error(),
            util::Errc::duplicate);
  // Cells flow over it.
  Cell c;
  c.vci = 5;
  up_a->send(c);
  sim.run();
  ASSERT_EQ(ep_b.cells.size(), 1u);
}

TEST_F(NetFixture, SwitchedVcisAvoidPvcRange) {
  (void)net.setup_pvc(AtmAddress{"a"}, AtmAddress{"b"}, 1, Qos{});
  std::optional<VcHandle> h;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, Qos{},
               [&](util::Result<VcHandle> r) { h = *r; });
  sim.run();
  ASSERT_TRUE(h.has_value());
  EXPECT_GE(h->src_vci, kFirstSwitchedVci);
}

TEST_F(NetFixture, ManyVcsGetDistinctVcis) {
  std::vector<VcHandle> handles;
  for (int i = 0; i < 50; ++i) {
    net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, Qos{},
                 [&](util::Result<VcHandle> r) {
                   ASSERT_TRUE(r.ok());
                   handles.push_back(*r);
                 });
  }
  sim.run();
  ASSERT_EQ(handles.size(), 50u);
  std::set<Vci> src;
  for (const auto& h : handles) src.insert(h.src_vci);
  EXPECT_EQ(src.size(), 50u);
}

}  // namespace
}  // namespace xunet::atm
