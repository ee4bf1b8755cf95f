// stress_test.cpp — soak and stress: large event volumes, process churn,
// VC churn with VCI reuse, TCP port recycling, and state audits after all
// of it.
#include <gtest/gtest.h>

#include "atm/network.hpp"
#include "core/apps.hpp"
#include "core/testbed.hpp"

namespace xunet {
namespace {

using core::CallClient;
using core::CallServer;
using core::Testbed;

TEST(Stress, SimulatorHandlesLargeEventVolumesWithCancellations) {
  constexpr std::size_t kEvents = 100'000;
  enum : char { pending, fired, cancelled };
  sim::Simulator sim;
  util::Rng rng(1);
  std::vector<char> state(kEvents, pending);
  std::uint64_t n_fired = 0, n_cancelled = 0;
  std::vector<sim::EventId> ids;
  ids.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    ids.push_back(sim.schedule(sim::microseconds(static_cast<std::int64_t>(rng.below(1'000'000))),
                               [&state, &n_fired, i] {
                                 state[i] = fired;
                                 ++n_fired;
                               }));
    ASSERT_EQ(sim.pending(), i + 1);
  }
  // Cancel a random half of all ids.  cancel() must be true exactly for
  // events still pending, and false for ids already fired or cancelled.
  auto cancel_half = [&] {
    for (std::size_t i = 0; i < kEvents; ++i) {
      if (!rng.chance(0.5)) continue;
      const bool was_pending = state[i] == pending;
      ASSERT_EQ(sim.cancel(ids[i]), was_pending) << "event " << i;
      if (was_pending) {
        state[i] = cancelled;
        ++n_cancelled;
      }
      ASSERT_EQ(sim.pending(), kEvents - n_fired - n_cancelled);
    }
  };
  cancel_half();
  EXPECT_GT(n_cancelled, 45'000u);
  EXPECT_LT(n_cancelled, 55'000u);
  sim.run_until(sim::SimTime(500'000'000));  // the midpoint
  EXPECT_GT(n_fired, 20'000u);
  EXPECT_EQ(sim.pending(), kEvents - n_fired - n_cancelled);
  const std::uint64_t first_half_cancelled = n_cancelled;
  cancel_half();  // a second random half, including fired ids
  EXPECT_GT(n_cancelled - first_half_cancelled, 10'000u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(n_fired + n_cancelled, kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) EXPECT_NE(state[i], pending);
}

TEST(Stress, ProcessChurnLeavesNoDescriptors) {
  sim::Simulator sim;
  kern::KernelConfig cfg;
  cfg.fd_table_size = 32;
  kern::Kernel k(sim, "churn", kern::Kernel::Role::host,
                 ip::make_ip(3, 3, 3, 3), atm::AtmAddress{"churn"}, cfg);
  for (int round = 0; round < 500; ++round) {
    kern::Pid p = k.spawn("p" + std::to_string(round));
    // A mix of descriptor kinds.
    auto x1 = k.xunet_socket(p);
    auto x2 = k.xunet_socket(p);
    ASSERT_TRUE(x1.ok() && x2.ok());
    ASSERT_TRUE(k.xunet_bind(p, *x1, static_cast<atm::Vci>(100 + round % 50), 7).ok());
    auto raw = k.proto_atm_socket(p);
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(k.kill_process(p).ok());
    // Drain the termination indications so the device never clogs.
    while (k.anand().read().ok()) {
    }
    sim.run_for(sim::milliseconds(1));
  }
  EXPECT_EQ(k.live_process_count(), 0u);
  EXPECT_EQ(k.xunet_socket_count(), 0u);
}

TEST(Stress, VcChurnReusesVcisWithoutCollision) {
  sim::Simulator sim;
  atm::AtmNetwork net(sim);
  auto& s1 = net.make_switch("s1");
  struct NullSink : atm::CellSink {
    void cell_arrival(const atm::Cell&) override {}
  } sink_a, sink_b;
  ASSERT_TRUE(net.attach_endpoint(atm::AtmAddress{"a"}, sink_a, s1,
                                  atm::kDs3Bps, sim::microseconds(10)).ok());
  ASSERT_TRUE(net.attach_endpoint(atm::AtmAddress{"b"}, sink_b, s1,
                                  atm::kDs3Bps, sim::microseconds(10)).ok());
  for (int round = 0; round < 2000; ++round) {
    std::optional<atm::VcHandle> h;
    net.setup_vc(atm::AtmAddress{"a"}, atm::AtmAddress{"b"}, atm::Qos{},
                 [&](util::Result<atm::VcHandle> r) {
                   ASSERT_TRUE(r.ok());
                   h = *r;
                 });
    sim.run();
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(net.teardown(h->id).ok());
  }
  EXPECT_EQ(net.active_vc_count(), 0u);
  EXPECT_EQ(net.setups_attempted(), 2000u);
  EXPECT_EQ(net.setups_denied(), 0u);
}

TEST(Stress, ReservationsFillCapacityExactly) {
  sim::Simulator sim;
  atm::AtmNetwork net(sim);
  auto& s1 = net.make_switch("s1");
  auto& s2 = net.make_switch("s2");
  net.connect_switches(s1, s2, atm::kOc12Bps, sim::microseconds(10));
  struct NullSink : atm::CellSink {
    void cell_arrival(const atm::Cell&) override {}
  } sink_a, sink_b;
  ASSERT_TRUE(net.attach_endpoint(atm::AtmAddress{"a"}, sink_a, s1,
                                  atm::kOc12Bps, sim::microseconds(10)).ok());
  ASSERT_TRUE(net.attach_endpoint(atm::AtmAddress{"b"}, sink_b, s2,
                                  atm::kOc12Bps, sim::microseconds(10)).ok());
  // 622 Mb/s trunk, 622 x 1 Mb/s guaranteed calls fit exactly; the 623rd
  // must be denied.
  atm::Qos q{atm::ServiceClass::guaranteed, 1'000'000};
  int ok = 0, denied = 0;
  for (int i = 0; i < 623; ++i) {
    net.setup_vc(atm::AtmAddress{"a"}, atm::AtmAddress{"b"}, q,
                 [&](util::Result<atm::VcHandle> r) {
                   if (r.ok()) {
                     ++ok;
                   } else {
                     ++denied;
                   }
                 });
  }
  sim.run();
  EXPECT_EQ(ok, 622);
  EXPECT_EQ(denied, 1);
}

TEST(Stress, TcpPortRecyclingOverManyConnections) {
  sim::Simulator sim;
  ip::IpNode a(sim, "a", ip::make_ip(1, 1, 1, 1));
  ip::IpNode b(sim, "b", ip::make_ip(2, 2, 2, 2));
  ip::IpLink link(sim, ip::kFddiBps, sim::microseconds(20), ip::kFddiMtu);
  link.attach(a, b);
  a.set_default_route(link);
  b.set_default_route(link);
  tcp::TcpConfig tcfg;
  tcfg.msl = sim::milliseconds(100);  // fast recycling for the soak
  tcp::TcpLayer ta(a, tcfg), tb(b, tcfg);
  int accepted = 0;
  ASSERT_TRUE(tb.listen(9, [&](tcp::ConnId c) {
                  ++accepted;
                  tb.set_close_handler(c, [&tb, c](util::Errc) {
                    (void)tb.close(c);
                  });
                }).ok());
  int completed = 0;
  for (int i = 0; i < 500; ++i) {
    std::optional<tcp::ConnId> conn;
    (void)ta.connect(b.address(), 9, [&](util::Result<tcp::ConnId> r) {
      ASSERT_TRUE(r.ok());
      conn = *r;
    });
    sim.run_for(sim::milliseconds(20));
    ASSERT_TRUE(conn.has_value());
    ASSERT_TRUE(ta.close(*conn).ok());
    sim.run_for(sim::milliseconds(30));
    ++completed;
  }
  sim.run_for(sim::seconds(2));
  EXPECT_EQ(completed, 500);
  EXPECT_EQ(accepted, 500);
  EXPECT_EQ(ta.connection_count(), 0u);
  EXPECT_EQ(tb.connection_count(), 0u);
}

TEST(Stress, FiveSiteMeshUnderConcurrentCallChurn) {
  core::TestbedConfig cfg;
  cfg.kernel.fd_table_size = 200;
  cfg.kernel.tcp_msl = sim::seconds(1);
  cfg.sighost.per_call_log_cost = sim::milliseconds(2);
  auto tb = std::make_unique<Testbed>(cfg);
  auto& s1 = tb->add_switch("s1");
  auto& s2 = tb->add_switch("s2");
  tb->connect_switches(s1, s2);
  const char* names[4] = {"a.rt", "b.rt", "c.rt", "d.rt"};
  tb->add_router("a.rt", ip::make_ip(10, 1, 0, 1), s1);
  tb->add_router("b.rt", ip::make_ip(10, 2, 0, 1), s1);
  tb->add_router("c.rt", ip::make_ip(10, 3, 0, 1), s2);
  tb->add_router("d.rt", ip::make_ip(10, 4, 0, 1), s2);
  ASSERT_TRUE(tb->bring_up().ok());

  std::vector<std::unique_ptr<CallServer>> servers;
  std::vector<std::unique_ptr<CallClient>> clients;
  for (int i = 0; i < 4; ++i) {
    auto& r = tb->router(static_cast<std::size_t>(i));
    servers.push_back(std::make_unique<CallServer>(
        *r.kernel, r.kernel->ip_node().address(), "s" + std::to_string(i),
        static_cast<std::uint16_t>(6300 + i)));
    servers.back()->start([](util::Result<void>) {});
    clients.push_back(std::make_unique<CallClient>(
        *r.kernel, r.kernel->ip_node().address()));
  }
  tb->sim().run_for(sim::milliseconds(500));

  // 200 calls: every router repeatedly calls a rotating peer, holds 500 ms.
  auto done = std::make_shared<int>(0);
  for (int n = 0; n < 200; ++n) {
    int from = n % 4;
    int to = (n + 1 + n / 4) % 4;
    if (to == from) to = (to + 1) % 4;
    CallClient* c = clients[static_cast<std::size_t>(from)].get();
    tb->sim().schedule(
        sim::milliseconds(10 * n), [tb = tb.get(), c, to, done] {
          c->open("" + std::string(
                           std::array<const char*, 4>{"a.rt", "b.rt", "c.rt",
                                                      "d.rt"}[static_cast<std::size_t>(to)]),
                  "s" + std::to_string(to), "",
                  [tb, c, done](util::Result<CallClient::Call> r) {
                    if (!r.ok()) {
                      ++*done;
                      return;
                    }
                    tb->sim().schedule(sim::milliseconds(500),
                                       [c, done, call = *r] {
                                         c->close_call(call);
                                         ++*done;
                                       });
                  });
        });
  }
  tb->sim().run_for(sim::seconds(120));
  EXPECT_EQ(*done, 200);
  EXPECT_TRUE(tb->audit().clean()) << tb->audit().describe();
  (void)names;
}

}  // namespace
}  // namespace xunet
