// bench_sec9_signaling_latency — reproduces the §9 timing measurements:
//   * service registration: 17–20 ms (four context switches),
//   * accepting an incoming call: ~20 ms (context switches again),
//   * establishing a router-to-router call: ~330 ms (dominated by per-call
//     maintenance logging by the signaling entities).
// The testbed is the paper's: two routers across a three-hop two-switch
// ATM path.  All samples are recorded as histograms in the simulation's
// MetricsRegistry (bench.sec9.*) and reported from there, alongside the
// sighost's own counters — one registry, one naming scheme.
#include <chrono>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "obs/obs.hpp"
#include "userlib/userlib.hpp"
#include "util/alloc_hook.hpp"
#include "util/stats.hpp"

namespace xunet::bench {
namespace {

void run() {
  banner("Section 9: signaling latency on the two-router, two-switch testbed");

  core::TestbedConfig cfg;
  cfg.kernel.fd_table_size = 200;
  auto tb = cfg.build_deferred();
  if (!tb->bring_up().ok()) std::abort();
  auto& r0 = *tb->router(0).kernel;
  auto& r1 = *tb->router(1).kernel;
  obs::MetricsRegistry& mx = tb->sim().obs().metrics();
  obs::Histogram& reg_ms = mx.histogram("bench.sec9.registration_ms");
  obs::Histogram& accept_ms = mx.histogram("bench.sec9.accept_ms");
  obs::Histogram& setup_ms = mx.histogram("bench.sec9.setup_ms");

  // ---- registration time ---------------------------------------------------
  kern::Pid spid = r1.spawn("bench-server");
  app::UserLib slib(r1, spid, r1.ip_node().address());
  util::Summary reg_times;
  // One throwaway registration to warm the signaling channel (the paper's
  // RPC accounting starts from a connected IPC path).
  bool warm = false;
  slib.export_service("warmup", 5100, [&](util::Result<void>) { warm = true; });
  tb->sim().run_for(sim::seconds(1));
  XBENCH_CHECK(warm);

  for (int i = 0; i < 20; ++i) {
    sim::SimTime start = tb->sim().now();
    bool done = false;
    slib.export_service("svc" + std::to_string(i), 5101,
                        [&](util::Result<void> r) {
                          if (r.ok()) done = true;
                        });
    tb->sim().run_for(sim::seconds(2));
    XBENCH_CHECK(done);
    reg_times.add((tb->sim().now().ns() - start.ns()) / 1e6);
    // run_for overshoots; recompute precisely next round (the overshoot does
    // not contaminate the sample because we timestamp completion below).
  }

  // The loop above measures with run_for overshoot; measure precisely using
  // completion timestamps instead.
  for (int i = 0; i < 20; ++i) {
    sim::SimTime start = tb->sim().now();
    std::optional<sim::SimTime> done_at;
    slib.export_service("precise" + std::to_string(i), 5102,
                        [&](util::Result<void> r) {
                          if (r.ok()) done_at = tb->sim().now();
                        });
    tb->sim().run_for(sim::seconds(2));
    XBENCH_CHECK(done_at);
    reg_ms.observe((*done_at - start).ms());
  }
  const util::Summary& reg_precise = reg_ms.summary();

  double cs_ms = cfg.kernel.context_switch.ms();
  compare("service registration time",
          "17-20 ms (4 context switches)",
          util::fmt(reg_precise.min(), 1) + "-" + util::fmt(reg_precise.max(), 1) +
              " ms (4 x " + util::fmt(cs_ms, 1) + " ms crossings)");

  // ---- accept time + call-establishment time -------------------------------
  // Manual server so the accept RPC can be timed on its own.
  kern::Pid apid = r1.spawn("accept-server");
  app::UserLib alib(r1, apid, r1.ip_node().address());
  std::function<void()> accept_loop = [&] {
    alib.await_service_request([&](util::Result<app::IncomingRequest> r) {
      if (!r.ok()) return;
      sim::SimTime t0 = tb->sim().now();
      alib.accept_connection(*r, r->qos,
                             [&, t0](util::Result<app::OpenResult> rr) {
                               if (rr.ok()) {
                                 accept_ms.observe((tb->sim().now() - t0).ms());
                                 (void)alib.bind_data_socket(*rr);
                               }
                             });
      accept_loop();
    });
  };
  bool areg = false;
  alib.export_service("timed", 5103, [&](util::Result<void>) { areg = true; });
  tb->sim().run_for(sim::seconds(1));
  XBENCH_CHECK(areg);
  accept_loop();

  kern::Pid cpid = r0.spawn("bench-client");
  app::UserLib clib(r0, cpid, r0.ip_node().address());
  std::uint64_t maint_before = mx.counter_value("sighost.maint.records");
  const int kCalls = bench_short() ? 5 : 20;
  const auto wall0 = std::chrono::steady_clock::now();
  const std::uint64_t allocs0 = util::alloc_count();
  for (int i = 0; i < kCalls; ++i) {
    sim::SimTime start = tb->sim().now();
    std::optional<sim::SimTime> got_vci;
    std::optional<app::OpenResult> res;
    clib.open_connection("berkeley.rt", "timed", "", "class=predicted,bw=1000000",
                         [&](util::Result<app::OpenResult> r) {
                           if (r.ok()) {
                             got_vci = tb->sim().now();
                             res = *r;
                           } else {
                             std::fprintf(stderr, "open failed: %d\n",
                                          static_cast<int>(r.error()));
                           }
                         });
    tb->sim().run_for(sim::seconds(5));
    XBENCH_CHECK(got_vci);
    setup_ms.observe((*got_vci - start).ms());
    // Attach + release the call so state drains between samples.
    auto fd = clib.connect_data_socket(*res);
    tb->sim().run_for(sim::seconds(1));
    if (fd.ok()) (void)r0.close(cpid, *fd);
    tb->sim().run_for(sim::seconds(1));
  }
  const double call_wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  const double allocs_per_call =
      static_cast<double>(util::alloc_count() - allocs0) / kCalls;

  const util::Summary& accept_times = accept_ms.summary();
  const util::Summary& setup_times = setup_ms.summary();
  compare("time to accept an incoming call", "~20 ms",
          util::fmt(accept_times.mean(), 1) + " ms (mean of " +
              std::to_string(accept_times.count()) + ")");
  compare("router-to-router call establishment", "~330 ms",
          util::fmt(setup_times.mean(), 1) + " ms (mean), " +
              util::fmt(setup_times.min(), 1) + "-" +
              util::fmt(setup_times.max(), 1) + " ms");
  std::printf(
      "\nDecomposition of call establishment (mean %s ms):\n"
      "  2 x %s ms per-call maintenance logging (one per sighost)   = %s ms\n"
      "  ~18 user-kernel crossings of %s ms across the 5 RPC legs\n"
      "  (CONNECT_REQ, INCOMING_CONN, ACCEPT, VCI_FOR_CONN to the\n"
      "  server + its bind confirmation, VCI_FOR_CONN to the client) = %s ms\n"
      "  VC setup through 2 switches (2 x 2 ms + propagation)       = ~5.4 ms\n"
      "The paper attributes the bulk to 'the large amount of maintenance\n"
      "information logged per call by the signaling entities' - the same\n"
      "attribution this model reproduces.\n",
      util::fmt(setup_times.mean(), 1).c_str(),
      util::fmt(cfg.sighost.per_call_log_cost.ms(), 0).c_str(),
      util::fmt(2 * cfg.sighost.per_call_log_cost.ms(), 0).c_str(),
      util::fmt(cs_ms, 1).c_str(), util::fmt(18 * cs_ms, 0).c_str());

  // Cross-check against the sighosts' own instrumentation: every established
  // call writes one maintenance record per signaling entity, and each entity
  // observes its setup latency into the shared registry.
  std::uint64_t maint = mx.counter_value("sighost.maint.records") - maint_before;
  compare("maintenance records per call cycle", "2 setup + 2 teardown",
          util::fmt(static_cast<double>(maint) / kCalls, 1) + " (from " +
              std::to_string(maint) + " records / " + std::to_string(kCalls) +
              " calls)");

  std::printf("\n== unified metrics registry (bench.sec9.* + component metrics) ==\n%s",
              mx.render_text().c_str());

  JsonReport rep("signaling");
  rep.metric("calls", kCalls);
  rep.metric("calls_per_sec_wall", kCalls / call_wall_secs);
  // Heap allocations per open/attach/close cycle, over the call loop only.
  rep.metric("allocs_per_call", allocs_per_call);
  rep.metric("setup_ms_p50", setup_times.percentile(50));
  rep.metric("setup_ms_p90", setup_times.percentile(90));
  rep.metric("setup_ms_p99", setup_times.percentile(99));
  rep.metric("setup_ms_mean", setup_times.mean());
  rep.metric("accept_ms_mean", accept_times.mean());
  rep.metric("registration_ms_mean", reg_precise.mean());
  rep.metric("maint_records_per_call", static_cast<double>(maint) / kCalls);
  rep.info("topology", "canonical 2-router, 2-switch, 3-hop DS3 path");
  rep.info("paper_reference", "section 9: ~330 ms per call, 17-20 ms register");
  rep.info("short_mode", bench_short() ? "1" : "0");
  rep.write();
}

}  // namespace
}  // namespace xunet::bench

int main() {
  xunet::bench::run();
  return 0;
}
