// workloads.cpp — the three measured workloads on the canonical §9 testbed
// (two routers, two switches, three ATM hops).
//
// Every round builds a fresh testbed and replays the same seeded inputs, so
// a round's simulated outcome — and its digest — is a pure function of the
// seed and the parameters.  Wall time only decides how many rounds run.
// All workload actions happen inside simulator callbacks; the main loop
// only calls run_until in fixed slices, identically in the traced and the
// untraced run, so tracing cannot change what is simulated.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>

#include "core/apps.hpp"
#include "harness.hpp"
#include "kern/instr.hpp"
#include "userlib/userlib.hpp"

namespace perfbench {

using namespace xunet;

std::int64_t Gen::exp_ns(double mean_ns) {
  // 53 random bits -> u in (0, 1]; inverse CDF of the exponential.
  const double u =
      static_cast<double>((next() >> 11) + 1) * (1.0 / 9007199254740992.0);
  const auto v = static_cast<std::int64_t>(-std::log(u) * mean_ns);
  return v < 1 ? 1 : v;
}

namespace {

double secs(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/// Every kernel of the testbed, routers first.
std::vector<kern::Kernel*> kernels(core::Testbed& tb) {
  std::vector<kern::Kernel*> ks;
  for (std::size_t i = 0; i < tb.router_count(); ++i)
    ks.push_back(tb.router(i).kernel.get());
  for (std::size_t i = 0; i < tb.host_count(); ++i)
    ks.push_back(tb.host(i).kernel.get());
  return ks;
}

std::vector<sig::Sighost*> sighosts(core::Testbed& tb) {
  std::vector<sig::Sighost*> v;
  for (std::size_t i = 0; i < tb.router_count(); ++i) {
    core::Router& r = tb.router(i);
    for (std::size_t s = 0; s < r.shard_count(); ++s)
      if (sig::Sighost* sh = r.shard(s)) v.push_back(sh);
  }
  return v;
}

std::vector<atm::AtmSwitch*> switches(core::Testbed& tb) {
  std::vector<atm::AtmSwitch*> v;
  for (std::size_t i = 0; i < tb.router_count(); ++i) v.push_back(tb.router(i).sw);
  return v;
}

/// Advances the simulator in fixed slices: one run_until per call, every event counted, peaks
/// sampled between slices when tracing.
class Slicer {
 public:
  Slicer(core::Testbed& tb, const Ctx& ctx, Counts& c, sim::SimDuration slice)
      : tb_(tb), ctx_(ctx), c_(c), slice_(slice) {}

  void step() {
    std::size_t n = 0;
    {
      Tracer::Scope s(&ctx_.tracer, "sim.run_until", 0);
      n = tb_.sim().run_until(tb_.sim().now() + slice_);
    }
    c_.events += n;
    if (ctx_.tracer.on()) sample();
  }
  /// Run slices until `done()` holds or `limit` of simulated time passes.
  template <typename Pred>
  bool run(Pred done, sim::SimDuration limit) {
    const sim::SimTime stop = tb_.sim().now() + limit;
    while (!done()) {
      if (tb_.sim().now() >= stop) return false;
      step();
    }
    return true;
  }
  /// Run exactly `d` of simulated time in slices.
  void run_for(sim::SimDuration d) {
    const sim::SimTime stop = tb_.sim().now() + d;
    while (tb_.sim().now() < stop) step();
  }

 private:
  void sample() {
    std::uint64_t conns = 0, tw = 0, wb = 0;
    for (kern::Kernel* k : kernels(tb_)) {
      conns += k->tcp().connection_count();
      tw += k->fds_in_time_wait();
    }
    for (sig::Sighost* sh : sighosts(tb_)) wb += sh->wait_for_bind_size();
    c_.tcp_conns_peak = std::max(c_.tcp_conns_peak, conns);
    c_.time_wait_fds_peak = std::max(c_.time_wait_fds_peak, tw);
    c_.wait_bind_peak = std::max(c_.wait_bind_peak, wb);
  }

  core::Testbed& tb_;
  const Ctx& ctx_;
  Counts& c_;
  sim::SimDuration slice_;
};

/// Read every layer's public counters into `c` at the end of a round.
void collect(core::Testbed& tb, Counts& c) {
  for (kern::Kernel* k : kernels(tb)) {
    c.anand_posted += k->anand().posted();
    c.anand_dropped += k->anand().dropped();
    c.xunet_dropped += k->xunet_frames_dropped();
    c.ipatm_encap += k->proto_atm().frames_encapsulated();
    c.orc_discarded += k->orc().frames_discarded();
    c.tcp_segments += k->tcp().segments_sent();
    c.tcp_retransmits += k->tcp().retransmits();
    c.ip_fragments += k->ip_node().fragments_sent();
    c.ip_forwarded += k->ip_node().forwarded();
    c.ip_packets += k->ip_node().delivered() + k->ip_node().forwarded();
    if (k->hobbit() != nullptr) c.aal5_errors += k->hobbit()->aal5_errors();
  }
  for (sig::Sighost* sh : sighosts(tb)) {
    c.retransmits += sh->stats().retransmits;
    c.sheds += sh->stats().sheds;
    c.request_timeouts += sh->stats().request_timeouts;
  }
  atm::AtmNetwork& net = tb.network();
  std::vector<atm::AtmSwitch*> sws = switches(tb);
  for (std::size_t i = 0; i + 1 < sws.size(); ++i)
    for (atm::CellLink* l : net.trunk_links(*sws[i], *sws[i + 1]))
      c.cells_sent += l->cells_sent();
  for (std::size_t i = 0; i < tb.router_count(); ++i)
    for (atm::CellLink* l :
         net.endpoint_links(tb.router(i).kernel->atm_address()))
      c.cells_sent += l->cells_sent();
  for (atm::AtmSwitch* sw : sws) {
    c.switch_cells += sw->cells_switched();
    for (int port = 0; port < sw->port_count(); ++port)
      for (std::size_t cause = 0; cause < atm::kDiscardCauseCount; ++cause)
        c.switch_discards +=
            sw->cells_discarded(port, static_cast<atm::DiscardCause>(cause));
  }
  c.vc_setups = net.setups_attempted();
  c.vc_setups_denied = net.setups_denied();
  c.peak_pending = tb.sim().peak_pending();
}

/// Fold the simulated protocol counts and every sighost's statistics into
/// the digest.  Event-engine counts (events dispatched, peak pending) are
/// how the simulator does its work, not what it simulates, so an engine
/// optimisation may change them; sampled peaks and traced-only counts stay
/// out so the traced and untraced runs of a seed must agree.
void digest_counts(core::Testbed& tb, const Counts& c, Digest& d) {
  for (std::uint64_t v :
       {c.ops_total, c.calls, c.frames, c.anand_posted, c.anand_dropped, c.xunet_dropped, c.ipatm_encap,
        c.orc_discarded, c.instr_send_small, c.instr_recv_small,
        c.instr_send_large, c.instr_recv_large, c.retransmits, c.sheds,
        c.request_timeouts, c.vci_mappings_end, c.tcp_segments,
        c.tcp_retransmits, c.ip_fragments, c.ip_forwarded, c.ip_packets,
        c.cells_sent, c.switch_cells, c.switch_discards, c.aal5_errors,
        c.vc_setups, c.vc_setups_denied, c.switch_routes})
    d.add(v);
  for (sig::Sighost* sh : sighosts(tb)) {
    const sig::SighostStats& s = sh->stats();
    for (std::uint64_t v :
         {s.calls_established, s.calls_torn_down, s.auth_failures,
          s.bind_timeouts, s.rejects_sent, s.cancels, s.services_registered,
          s.setup_failures, s.request_timeouts, s.retransmits,
          s.dup_suppressed, s.retx_abandoned, s.peer_parse_errors, s.sheds,
          s.resyncs, s.recovered_calls, s.orphans_torn_down})
      d.add(v);
  }
}

/// Count (and, in the first traced round, keep) every signaling message
/// the sighosts see.  Observing only: the hook changes nothing simulated.
void hook_sighosts(core::Testbed& tb, const Ctx& ctx, Counts& c) {
  if (!ctx.tracer.on()) return;
  for (sig::Sighost* sh : sighosts(tb)) {
    sh->set_trace([&c, cap = ctx.capture](std::string_view, std::string_view,
                                          const sig::Msg& m) {
      ++c.sighost_msgs;
      if (cap != nullptr && cap->sig_msgs.size() < 4096)
        cap->sig_msgs.push_back(m);
    });
  }
}

std::uint64_t route_count(core::Testbed& tb) {
  std::uint64_t n = 0;
  for (atm::AtmSwitch* sw : switches(tb)) n = std::max<std::uint64_t>(n, sw->route_count());
  return n;
}

/// Closes timing blocks of `block` consecutive operations.
struct Blocks {
  int block = 1;
  int in_block = 0;
  std::int64_t last_ns = 0;
  std::vector<double>* out = nullptr;
  void start(std::int64_t t) { last_ns = t; in_block = 0; }
  void op_done(std::int64_t t) {
    if (++in_block < block) return;
    out->push_back(static_cast<double>(t - last_ns) * 1e-3 / block);
    last_ns = t;
    in_block = 0;
  }
};

}  // namespace

// ----------------------------------------------------------------- call_cycle

RoundResult run_call_cycle(const Ctx& ctx) {
  const Params& p = ctx.p;
  RoundResult rr;
  Counts& c = rr.counts;
  Digest dg;
  const int total = p.cycle_warmup + p.cycle_calls;

  // Seeded inputs: one think time per call.
  std::vector<std::int64_t> think(static_cast<std::size_t>(total));
  {
    Gen g(p.seed ^ 0x63796365ull);
    Digest in;
    for (auto& t : think) {
      t = g.exp_ns(p.cycle_think_mean_ms * 1e6);
      in.add(static_cast<std::uint64_t>(t));
    }
    rr.inputs_digest = in.value();
  }
  const util::Buffer payload(static_cast<std::size_t>(p.cycle_payload), 0x5A);

  struct State {
    int issued = 0, resolved = 0, ok = 0, failed = 0;
    std::int64_t window_start = 0, window_end = 0;
  } st;
  Blocks blocks{p.cycle_block, 0, 0, &rr.block_us};
  std::function<void(std::size_t)> issue;

  const std::int64_t t0 = now_ns();
  core::TestbedConfig cfg;
  // Room for every transient per-call connection, and a short MSL so
  // TIME_WAIT does not exhaust the table: with the paper's 20 descriptors
  // and 30 s MSL the loop would measure §10's refusals, not the stack.
  cfg.kernel.fd_table_size = 1024;
  cfg.kernel.tcp_msl = sim::milliseconds(200);
  std::unique_ptr<core::Testbed> tb;
  {
    Tracer::Scope s(&ctx.tracer, "core.build", 0);
    tb = cfg.routers(2).build_deferred();
  }
  const std::int64_t t1 = now_ns();
  {
    Tracer::Scope s(&ctx.tracer, "core.bring_up", 0);
    if (!tb->bring_up()) rr.errors.push_back("bring_up failed");
  }
  const std::int64_t t2 = now_ns();
  rr.build_s = secs(t0, t1);
  rr.bring_up_s = secs(t1, t2);
  hook_sighosts(*tb, ctx, c);
  Slicer drv(*tb, ctx, c, sim::milliseconds(100));

  core::Router& r0 = tb->router(0);
  core::Router& r1 = tb->router(1);
  core::CallServer server(*r1.kernel, r1.kernel->ip_node().address(), "cycle",
                          5100);
  bool registered = false;
  server.start([&](util::Result<void> r) { registered = r.ok(); });
  std::vector<std::unique_ptr<core::CallClient>> clients;
  for (int i = 0; i < p.cycle_callers; ++i)
    clients.push_back(std::make_unique<core::CallClient>(
        *r0.kernel, r0.kernel->ip_node().address()));
  if (!drv.run([&] { return registered; }, sim::seconds(5)))
    rr.errors.push_back("server registration did not complete");
  const std::string dst = r1.kernel->atm_address().name;

  issue = [&](std::size_t caller) {
    if (st.issued >= total) return;
    const int k = st.issued++;
    const sim::SimTime at = tb->sim().now();
    core::CallClient& cl = *clients[caller];
    Tracer::Scope s(&ctx.tracer, "userlib.open", static_cast<std::uint64_t>(k));
    cl.open(dst, "cycle", "", [&, caller, k, at](util::Result<core::CallClient::Call> r) {
      core::CallClient& me = *clients[caller];
      if (!r) {
        ++st.failed;
        dg.add(0xFA11ull);
      } else {
        dg.add(static_cast<std::uint64_t>((tb->sim().now() - at).ns()));
        {
          Tracer::Scope s2(&ctx.tracer, "kern.send", static_cast<std::uint64_t>(k));
          if (!me.send(*r, payload)) ++st.failed;
        }
        {
          Tracer::Scope s2(&ctx.tracer, "kern.close_call", static_cast<std::uint64_t>(k));
          me.close_call(*r);
        }
        ++st.ok;
      }
      const int done = ++st.resolved;
      const std::int64_t t = now_ns();
      if (done == p.cycle_warmup) {
        st.window_start = t;
        blocks.start(t);
      } else if (done > p.cycle_warmup) {
        blocks.op_done(t);
        if (done == total) st.window_end = t;
      }
      if (st.issued < total)
        tb->sim().schedule(sim::nanoseconds(think[static_cast<std::size_t>(k)]),
                           [&, caller] { issue(caller); });
    });
  };

  for (std::size_t i = 0; i < clients.size(); ++i)
    tb->sim().schedule(sim::SimDuration{}, [&, i] { issue(i); });
  if (!drv.run([&] { return st.resolved >= total; },
               sim::seconds(static_cast<std::int64_t>(total) * 10)))
    rr.errors.push_back("call_cycle: not every call resolved");
  for (sig::Sighost* sh : sighosts(*tb)) c.vci_mappings_end += sh->vci_mapping_size();
  c.switch_routes = route_count(*tb);

  // Drain: teardown, TIME_WAIT and every watchdog run out.
  drv.run_for(sim::seconds(40));
  rr.round_s = secs(t0, now_ns());

  c.ops_total = static_cast<std::uint64_t>(total);
  c.calls = static_cast<std::uint64_t>(total);
  c.frames = static_cast<std::uint64_t>(st.ok);
  collect(*tb, c);
  digest_counts(*tb, c, dg);
  dg.add(server.calls_accepted());
  dg.add(server.frames_received());
  dg.add(server.bytes_received());

  rr.attempted = static_cast<std::uint64_t>(p.cycle_calls);
  rr.failed = static_cast<std::uint64_t>(st.failed);
  rr.ops = static_cast<std::uint64_t>(std::max(0, st.resolved - p.cycle_warmup));
  rr.setup_s = secs(t0, st.window_start);
  rr.window_s = secs(st.window_start, st.window_end);
  if (st.ok != total)
    rr.errors.push_back("call_cycle: " + std::to_string(total - st.ok) +
                        " calls failed");
  if (server.calls_accepted() != static_cast<std::uint64_t>(total))
    rr.errors.push_back("call_cycle: server accepted " +
                        std::to_string(server.calls_accepted()) + " of " +
                        std::to_string(total));
  if (server.frames_received() != static_cast<std::uint64_t>(total) ||
      server.bytes_received() !=
          static_cast<std::uint64_t>(total) * payload.size())
    rr.errors.push_back("call_cycle: server received " +
                        std::to_string(server.frames_received()) + " frames / " +
                        std::to_string(server.bytes_received()) + " bytes");
  if (const core::LeakReport leak = tb->audit(); !leak.clean())
    rr.errors.push_back("call_cycle: audit not clean after drain: " +
                        leak.describe());
  rr.digest = dg.value();
  return rr;
}

// ----------------------------------------------------------------- call_storm

RoundResult run_call_storm(const Ctx& ctx) {
  const Params& p = ctx.p;
  RoundResult rr;
  Counts& c = rr.counts;
  Digest dg;
  const int total = p.storm_warmup + p.storm_calls;

  // Seeded inputs: Poisson arrivals, one gap before each call.
  std::vector<std::int64_t> gap(static_cast<std::size_t>(total));
  {
    Gen g(p.seed ^ 0x73746f726dull);
    Digest in;
    for (auto& t : gap) {
      t = g.exp_ns(p.storm_gap_mean_us * 1e3);
      in.add(static_cast<std::uint64_t>(t));
    }
    rr.inputs_digest = in.value();
  }

  struct State {
    int resolved = 0, ok = 0, failed = 0;
    std::int64_t window_start = 0, window_end = 0;
  } st;
  Blocks blocks{p.storm_block, 0, 0, &rr.block_us};
  std::function<void(std::size_t)> issue;

  const std::int64_t t0 = now_ns();
  core::TestbedConfig cfg;
  // Every call is held open, so the descriptor tables hold them all; the
  // paper's per-call IPC and logging costs are zeroed (as in the call-load
  // extension bench) so the storm measures the control-plane data
  // structures; request lists are sized for occupancy, not shedding.
  cfg.kernel.fd_table_size = static_cast<std::size_t>(total) * 2 + 2048;
  cfg.kernel.tcp_msl = sim::milliseconds(200);
  cfg.kernel.context_switch = sim::microseconds(10);
  cfg.kernel.anand_buffers = 65536;
  cfg.sighost.per_call_log_cost = sim::SimDuration{};
  cfg.sighost.maintenance_logging = false;
  cfg.sighost.max_outgoing_requests = 1u << 16;
  cfg.sighost.max_incoming_requests = 1u << 16;
  std::unique_ptr<core::Testbed> tb;
  {
    Tracer::Scope s(&ctx.tracer, "core.build", 0);
    tb = cfg.routers(2).build_deferred();
  }
  const std::int64_t t1 = now_ns();
  {
    Tracer::Scope s(&ctx.tracer, "core.bring_up", 0);
    if (!tb->bring_up()) rr.errors.push_back("bring_up failed");
  }
  const std::int64_t t2 = now_ns();
  rr.build_s = secs(t0, t1);
  rr.bring_up_s = secs(t1, t2);
  hook_sighosts(*tb, ctx, c);
  Slicer drv(*tb, ctx, c, sim::milliseconds(1));

  core::Router& r0 = tb->router(0);
  core::Router& r1 = tb->router(1);
  core::CallServer server(*r1.kernel, r1.kernel->ip_node().address(), "storm",
                          5200);
  bool registered = false;
  server.start([&](util::Result<void> r) { registered = r.ok(); });
  core::CallClient client(*r0.kernel, r0.kernel->ip_node().address());
  if (!drv.run([&] { return registered; }, sim::seconds(5)))
    rr.errors.push_back("server registration did not complete");
  const std::string dst = r1.kernel->atm_address().name;

  app::OpenOptions opts;
  opts.deadline = sim::seconds(60);
  opts.retry_backoff = sim::milliseconds(10);
  opts.retry_backoff_max = sim::milliseconds(200);

  issue = [&](std::size_t k) {
    const sim::SimTime at = tb->sim().now();
    {
      Tracer::Scope s(&ctx.tracer, "userlib.open", k);
      client.open(dst, "storm", "", opts,
                  [&, k, at](util::Result<core::CallClient::Call> r) {
                    if (!r) {
                      ++st.failed;
                      dg.add(0xFA11ull);
                    } else {
                      ++st.ok;
                      dg.add(k);
                      dg.add(static_cast<std::uint64_t>((tb->sim().now() - at).ns()));
                    }
                    const int done = ++st.resolved;
                    const std::int64_t t = now_ns();
                    if (done == p.storm_warmup) {
                      st.window_start = t;
                      blocks.start(t);
                    } else if (done > p.storm_warmup) {
                      blocks.op_done(t);
                      if (done == total) st.window_end = t;
                    }
                  });
    }
    if (k + 1 < gap.size())
      tb->sim().schedule(sim::nanoseconds(gap[k + 1]), [&, k] { issue(k + 1); });
  };
  tb->sim().schedule(sim::nanoseconds(gap[0]), [&] { issue(0); });
  if (!drv.run([&] { return st.resolved >= total; }, sim::seconds(300)))
    rr.errors.push_back("call_storm: not every call resolved");
  rr.round_s = secs(t0, now_ns());

  c.ops_total = static_cast<std::uint64_t>(total);
  c.calls = static_cast<std::uint64_t>(total);
  for (sig::Sighost* sh : sighosts(*tb)) c.vci_mappings_end += sh->vci_mapping_size();
  c.switch_routes = route_count(*tb);
  collect(*tb, c);
  digest_counts(*tb, c, dg);
  dg.add(server.calls_accepted());
  dg.add(server.open_sockets());

  rr.attempted = static_cast<std::uint64_t>(p.storm_calls);
  rr.failed = static_cast<std::uint64_t>(st.failed);
  rr.ops = static_cast<std::uint64_t>(std::max(0, st.resolved - p.storm_warmup));
  rr.setup_s = secs(t0, st.window_start);
  rr.window_s = secs(st.window_start, st.window_end);
  if (st.ok != total)
    rr.errors.push_back("call_storm: " + std::to_string(total - st.ok) +
                        " calls failed");
  if (server.calls_accepted() != static_cast<std::uint64_t>(total) ||
      server.open_sockets() != static_cast<std::size_t>(total))
    rr.errors.push_back("call_storm: server holds " +
                        std::to_string(server.open_sockets()) + " calls of " +
                        std::to_string(total));
  rr.digest = dg.value();
  return rr;
}

// --------------------------------------------------------------- frame_stream

RoundResult run_frame_stream(const Ctx& ctx) {
  const Params& p = ctx.p;
  RoundResult rr;
  Counts& c = rr.counts;
  Digest dg;
  const int bursts = p.fs_warmup_bursts + p.fs_bursts;
  const std::size_t per_burst =
      static_cast<std::size_t>(p.fs_small_per_burst + p.fs_large_per_burst);
  const std::size_t total_frames = static_cast<std::size_t>(bursts) * per_burst;

  // Seeded inputs: pools of random payloads and, per frame, which pool
  // entry it carries.  Generated before the clock starts.
  constexpr std::size_t kPool = 16;
  std::vector<util::Buffer> small_pool(kPool), large_pool(kPool);
  std::vector<std::uint8_t> pick(total_frames);
  {
    Gen g(p.seed ^ 0x6672616d65ull);
    Digest in;
    auto fill = [&](util::Buffer& b, std::size_t n) {
      b.resize(n);
      for (auto& byte : b) {
        byte = static_cast<std::uint8_t>(g.next() >> 56);
        in.add(byte);
      }
    };
    for (auto& b : small_pool) fill(b, static_cast<std::size_t>(p.fs_small_bytes));
    for (auto& b : large_pool) fill(b, static_cast<std::size_t>(p.fs_large_bytes));
    for (auto& x : pick) {
      x = static_cast<std::uint8_t>(g.below(kPool));
      in.add(x);
    }
    rr.inputs_digest = in.value();
  }
  if (ctx.capture != nullptr) {
    ctx.capture->small_payloads = small_pool;
    ctx.capture->large_payloads = large_pool;
  }
  // Frame i of a burst: the first fs_small_per_burst are small.
  auto is_large = [&](std::size_t seq) {
    return seq % per_burst >= static_cast<std::size_t>(p.fs_small_per_burst);
  };
  auto frame_payload = [&](std::size_t seq) -> const util::Buffer& {
    return is_large(seq) ? large_pool[pick[seq]] : small_pool[pick[seq]];
  };

  const std::int64_t t0 = now_ns();
  core::TestbedConfig cfg;
  std::unique_ptr<core::Testbed> tb;
  {
    Tracer::Scope s(&ctx.tracer, "core.build", 0);
    tb = cfg.routers(2).hosts(2).build_deferred();
  }
  const std::int64_t t1 = now_ns();
  {
    Tracer::Scope s(&ctx.tracer, "core.bring_up", 0);
    if (!tb->bring_up()) rr.errors.push_back("bring_up failed");
  }
  const std::int64_t t2 = now_ns();
  rr.build_s = secs(t0, t1);
  rr.bring_up_s = secs(t1, t2);
  hook_sighosts(*tb, ctx, c);
  Slicer drv(*tb, ctx, c, sim::milliseconds(10));

  core::Host& h0 = tb->host(0);  // homed on router 0
  core::Host& h1 = tb->host(1);  // homed on router 1
  kern::Kernel& k1 = *h1.kernel;

  struct State {
    bool registered = false;
    int sink_fd = -1;
    std::optional<core::CallClient::Call> call;
    std::size_t next_send = 0;  ///< frame sequence numbers
    std::size_t next_recv = 0;
    int inflight = 0;
    std::size_t phase_end = 0;  ///< first frame of the next phase
    std::int64_t phase_start_ns = 0, burst_start_ns = 0;
    std::int64_t window_start = 0, window_end = 0;
    std::uint64_t bad = 0, send_errors = 0;
    std::uint64_t instr_send0 = 0, instr_recv0 = 0;
    int bursts_done = 0;
  } st;

  // The receiving application on host 1, written against UserLib and the
  // kern syscalls directly so it can check every frame byte for byte.
  const kern::Pid sink_pid = k1.spawn("frame_sink");
  app::UserLib sink_lib(k1, sink_pid, h1.home->kernel->ip_node().address());
  core::CallClient client(*h0.kernel, h0.home->kernel->ip_node().address());

  std::function<void()> pump;
  std::function<void()> start_phase;
  auto on_frame = [&](util::BytesView data) {
    const std::size_t seq = st.next_recv++;
    --st.inflight;
    const util::Buffer& want = frame_payload(seq);
    if (data.size() != want.size() ||
        std::memcmp(data.data(), want.data(), want.size()) != 0)
      ++st.bad;
    dg.add(pick[seq]);  // which seeded pattern arrived, and when
    dg.add(static_cast<std::uint64_t>(tb->sim().now().ns()));
    if (st.next_recv == st.phase_end) {
      const std::int64_t t = now_ns();
      const bool measured = static_cast<int>(seq / per_burst) >= p.fs_warmup_bursts;
      const bool large = is_large(seq);
      const std::uint64_t ds = h0.kernel->instr().path_total(kern::InstrDir::send) - st.instr_send0;
      const std::uint64_t dr = k1.instr().path_total(kern::InstrDir::receive) - st.instr_recv0;
      if (large) {
        c.instr_send_large += ds;
        c.instr_recv_large += dr;
      } else {
        c.instr_send_small += ds;
        c.instr_recv_small += dr;
      }
      if (measured) {
        const std::size_t n = large ? static_cast<std::size_t>(p.fs_large_per_burst)
                                    : static_cast<std::size_t>(p.fs_small_per_burst);
        if (large) {
          rr.large_s += secs(st.phase_start_ns, t);
          rr.large_frames += n;
          rr.large_bytes += n * static_cast<std::size_t>(p.fs_large_bytes);
        } else {
          rr.small_s += secs(st.phase_start_ns, t);
          rr.small_frames += n;
        }
      }
      if (large) {  // burst complete
        const int b = ++st.bursts_done;
        if (b == p.fs_warmup_bursts) {
          st.window_start = t;
        } else if (b > p.fs_warmup_bursts) {
          rr.block_us.push_back(static_cast<double>(t - st.burst_start_ns) * 1e-3);
          if (b == bursts) st.window_end = t;
        }
        st.burst_start_ns = t;
      }
      if (st.next_recv < total_frames) start_phase();
      return;
    }
    pump();
  };
  start_phase = [&] {
    st.phase_end = st.next_send + (is_large(st.next_send)
                                       ? static_cast<std::size_t>(p.fs_large_per_burst)
                                       : static_cast<std::size_t>(p.fs_small_per_burst));
    st.instr_send0 = h0.kernel->instr().path_total(kern::InstrDir::send);
    st.instr_recv0 = k1.instr().path_total(kern::InstrDir::receive);
    st.phase_start_ns = now_ns();
    pump();
  };
  // A closed window: at most fs_window frames in flight, refilled on each
  // delivery, never across a phase boundary.
  pump = [&] {
    while (st.inflight < p.fs_window && st.next_send < st.phase_end) {
      const std::size_t seq = st.next_send++;
      ++st.inflight;
      Tracer::Scope s(&ctx.tracer, "kern.send", seq);
      if (!client.send(*st.call, frame_payload(seq))) ++st.send_errors;
    }
  };

  sink_lib.export_service("frames", 5300, [&](util::Result<void> r) {
    st.registered = r.ok();
    sink_lib.await_service_request([&](util::Result<app::IncomingRequest> req) {
      if (!req) return;
      sink_lib.accept_connection(*req, req->qos, [&](util::Result<app::OpenResult> o) {
        if (!o) return;
        auto fd = sink_lib.bind_data_socket(*o);
        if (!fd) return;
        st.sink_fd = *fd;
        (void)k1.xunet_on_receive(sink_pid, *fd, on_frame);
      });
    });
  });
  if (!drv.run([&] { return st.registered; }, sim::seconds(5)))
    rr.errors.push_back("sink registration did not complete");
  {
    Tracer::Scope s(&ctx.tracer, "userlib.open", 0);
    client.open(tb->router(1).kernel->atm_address().name, "frames",
                "class=guaranteed,bw=10000000",
                [&](util::Result<core::CallClient::Call> r) {
                  if (r) st.call = *r;
                });
  }
  if (!drv.run([&] { return st.call.has_value() && st.sink_fd >= 0; },
               sim::seconds(10)))
    rr.errors.push_back("frame_stream: call setup failed");
  drv.run_for(sim::milliseconds(100));

  if (rr.errors.empty()) {
    tb->sim().schedule(sim::SimDuration{}, [&] {
      st.burst_start_ns = now_ns();
      start_phase();
    });
    if (!drv.run([&] { return st.next_recv >= total_frames; },
                 sim::seconds(3600)))
      rr.errors.push_back("frame_stream: " +
                          std::to_string(total_frames - st.next_recv) +
                          " frames never arrived");
  }
  rr.round_s = secs(t0, now_ns());

  const std::uint64_t measured_frames =
      static_cast<std::uint64_t>(p.fs_bursts) * per_burst;
  c.ops_total = total_frames;
  c.calls = 1;
  c.frames = st.next_send;
  c.small_frames = static_cast<std::uint64_t>(bursts) * static_cast<std::uint64_t>(p.fs_small_per_burst);
  c.large_frames = static_cast<std::uint64_t>(bursts) * static_cast<std::uint64_t>(p.fs_large_per_burst);
  for (sig::Sighost* sh : sighosts(*tb)) c.vci_mappings_end += sh->vci_mapping_size();
  c.switch_routes = route_count(*tb);
  collect(*tb, c);
  digest_counts(*tb, c, dg);

  rr.attempted = measured_frames;
  const std::uint64_t missing = total_frames - st.next_recv;
  rr.failed = std::min<std::uint64_t>(measured_frames, st.bad + missing + st.send_errors);
  rr.ops = static_cast<std::uint64_t>(std::max(0, st.bursts_done - p.fs_warmup_bursts));
  rr.setup_s = secs(t0, st.window_start);
  rr.window_s = secs(st.window_start, st.window_end);
  if (st.bad != 0)
    rr.errors.push_back("frame_stream: " + std::to_string(st.bad) +
                        " frames not byte-equal to their seeded pattern");
  if (st.send_errors != 0)
    rr.errors.push_back("frame_stream: " + std::to_string(st.send_errors) +
                        " sends refused");
  rr.digest = dg.value();
  return rr;
}

}  // namespace perfbench
