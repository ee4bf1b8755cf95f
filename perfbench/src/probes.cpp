// probes.cpp — per-layer cost probes of the traced run.
//
// Each probe times one layer's core operation in isolation, at the sizes
// the run produced: the signaling codec over the messages sighost actually
// saw, the TCP and IP codecs over segments/packets carrying them (or the
// frame_stream payloads), AAL5 segmentation + reassembly of the seeded
// payloads, a standalone switch holding the run's route count, and CRC-32
// over the large payloads.  Multiplying each probe by the run's counts
// gives the share of run_until wall time the outside view can attribute.
#include <algorithm>

#include "atm/aal5.hpp"
#include "atm/link.hpp"
#include "atm/switch.hpp"
#include "harness.hpp"
#include "ip/link.hpp"
#include "ip/packet.hpp"
#include "sim/simulator.hpp"
#include "tcpsim/segment.hpp"
#include "util/crc32.hpp"

namespace perfbench {

using namespace xunet;

namespace {

/// Repeat `body` (which performs `units` operations) for at least 20 ms
/// of wall time; ns per operation.
template <typename F>
double ns_per_unit(std::size_t units, F&& body) {
  if (units == 0) return 0.0;
  const std::int64_t t0 = now_ns();
  std::int64_t t = t0;
  std::uint64_t reps = 0;
  while (reps < 3 || t - t0 < 20'000'000) {
    body();
    ++reps;
    t = now_ns();
  }
  return static_cast<double>(t - t0) / static_cast<double>(reps * units);
}

/// Keeps probe results observable so the optimizer cannot drop the work.
volatile std::uint64_t g_sink = 0;

std::vector<sig::Msg> probe_messages(const Captured& cap) {
  if (!cap.sig_msgs.empty()) return cap.sig_msgs;
  // A workload that saw no signaling still gets a representative message.
  sig::Msg m;
  m.type = sig::MsgType::connect_req;
  m.req_id = 7;
  m.dst = "berkeley.rt";
  m.service = "frames";
  m.qos = "class=guaranteed,bw=10000000";
  return {m};
}

}  // namespace

ProbeResults run_probes(const Params& p, const Captured& cap,
                        std::uint64_t switch_routes, Tracer& tracer) {
  ProbeResults r;
  const std::vector<sig::Msg> msgs = probe_messages(cap);

  {
    Tracer::Scope s(&tracer, "probe.signaling_codec", 0);
    r.sig_codec_ns_per_msg = ns_per_unit(msgs.size(), [&] {
      for (const sig::Msg& m : msgs) {
        const util::Buffer b = sig::serialize(m);
        g_sink = g_sink + (sig::parse_msg(b).ok() ? 1 : 0);
      }
    });
  }

  // TCP segments carrying the framed messages, as sighost sends them.
  std::vector<tcp::Segment> segs;
  for (const sig::Msg& m : msgs) {
    tcp::Segment sg;
    sg.src_port = 1024;
    sg.dst_port = 177;
    sg.seq = 1000;
    sg.ack = 2000;
    sg.flags.ack = true;
    sg.window = 8192;
    sg.payload = sig::frame(m);
    segs.push_back(std::move(sg));
  }
  {
    Tracer::Scope s(&tracer, "probe.tcp_codec", 0);
    r.tcp_codec_ns_per_segment = ns_per_unit(segs.size(), [&] {
      for (const tcp::Segment& sg : segs) {
        const util::Buffer b = tcp::serialize(sg);
        g_sink = g_sink + (tcp::parse_segment(b).ok() ? 1 : 0);
      }
    });
  }

  // IP packets at the run's sizes: TCP segments on the call workloads;
  // the encapsulated frames (≈20 B IPPROTO_ATM header, FDDI fragments for
  // the large ones) on frame_stream.
  std::vector<ip::IpPacket> pkts;
  auto add_pkt = [&](util::Buffer payload) {
    ip::IpPacket pk;
    pk.src = ip::make_ip(10, 0, 0, 2);
    pk.dst = ip::make_ip(10, 0, 0, 1);
    pk.protocol = ip::IpProto::atm;
    pk.payload = std::move(payload);
    pkts.push_back(std::move(pk));
  };
  if (p.workload == "frame_stream") {
    constexpr std::size_t kEncapHeader = 20;
    const std::size_t frag = (ip::kFddiMtu - ip::kIpHeaderBytes) / 8 * 8;
    for (int i = 0; i < p.fs_small_per_burst; ++i)
      add_pkt(util::Buffer(static_cast<std::size_t>(p.fs_small_bytes) + kEncapHeader, 0x11));
    for (int i = 0; i < p.fs_large_per_burst; ++i) {
      std::size_t left = static_cast<std::size_t>(p.fs_large_bytes) + kEncapHeader;
      while (left > 0) {
        const std::size_t n = std::min(left, frag);
        add_pkt(util::Buffer(n, 0x22));
        left -= n;
      }
    }
  } else {
    for (const tcp::Segment& sg : segs) add_pkt(tcp::serialize(sg));
  }
  {
    Tracer::Scope s(&tracer, "probe.ip_codec", 0);
    r.ip_codec_ns_per_packet = ns_per_unit(pkts.size(), [&] {
      for (const ip::IpPacket& pk : pkts) {
        const util::Buffer b = ip::serialize(pk);
        g_sink = g_sink + (ip::parse_ip_packet(b).ok() ? 1 : 0);
      }
    });
  }

  // AAL5 segmentation + reassembly of the seeded payloads, per phase.
  auto aal5 = [&](const std::vector<util::Buffer>& payloads, int size) {
    std::vector<util::Buffer> ps = payloads;
    if (ps.empty()) ps.emplace_back(static_cast<std::size_t>(size), 0x33);
    atm::Aal5Segmenter seg;
    std::uint64_t frames = 0;
    atm::Aal5Reassembler reasm([&frames](atm::Aal5Frame) { ++frames; });
    const double ns = ns_per_unit(ps.size(), [&] {
      for (const util::Buffer& b : ps) {
        auto cells = seg.segment(atm::kFirstSwitchedVci, b);
        if (!cells) continue;
        for (const atm::Cell& cell : *cells) reasm.cell_arrival(cell);
      }
    });
    g_sink = g_sink + frames;
    return ns;
  };
  {
    Tracer::Scope s(&tracer, "probe.aal5", 0);
    r.aal5_ns_per_frame_small = aal5(cap.small_payloads, p.fs_small_bytes);
    r.aal5_ns_per_frame_large = aal5(cap.large_payloads, p.fs_large_bytes);
  }

  // A standalone switch holding the run's route count: trains of cells
  // spread over every route, drained through one output link.
  {
    Tracer::Scope s(&tracer, "probe.switch", 0);
    struct CountSink : atm::CellSink {
      std::uint64_t n = 0;
      void cell_arrival(const atm::Cell&) override { ++n; }
      void cells_arrival(const atm::Cell*, std::size_t k) override { n += k; }
    } sink;
    sim::Simulator sm;
    atm::AtmSwitch sw(sm, "probe");
    const int in = sw.add_port();
    const int out = sw.add_port();
    atm::CellLink link(sm, atm::kOc12Bps, sim::SimDuration{}, sink);
    sw.set_output(out, link);
    const std::uint64_t routes = std::clamp<std::uint64_t>(switch_routes, 1, 60000);
    for (std::uint64_t i = 0; i < routes; ++i) {
      const auto vci = static_cast<atm::Vci>(atm::kFirstSwitchedVci + i);
      (void)sw.install_route(in, vci, out, vci, atm::Qos{});
    }
    constexpr std::size_t kTrain = 64, kTrains = 16;  // within one port queue
    std::vector<atm::Cell> train(kTrain);
    std::uint64_t next = 0;
    r.switch_ns_per_cell = ns_per_unit(kTrain * kTrains, [&] {
      for (std::size_t t = 0; t < kTrains; ++t) {
        const auto vci = static_cast<atm::Vci>(atm::kFirstSwitchedVci +
                                               (next++ * 7919) % routes);
        for (std::size_t i = 0; i < kTrain; ++i) {
          train[i].vci = vci;
          train[i].end_of_frame = i + 1 == kTrain;
        }
        sw.input(in).cells_arrival(train.data(), kTrain);
      }
      sm.run();
    });
    g_sink = g_sink + sink.n;
  }

  {
    Tracer::Scope s(&tracer, "probe.crc32", 0);
    std::vector<util::Buffer> ps = cap.large_payloads;
    if (ps.empty()) ps.emplace_back(static_cast<std::size_t>(p.fs_large_bytes), 0x44);
    const double ns_per_frame = ns_per_unit(ps.size(), [&] {
      for (const util::Buffer& b : ps) g_sink = g_sink + util::crc32(b);
    });
    r.crc32_ns_per_KB = ns_per_frame * 1024.0 / static_cast<double>(ps.front().size());
  }
  return r;
}

}  // namespace perfbench
