// main.cpp — one workload, one seed, one process.
//
//   xunet_perfbench --workload call_cycle|call_storm|frame_stream
//                   --seed N [--seconds S | --rounds R] [--trace 0|1]
//                   [--small] [--spans-out FILE]
//
// Runs rounds of the workload (fresh testbed, same seeded inputs) until the
// measured windows add up to --seconds, or exactly --rounds rounds, checks
// every round, and prints human-readable lines followed by one JSON object
// with the raw results (perfbench/run.py turns it into the benchmark's
// result line).  With --trace 1 it also records spans, runs the layer
// probes and reports the per-layer metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "kern/config.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string hex64(std::uint64_t v) {
  char b[19];
  std::snprintf(b, sizeof b, "0x%016llx", static_cast<unsigned long long>(v));
  return b;
}

// ------------------------------------------------------------------ Tracer

std::size_t Tracer::begin(const char* name, std::uint64_t op) {
  const std::int64_t parent =
      stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  spans_.push_back(Span{name, now_ns(), 0, 0, parent, op});
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t idx) {
  Span& s = spans_[idx];
  s.end_ns = now_ns();
  stack_.pop_back();
  if (s.parent >= 0)
    spans_[static_cast<std::size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
}

std::map<std::string, Tracer::Agg> Tracer::aggregate() const {
  std::map<std::string, Agg> out;
  for (const Span& s : spans_) {
    Agg& a = out[s.name];
    ++a.count;
    a.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    a.self_s += static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-9;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"op\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------------ Params

void Params::make_small() {
  cycle_calls = 160;
  cycle_warmup = 8;
  cycle_block = 16;
  storm_calls = 200;
  storm_warmup = 8;
  storm_block = 16;
  fs_bursts = 6;
  fs_warmup_bursts = 1;
  fs_small_per_burst = 32;
  fs_large_per_burst = 2;
}

void Params::print(std::FILE* out) const {
  std::fprintf(out, "params: workload=%s seed=%llu seconds=%g trace=%d rounds=%d\n",
               workload.c_str(), static_cast<unsigned long long>(seed), seconds,
               trace ? 1 : 0, rounds);
  if (workload == "call_cycle")
    std::fprintf(out,
                 "params: callers=%d calls/round=%d warmup=%d block=%d "
                 "think_mean_ms=%g payload_B=%d\n",
                 cycle_callers, cycle_calls, cycle_warmup, cycle_block,
                 cycle_think_mean_ms, cycle_payload);
  else if (workload == "call_storm")
    std::fprintf(out,
                 "params: calls/round=%d warmup=%d block=%d gap_mean_us=%g "
                 "(Poisson, calls held open)\n",
                 storm_calls, storm_warmup, storm_block, storm_gap_mean_us);
  else
    std::fprintf(out,
                 "params: bursts/round=%d warmup_bursts=%d burst=%d x %d B "
                 "then %d x %d B window=%d\n",
                 fs_bursts, fs_warmup_bursts, fs_small_per_burst,
                 fs_small_bytes, fs_large_per_burst, fs_large_bytes, fs_window);
}

namespace {

// ------------------------------------------------------------------ stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

// ------------------------------------------------------------------ JSON

class Json {
 public:
  void key(const std::string& k) {
    sep();
    s_ += "\"" + k + "\":";
  }
  void num(const std::string& k, double v) {
    key(k);
    char b[40];
    std::snprintf(b, sizeof b, "%.17g", v);
    s_ += b;
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    s_ += "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') s_ += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) s_ += ch;
    }
    s_ += "\"";
  }
  void open(const std::string& k) {
    key(k);
    s_ += "{";
    first_ = true;
  }
  void open_array(const std::string& k) {
    key(k);
    s_ += "[";
    first_ = true;
  }
  void item(const std::string& v) {
    sep();
    s_ += "\"" + v + "\"";
  }
  void close(char c) {
    s_ += c;
    first_ = false;
  }
  [[nodiscard]] std::string done() const { return "{" + s_ + "}"; }

 private:
  void sep() {
    if (!first_) s_ += ",";
    first_ = false;
  }
  std::string s_;
  bool first_ = true;
};

/// A timed run measures at least this many rounds, so setup_s is a median.
constexpr int kMinRounds = 3;

int usage() {
  std::fprintf(stderr,
               "usage: xunet_perfbench --workload call_cycle|call_storm|"
               "frame_stream --seed N [--seconds S] [--rounds R] "
               "[--trace 0|1] [--small] [--spans-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "xunet_perfbench: built without optimisation; refusing to "
               "report wall-clock numbers (configure with "
               "-DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  Params p;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") p.workload = val();
    else if (a == "--seed") p.seed = std::strtoull(val(), nullptr, 10);
    else if (a == "--seconds") p.seconds = std::strtod(val(), nullptr);
    else if (a == "--rounds") p.rounds = std::atoi(val());
    else if (a == "--trace") p.trace = std::atoi(val()) != 0;
    else if (a == "--spans-out") p.spans_out = val();
    else if (a == "--small") p.make_small();
    else return usage();
  }
  RoundResult (*run)(const Ctx&) = nullptr;
  if (p.workload == "call_cycle") run = run_call_cycle;
  else if (p.workload == "call_storm") run = run_call_storm;
  else if (p.workload == "frame_stream") run = run_frame_stream;
  else return usage();

  std::printf("build: compiler=\"%s\" build_type=%s optimised=yes\n", __VERSION__,
              PERFBENCH_BUILD_TYPE);
  p.print(stdout);

  Tracer tracer(p.trace);
  Captured cap;
  std::vector<RoundResult> rounds;
  double window_total = 0.0;
  const std::int64_t start = now_ns();
  for (int r = 0;; ++r) {
    if (p.rounds > 0) {
      if (r >= p.rounds) break;
    } else if (r >= kMinRounds &&
               (window_total >= p.seconds ||
                static_cast<double>(now_ns() - start) * 1e-9 > 120.0)) {
      break;
    }
    Tracer::Scope s(&tracer, "round", static_cast<std::uint64_t>(r));
    const Ctx ctx{p, tracer, (p.trace && r == 0) ? &cap : nullptr};
    rounds.push_back(run(ctx));
    window_total += rounds.back().window_s;
    const RoundResult& rr = rounds.back();
    std::printf("round %d: setup %.4f s, window %.4f s, %llu ops, digest %s%s\n",
                r, rr.setup_s, rr.window_s,
                static_cast<unsigned long long>(rr.ops), hex64(rr.digest).c_str(),
                rr.errors.empty() ? "" : "  CHECK FAILED");
    for (const std::string& e : rr.errors) std::printf("  error: %s\n", e.c_str());
    if (!rr.errors.empty()) break;
  }

  // ---- aggregate over rounds
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0, ops = 0;
  std::vector<double> setup, windows, blocks, build, bring_up;
  double small_s = 0, large_s = 0;
  std::uint64_t small_frames = 0, large_bytes = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& rr = rounds[i];
    for (const std::string& e : rr.errors) errors.push_back("round " + std::to_string(i) + ": " + e);
    if (rr.digest != rounds.front().digest)
      errors.push_back("round " + std::to_string(i) + " digest " + hex64(rr.digest) +
                       " differs from round 0 (" + hex64(rounds.front().digest) +
                       "): same inputs, different simulated outcome");
    attempted += rr.attempted;
    failed += rr.failed;
    ops += rr.ops;
    setup.push_back(rr.setup_s);
    windows.push_back(rr.window_s);
    build.push_back(rr.build_s);
    bring_up.push_back(rr.bring_up_s);
    blocks.insert(blocks.end(), rr.block_us.begin(), rr.block_us.end());
    small_s += rr.small_s;
    large_s += rr.large_s;
    small_frames += rr.small_frames;
    large_bytes += rr.large_bytes;
  }
  const RoundResult& r0 = rounds.front();
  const Counts& c = r0.counts;

  // Table 1: per-frame host instruction counts (frame_stream's host path),
  // the paper's fits for a frame of m mbufs: send 119 + 8m, receive 194 + 8m.
  if (p.workload == "frame_stream" && errors.empty()) {
    constexpr std::uint64_t kSendBase = 119, kRecvBase = 194, kPerMbuf = 8;
    const std::uint64_t mb = xunet::kern::KernelConfig{}.mbuf_bytes;
    auto m = [&](int bytes) { return (static_cast<std::uint64_t>(bytes) + mb - 1) / mb; };
    const std::uint64_t ws = kSendBase + kPerMbuf * m(p.fs_small_bytes);
    const std::uint64_t wr = kRecvBase + kPerMbuf * m(p.fs_small_bytes);
    const std::uint64_t wls = kSendBase + kPerMbuf * m(p.fs_large_bytes);
    const std::uint64_t wlr = kRecvBase + kPerMbuf * m(p.fs_large_bytes);
    if (c.instr_send_small != ws * c.small_frames || c.instr_recv_small != wr * c.small_frames ||
        c.instr_send_large != wls * c.large_frames || c.instr_recv_large != wlr * c.large_frames)
      errors.push_back("Table 1 instruction counts differ: send/recv per frame " +
                       std::to_string(ratio(c.instr_send_small, c.small_frames)) + "/" +
                       std::to_string(ratio(c.instr_recv_small, c.small_frames)) + " (small, want " +
                       std::to_string(ws) + "/" + std::to_string(wr) + "), " +
                       std::to_string(ratio(c.instr_send_large, c.large_frames)) + "/" +
                       std::to_string(ratio(c.instr_recv_large, c.large_frames)) + " (large, want " +
                       std::to_string(wls) + "/" + std::to_string(wlr) + ")");
  }

  // A timed run must put at least ten blocks beyond p90.
  if (p.rounds == 0 && errors.empty() && blocks.size() < 100)
    errors.push_back("only " + std::to_string(blocks.size()) +
                     " timing blocks; p90 needs at least 100");

  const bool is_call = p.workload != "frame_stream";
  const double window_sum = [&] { double s = 0; for (double w : windows) s += w; return s; }();
  const double ops_per_s = window_sum > 0 ? static_cast<double>(ops) / window_sum : 0.0;
  const double p50 = quantile(blocks, 0.5), p90 = quantile(blocks, 0.9);
  const double rss = peak_rss_mb();

  std::printf("end-to-end (%zu rounds, %zu blocks):\n", rounds.size(), blocks.size());
  std::printf("  setup_s            %.6f s\n", median(setup));
  std::printf("  ops_per_s          %.3f %s/s\n", ops_per_s, is_call ? "calls" : "bursts");
  std::printf("  op_us_p50          %.3f us\n", p50);
  std::printf("  op_us_p90          %.3f us\n", p90);
  std::printf("  peak_rss_MB        %.3f MB\n", rss);
  if (is_call) {
    std::printf("  calls_per_s        %.3f calls/s\n", ops_per_s);
    std::printf("  call_us_p50        %.3f us\n", p50);
    std::printf("  call_us_p90        %.3f us  (%zu blocks)\n", p90, blocks.size());
  } else {
    std::printf("  small_frames_per_s %.1f frames/s\n",
                small_s > 0 ? static_cast<double>(small_frames) / small_s : 0.0);
    std::printf("  large_MB_per_s     %.3f MB/s\n",
                large_s > 0 ? static_cast<double>(large_bytes) / large_s / 1e6 : 0.0);
  }
  std::printf("  ops_failed_frac    %.6f ratio  (%llu failed of %llu attempted)\n",
              ratio(failed, attempted), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  Json j;
  j.str("workload", p.workload);
  j.num("seed", static_cast<double>(p.seed));
  j.num("rounds", static_cast<double>(rounds.size()));
  j.str("digest", hex64(r0.digest));
  j.str("inputs_digest", hex64(r0.inputs_digest));
  j.num("attempted", static_cast<double>(attempted));
  j.num("failed", static_cast<double>(failed));
  j.str("compiler", __VERSION__);
  j.str("build_type", PERFBENCH_BUILD_TYPE);
  j.num("window_s_median", median(windows));
  j.num("blocks", static_cast<double>(blocks.size()));
  j.open_array("errors");
  for (const std::string& e : errors) j.item(e);
  j.close(']');
  j.open("e2e");
  j.num("setup_s", median(setup));
  j.num("ops_per_s", ops_per_s);
  j.num("op_us_p50", p50);
  j.num("op_us_p90", p90);
  j.num("peak_rss_MB", rss);
  j.num("ops_failed_frac", ratio(failed, attempted));
  if (!is_call) {
    j.num("small_frames_per_s", small_s > 0 ? static_cast<double>(small_frames) / small_s : 0.0);
    j.num("large_MB_per_s", large_s > 0 ? static_cast<double>(large_bytes) / large_s / 1e6 : 0.0);
  }
  j.close('}');

  if (p.trace) {
    const ProbeResults pr = run_probes(p, cap, c.switch_routes, tracer);
    const std::map<std::string, Tracer::Agg> spans = tracer.aggregate();
    const auto span = [&spans](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? Tracer::Agg{} : it->second;
    };
    const Tracer::Agg run_until = span("sim.run_until");
    const Tracer::Agg open = span("userlib.open");
    const Tracer::Agg send = span("kern.send");
    const Tracer::Agg close = span("kern.close_call");
    double round_total = 0;
    for (const RoundResult& rr : rounds) round_total += rr.round_s;
    const auto per = [](const Tracer::Agg& a) {
      return a.count == 0 ? 0.0 : a.total_s * 1e6 / static_cast<double>(a.count);
    };
    const std::uint64_t events_all = [&] {
      std::uint64_t e = 0;
      for (const RoundResult& rr : rounds) e += rr.counts.events;
      return e;
    }();
    // What the probes can explain of the time inside run_until, per round.
    const double n_rounds = static_cast<double>(rounds.size());
    const double attributed_ns =
        n_rounds * (static_cast<double>(c.sighost_msgs) * pr.sig_codec_ns_per_msg +
                    static_cast<double>(c.tcp_segments) * pr.tcp_codec_ns_per_segment +
                    static_cast<double>(c.ip_packets) * pr.ip_codec_ns_per_packet +
                    static_cast<double>(c.small_frames) * pr.aal5_ns_per_frame_small +
                    static_cast<double>(c.large_frames) * pr.aal5_ns_per_frame_large +
                    (is_call ? static_cast<double>(c.frames) * pr.aal5_ns_per_frame_small : 0.0) +
                    static_cast<double>(c.switch_cells) * pr.switch_ns_per_cell);
    const double frames = static_cast<double>(c.frames);
    const double calls = static_cast<double>(c.calls);
    j.open("layer");
    j.num("sim.events_per_op", ratio(c.events, c.ops_total));
    j.num("sim.peak_pending", static_cast<double>(c.peak_pending));
    j.num("sim.ns_per_event", events_all == 0 ? 0.0 : run_until.total_s * 1e9 / static_cast<double>(events_all));
    j.num("sim.run_share", round_total > 0 ? run_until.total_s / round_total : 0.0);
    j.num("userlib.open_us", per(open));
    j.num("kern.send_us", per(send));
    j.num("kern.close_us", per(close));
    j.num("kern.anand_posted_per_call", ratio(c.anand_posted, c.calls));
    j.num("kern.anand_dropped", static_cast<double>(c.anand_dropped));
    j.num("kern.xunet_dropped", static_cast<double>(c.xunet_dropped));
    j.num("kern.ipatm_encap_per_frame", frames > 0 ? static_cast<double>(c.ipatm_encap) / frames : 0.0);
    j.num("kern.orc_discarded", static_cast<double>(c.orc_discarded));
    j.num("kern.instr_send_per_frame_small", ratio(c.instr_send_small, c.small_frames));
    j.num("kern.instr_recv_per_frame_small", ratio(c.instr_recv_small, c.small_frames));
    j.num("kern.instr_send_per_frame_large", ratio(c.instr_send_large, c.large_frames));
    j.num("kern.instr_recv_per_frame_large", ratio(c.instr_recv_large, c.large_frames));
    j.num("sighost.msgs_per_call", calls > 0 ? static_cast<double>(c.sighost_msgs) / calls : 0.0);
    j.num("sighost.retransmits", static_cast<double>(c.retransmits));
    j.num("sighost.sheds", static_cast<double>(c.sheds));
    j.num("sighost.request_timeouts", static_cast<double>(c.request_timeouts));
    j.num("sighost.vci_mappings_end", static_cast<double>(c.vci_mappings_end));
    j.num("sighost.wait_bind_peak", static_cast<double>(c.wait_bind_peak));
    j.num("signaling.codec_ns_per_msg", pr.sig_codec_ns_per_msg);
    j.num("tcp.segments_per_call", calls > 0 ? static_cast<double>(c.tcp_segments) / calls : 0.0);
    j.num("tcp.retransmits", static_cast<double>(c.tcp_retransmits));
    j.num("tcp.conns_peak", static_cast<double>(c.tcp_conns_peak));
    j.num("kern.time_wait_fds_peak", static_cast<double>(c.time_wait_fds_peak));
    j.num("tcpsim.codec_ns_per_segment", pr.tcp_codec_ns_per_segment);
    j.num("ip.fragments_per_frame", frames > 0 ? static_cast<double>(c.ip_fragments) / frames : 0.0);
    j.num("ip.forwarded_per_frame", frames > 0 ? static_cast<double>(c.ip_forwarded) / frames : 0.0);
    j.num("ip.codec_ns_per_packet", pr.ip_codec_ns_per_packet);
    j.num("atm.cells_per_frame", frames > 0 ? static_cast<double>(c.cells_sent) / frames : 0.0);
    j.num("atm.switch_cells", static_cast<double>(c.switch_cells));
    j.num("atm.switch_discards", static_cast<double>(c.switch_discards));
    j.num("atm.aal5_errors", static_cast<double>(c.aal5_errors));
    j.num("atm.vc_setups_per_call", calls > 0 ? static_cast<double>(c.vc_setups) / calls : 0.0);
    j.num("atm.vc_setups_denied", static_cast<double>(c.vc_setups_denied));
    j.num("atm.aal5_ns_per_frame_small", pr.aal5_ns_per_frame_small);
    j.num("atm.aal5_ns_per_frame_large", pr.aal5_ns_per_frame_large);
    j.num("atm.switch_ns_per_cell", pr.switch_ns_per_cell);
    j.num("util.crc32_ns_per_KB", pr.crc32_ns_per_KB);
    j.num("core.build_s", median(build));
    j.num("core.bring_up_s", median(bring_up));
    j.num("trace.unattributed_share",
          run_until.total_s > 0 ? 1.0 - attributed_ns * 1e-9 / run_until.total_s : 0.0);
    j.close('}');

    std::printf("traced run: self time by span (all rounds)\n");
    for (const auto& [name, a] : spans)
      std::printf("  %-24s count %10llu  total %10.6f s  self %10.6f s\n",
                  name.c_str(), static_cast<unsigned long long>(a.count),
                  a.total_s, a.self_s);
    if (!p.spans_out.empty() && !tracer.write_jsonl(p.spans_out))
      std::fprintf(stderr, "could not write spans to %s\n", p.spans_out.c_str());
  }

  std::printf("%s\n", j.done().c_str());
  return errors.empty() && failed == 0 ? 0 : 1;
}
