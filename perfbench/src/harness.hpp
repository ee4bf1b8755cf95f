// harness.hpp — shared pieces of the xunet wall-clock benchmark.
//
// The benchmark drives the reproduction through its public APIs only
// (core::Testbed, core::CallClient/CallServer, app::UserLib, the kern
// syscall surface and each layer's public counters).  Nothing here reaches
// into src/ internals: the seeded input generator, the digest of the
// simulated outcome, the span recorder of the traced run and the layer
// probes all live in this directory.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "signaling/messages.hpp"
#include "util/buffer.hpp"

namespace perfbench {

// ---------------------------------------------------------------- clocks

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------- seeded generator

/// splitmix64: a small, portable generator whose stream depends only on
/// the seed, so the same seed gives byte-identical inputs on every host.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Exponential with the given mean, in whole nanoseconds, at least 1.
  std::int64_t exp_ns(double mean_ns);

 private:
  std::uint64_t s_;
};

// ---------------------------------------------------------------- digest

/// Order-sensitive 64-bit fingerprint of a round's simulated outcome
/// (sim-time latencies, delivery times, counters).  One multiply per word,
/// so hashing every frame's delivery time stays off the wall-clock books.
class Digest {
 public:
  void add(std::uint64_t v) {
    h_ = (h_ ^ v) * 0x100000001B3ull;
    h_ ^= h_ >> 29;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------- tracer

/// In-memory span recorder for the traced run.  A span brackets one call
/// the benchmark makes into a layer; spans nest (a send made from inside a
/// run_until callback is a child of that run_until), and each span's self
/// time is its duration minus the time its children cover.  Off in the
/// untraced run, where every span() is one predictable branch.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool on() const noexcept { return on_; }

  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t op)
        : t_(t != nullptr && t->on_ ? t : nullptr) {
      if (t_ != nullptr) idx_ = t_->begin(name, op);
    }
    ~Scope() {
      if (t_ != nullptr) t_->end(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::size_t idx_ = 0;
  };

  /// Per span name: how many, total wall seconds, self wall seconds.
  struct Agg {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, Agg> aggregate() const;

  /// One JSON object per span: name, start/end ns (relative to the first
  /// span), parent index (-1 at top level), op id.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t child_ns;
    std::int64_t parent;
    std::uint64_t op;
  };
  std::size_t begin(const char* name, std::uint64_t op);
  void end(std::size_t idx);

  bool on_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// ------------------------------------------------------------ parameters

/// Every knob of one run; all of it is printed with the results.
struct Params {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int rounds = 0;  ///< fixed round count; 0 = run rounds until `seconds`
  std::string spans_out;

  // call_cycle
  int cycle_callers = 4;
  int cycle_calls = 6000;     ///< measured calls per round
  int cycle_warmup = 16;      ///< calls before the measured window (>= 1)
  int cycle_block = 64;       ///< calls per timing block
  double cycle_think_mean_ms = 50.0;
  int cycle_payload = 64;

  // call_storm
  int storm_calls = 3000;     ///< measured calls per round
  int storm_warmup = 16;      ///< (>= 1)
  int storm_block = 32;
  double storm_gap_mean_us = 100.0;

  // frame_stream
  int fs_bursts = 300;        ///< measured bursts per round
  int fs_warmup_bursts = 2;   ///< (>= 1)
  int fs_small_per_burst = 256;
  int fs_large_per_burst = 8;
  int fs_window = 8;
  int fs_small_bytes = 64;
  int fs_large_bytes = 9180;

  /// Shrink every workload for the benchmark's own smoke tests.
  void make_small();
  void print(std::FILE* out) const;
};

// --------------------------------------------------------------- results

/// Layer counts of one round, read from each layer's public counters at
/// the end of the round.  Peaks are sampled between run_until slices, in
/// the traced run only.
struct Counts {
  std::uint64_t ops_total = 0;   ///< warm-up + measured operations
  std::uint64_t calls = 0;       ///< calls opened (frame_stream: 1)
  std::uint64_t frames = 0;      ///< data frames sent
  std::uint64_t small_frames = 0, large_frames = 0;
  std::uint64_t events = 0;      ///< sum of run_until return values
  std::uint64_t peak_pending = 0;
  std::uint64_t anand_posted = 0, anand_dropped = 0;
  std::uint64_t xunet_dropped = 0;
  std::uint64_t ipatm_encap = 0;
  std::uint64_t orc_discarded = 0;
  std::uint64_t instr_send_small = 0, instr_recv_small = 0;
  std::uint64_t instr_send_large = 0, instr_recv_large = 0;
  std::uint64_t sighost_msgs = 0;  ///< traced run only (Sighost::set_trace)
  std::uint64_t retransmits = 0, sheds = 0, request_timeouts = 0;
  std::uint64_t vci_mappings_end = 0;
  std::uint64_t wait_bind_peak = 0;
  std::uint64_t tcp_segments = 0, tcp_retransmits = 0;
  std::uint64_t tcp_conns_peak = 0, time_wait_fds_peak = 0;
  std::uint64_t ip_fragments = 0, ip_forwarded = 0, ip_packets = 0;
  std::uint64_t cells_sent = 0, switch_cells = 0, switch_discards = 0;
  std::uint64_t aal5_errors = 0;
  std::uint64_t vc_setups = 0, vc_setups_denied = 0;
  std::uint64_t switch_routes = 0;  ///< per switch, at the end of the window
};

/// Samples the traced run keeps for the probes: real messages and sizes.
struct Captured {
  std::vector<xunet::sig::Msg> sig_msgs;  ///< signaling messages seen by sighost
  std::vector<xunet::util::Buffer> small_payloads, large_payloads;
};

struct RoundResult {
  std::uint64_t digest = 0;
  std::uint64_t inputs_digest = 0;  ///< fingerprint of the generated inputs
  std::uint64_t attempted = 0;  ///< measured operations issued
  std::uint64_t failed = 0;     ///< measured operations failed or refused
  std::vector<std::string> errors;  ///< correctness checks that failed
  double build_s = 0, bring_up_s = 0, setup_s = 0;
  double window_s = 0;          ///< wall time of the measured window
  double round_s = 0;           ///< wall time from build to the end of drain
  std::uint64_t ops = 0;        ///< measured operations completed
  std::vector<double> block_us; ///< wall µs per operation, per block
  // frame_stream phases
  double small_s = 0, large_s = 0;
  std::uint64_t small_frames = 0, large_frames = 0, large_bytes = 0;
  Counts counts;
};

struct Ctx {
  const Params& p;
  Tracer& tracer;
  Captured* capture;  ///< non-null in the traced run's first round
};

RoundResult run_call_cycle(const Ctx& ctx);
RoundResult run_call_storm(const Ctx& ctx);
RoundResult run_frame_stream(const Ctx& ctx);

/// Layer probes of the traced run: ns per unit of each layer's core
/// operation, at the run's sizes.
struct ProbeResults {
  double sig_codec_ns_per_msg = 0;
  double tcp_codec_ns_per_segment = 0;
  double ip_codec_ns_per_packet = 0;
  double aal5_ns_per_frame_small = 0;
  double aal5_ns_per_frame_large = 0;
  double switch_ns_per_cell = 0;
  double crc32_ns_per_KB = 0;
};
ProbeResults run_probes(const Params& p, const Captured& cap,
                        std::uint64_t switch_routes, Tracer& tracer);

}  // namespace perfbench
