#!/usr/bin/env python3
"""Wall-clock benchmark of the xunet native-mode ATM reproduction.

    python3 perfbench/run.py --workload call_cycle --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the repository's src/ libraries) in
.bench_build/perfbench with optimisation, runs one workload in a child
process, checks the simulated outcome, and prints the results.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.
With --trace 1 a shorter untraced run and a traced run of the same seed
(separate processes) give the per-layer metrics; their digests must agree.
See perfbench/README.md for every metric, workload and check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "xunet_perfbench")
WORKLOADS = ("call_cycle", "call_storm", "frame_stream")
CHILD_TIMEOUT_S = 170

# End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_us_p50": "us",
    "op_us_p90": "us",
    "peak_rss_MB": "MB",
}

# Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "sim.events_per_op": "count",
    "sim.peak_pending": "count",
    "sim.ns_per_event": "ns",
    "sim.run_share": "ratio",
    "userlib.open_us": "us",
    "kern.send_us": "us",
    "kern.close_us": "us",
    "kern.anand_posted_per_call": "count",
    "kern.anand_dropped": "count",
    "kern.xunet_dropped": "count",
    "kern.ipatm_encap_per_frame": "count",
    "kern.orc_discarded": "count",
    "kern.instr_send_per_frame_small": "instr",
    "kern.instr_recv_per_frame_small": "instr",
    "kern.instr_send_per_frame_large": "instr",
    "kern.instr_recv_per_frame_large": "instr",
    "sighost.msgs_per_call": "count",
    "sighost.retransmits": "count",
    "sighost.sheds": "count",
    "sighost.request_timeouts": "count",
    "sighost.vci_mappings_end": "count",
    "sighost.wait_bind_peak": "count",
    "signaling.codec_ns_per_msg": "ns",
    "tcp.segments_per_call": "count",
    "tcp.retransmits": "count",
    "tcp.conns_peak": "count",
    "kern.time_wait_fds_peak": "count",
    "tcpsim.codec_ns_per_segment": "ns",
    "ip.fragments_per_frame": "count",
    "ip.forwarded_per_frame": "count",
    "ip.codec_ns_per_packet": "ns",
    "atm.cells_per_frame": "count",
    "atm.switch_cells": "count",
    "atm.switch_discards": "count",
    "atm.aal5_errors": "count",
    "atm.vc_setups_per_call": "count",
    "atm.vc_setups_denied": "count",
    "atm.aal5_ns_per_frame_small": "ns",
    "atm.aal5_ns_per_frame_large": "ns",
    "atm.switch_ns_per_cell": "ns",
    "util.crc32_ns_per_KB": "ns",
    "core.build_s": "s",
    "core.bring_up_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_share": "ratio",
}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the benchmark with optimisation."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree at %s: run from a full checkout" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "xunet_perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"cpu": cpu, "nproc": nproc, "git_commit": commit,
            "src_sha256": h.hexdigest()[:16]}


def run_child(args):
    """Run the benchmark binary; echo its report; return its JSON result."""
    try:
        r = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded %d s" % CHILD_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("workload run printed nothing (exit %d)" % r.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail("workload run did not end with a JSON result (exit %d)"
             % r.returncode)


def pinned_digest(workload, seed, small):
    """The recorded digest for this workload at the default seed, if any."""
    with open(os.path.join(BENCH_DIR, "digests.json")) as f:
        pins = json.load(f)
    if small or seed != pins["seed"]:
        return None
    return pins["digests"].get(workload)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="shrunken workloads for the benchmark's own tests")
    a = ap.parse_args()

    build()
    fp = fingerprint()
    print("host: cpu=\"%s\" nproc=%s git_commit=%s src_sha256=%s" % (
        fp["cpu"], fp["nproc"], fp["git_commit"], fp["src_sha256"]))

    base = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.small:
        base.append("--small")
    errors = []
    seconds = a.seconds / 2 if a.trace else a.seconds
    untraced = run_child(base + ["--seconds", "%g" % seconds, "--trace", "0"])
    errors += untraced["errors"]
    result = untraced
    if a.trace:
        spans = os.path.join(BUILD_DIR, "spans-%s-%d.jsonl" % (a.workload, a.seed))
        rounds = str(min(3, int(untraced["rounds"])))
        traced = run_child(base + ["--rounds", rounds, "--trace", "1",
                                   "--spans-out", spans])
        errors += traced["errors"]
        if traced["digest"] != untraced["digest"]:
            errors.append("traced digest %s != untraced digest %s"
                          % (traced["digest"], untraced["digest"]))
        traced["layer"]["trace.overhead_frac"] = (
            traced["window_s_median"] / untraced["window_s_median"] - 1.0)
        result = traced
        print("spans written to %s" % os.path.relpath(spans, ROOT))

    pin = pinned_digest(a.workload, a.seed, a.small)
    if pin is not None and pin != untraced["digest"]:
        errors.append("digest %s != recorded %s for seed %d"
                      % (untraced["digest"], pin, a.seed))
    print("checks: digest=%s inputs=%s pinned=%s traced_digest_match=%s" % (
        untraced["digest"], untraced["inputs_digest"],
        "n/a" if pin is None else ("ok" if pin == untraced["digest"] else "MISMATCH"),
        "n/a" if not a.trace else ("ok" if result["digest"] == untraced["digest"]
                                   else "MISMATCH")))
    for e in errors:
        print("CHECK FAILED: " + e)

    if a.trace:
        metrics = {k: {"value": result["layer"][k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": result["e2e"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    correct = not errors and result["failed"] == 0 and untraced["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
