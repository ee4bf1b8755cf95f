#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark if needed (through perfbench/run.py), then checks
determinism, seed sensitivity, the result-line format of every workload in
both modes, the recorded default-seed digests, and the refusal to run
without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

TESTS = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(TESTS)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "xunet_perfbench")
WORKLOADS = ("call_cycle", "call_storm", "frame_stream")


def run(workload, seed, trace, small=True):
    """Run run.py; return (exit code, stdout lines, parsed result line)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if small:
        cmd.append("--small")
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    return r.returncode, lines, json.loads(lines[-1])


def checks_line(lines):
    """The digest and inputs fingerprint from the 'checks:' report line."""
    line = next(l for l in lines if l.startswith("checks: "))
    fields = dict(kv.split("=", 1) for kv in line[len("checks: "):].split())
    return fields["digest"], fields["inputs"]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_same_seed_gives_identical_digest_and_counts(self):
        a_rc, a_lines, a = run("call_cycle", 5, 1)
        b_rc, b_lines, b = run("call_cycle", 5, 1)
        self.assertEqual((a_rc, b_rc), (0, 0))
        self.assertEqual(checks_line(a_lines), checks_line(b_lines))
        counts = [m["name"] for m in self.spec["per_layer"]
                  if m["unit"] in ("count", "instr")]
        self.assertTrue(counts)
        for name in counts:
            self.assertEqual(a["metrics"][name], b["metrics"][name], name)

    def test_different_seed_gives_different_inputs_and_passes(self):
        for workload in WORKLOADS:
            a_rc, a_lines, a = run(workload, 5, 0)
            b_rc, b_lines, b = run(workload, 6, 0)
            self.assertEqual((a_rc, b_rc), (0, 0), workload)
            self.assertTrue(a["correct"] and b["correct"], workload)
            (a_digest, a_inputs), (b_digest, b_inputs) = (
                checks_line(a_lines), checks_line(b_lines))
            self.assertNotEqual(a_inputs, b_inputs, workload)
            self.assertNotEqual(a_digest, b_digest, workload)

    def test_smoke_every_workload_prints_the_result_format(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                rc, lines, res = run(workload, 3, trace)
                self.assertEqual(rc, 0, lines[-20:])
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertIs(res["correct"], True)
                self.assertIsInstance(res["attempted"], int)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                want = {m["name"]: m["unit"] for m in self.spec[key]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want, (workload, trace))
                for name, m in res["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                if trace == 0:
                    for name, m in res["metrics"].items():
                        self.assertGreater(m["value"], 0, (workload, name))

    def test_default_seed_matches_recorded_digests(self):
        run("call_cycle", 1, 0)  # make sure the binary is built
        with open(os.path.join(BENCH, "digests.json")) as f:
            pins = json.load(f)
        for workload in WORKLOADS:
            r = subprocess.run([BINARY, "--workload", workload, "--seed",
                                str(pins["seed"]), "--rounds", "1"],
                               stdout=subprocess.PIPE, text=True, timeout=300)
            self.assertEqual(r.returncode, 0, workload)
            res = json.loads(r.stdout.strip().splitlines()[-1])
            self.assertEqual(res["digest"], pins["digests"][workload], workload)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(BENCH, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                "call_cycle", "--seed", "1", "--seconds", "1",
                                "--trace", "0"], cwd=d, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
