#!/usr/bin/env python3
"""Smoke tests of the repository benchmark, at the --tiny input size.

Run from the repository root (builds perfbench first if needed):

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py as a user would and checks the result
line's schema and metric names against BENCHMARK.json, the digest checks
(repetition, stored reference, injected mismatch), failure counting, the
exact-count audit, and the refusal to run without the simulator sources.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_BATCH = {"congested_cell": 2, "quiet_call": 2, "wild_sweep": 6}


class Run:
    """One finished invocation: stdout lines and the parsed result."""

    def __init__(self, proc: subprocess.CompletedProcess):
        self.returncode = proc.returncode
        self.stdout = proc.stdout
        lines = proc.stdout.strip().splitlines()
        self.result = json.loads(lines[-1]) if lines else None

    def field(self, name: str) -> str:
        match = re.search(rf"\b{name}=(\S+)", self.stdout)
        assert match, f"no {name}= in output:\n{self.stdout}"
        return match.group(1)

    def metric(self, name: str) -> float:
        return self.result["metrics"][name]["value"]


class PerfbenchTest(unittest.TestCase):
    def setUp(self):
        self.work = tempfile.mkdtemp(prefix="perfbench-test-")

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def run_bench(self, workload, *extra, trace=0, seed=7, seconds="0.5"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", str(trace), "--tiny",
             "--work-dir", self.work, *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return Run(proc)

    def assert_schema(self, run, trace):
        result = run.result
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIsInstance(result["correct"], bool)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_schema_and_metric_names(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    run = self.run_bench(workload, trace=trace)
                    self.assert_schema(run, trace)
                    self.assertTrue(run.result["correct"], run.stdout)
                    self.assertEqual(run.result["failed"], 0)
                    if trace == 0:
                        for name in ("sim_speed", "peak_rss_kb", "setup_s"):
                            self.assertGreater(run.metric(name), 0, name)
                        self.assertEqual(run.metric("completed_frac"), 1)
                    else:
                        self.assertGreater(run.metric("sim.events"), 0)
                        self.assertGreater(run.metric("sim.ns_per_event"), 0)

    def test_same_seed_reproduces_digest_and_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                # The traced run covers wild_sweep's first input set only,
                # so digests are compared traced-to-traced and
                # untraced-to-untraced.
                for trace in (1, 0):
                    first = self.run_bench(workload, trace=trace)
                    second = self.run_bench(workload, trace=trace)
                    self.assertEqual(first.field("digest"),
                                     second.field("digest"))
                    self.assertIn("matches the stored reference",
                                  second.stdout)
                    self.assertTrue(second.result["correct"], second.stdout)
                    if trace == 1:
                        self.assertIn("every count metric repeated exactly",
                                      second.stdout)
                        self.assertIn("compared with the previous traced run",
                                      second.stdout)
                self.assertNotEqual(first.field("digest"),
                                    self.run_bench(workload, seed=8)
                                    .field("digest"))

    def test_digest_mismatch_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                run = self.run_bench(workload, "--inject-mismatch", "0",
                                     trace=1)
                self.assertFalse(run.result["correct"])
                # Every repeat of call 0 after its first is corrupted once;
                # the serial workloads repeat it on every pass.
                passes = int(run.field("passes"))
                if workload == "wild_sweep":
                    self.assertGreaterEqual(run.result["failed"], 1)
                else:
                    self.assertEqual(run.result["failed"], passes - 1)
                self.assertIn("outputs differ from the reference digest",
                              run.stdout)

    def test_failures_are_counted(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                run = self.run_bench(workload, "--inject-failure", "1")
                attempted = run.result["attempted"]
                failed = run.result["failed"]
                passes = int(run.field("passes"))
                self.assertFalse(run.result["correct"])
                self.assertEqual(attempted, passes * TINY_BATCH[workload])
                if workload == "wild_sweep":
                    # A throwing chunk takes its whole shard down.
                    self.assertEqual(failed, attempted)
                    self.assertIn("sweep failed", run.stdout)
                else:
                    self.assertEqual(failed, passes)
                    self.assertIn("threw: injected failure", run.stdout)
                self.assertAlmostEqual(float(run.field("failed_frac")),
                                       failed / attempted, places=5)
                self.assertAlmostEqual(run.metric("completed_frac"),
                                       1 - failed / attempted)

    def test_refuses_without_simulator_sources(self):
        bare = Path(self.work) / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "quiet_call",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
