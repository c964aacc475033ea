#!/usr/bin/env python3
"""Tests of the benchmark itself: input determinism, output checking
and a reduced-size run of every workload.

    python3 perfbench/test_perfbench.py

Builds the benchmark package first, like run.py does.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SMALL = 30_000  # events: a few hundred KB of text


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.broot = bench.build_root()
        cls.bins = bench.build(cls.broot)
        cls.env = bench.tool_env(cls.broot)
        cls.tmp = tempfile.mkdtemp(dir=os.path.join(cls.broot, "tmp"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def gen(self, workload, seed, name, *extra):
        path = os.path.join(self.tmp, name)
        bench.run_tool([self.bins["tool"], "gen", "--workload", workload,
                        "--seed", str(seed), "--events", str(SMALL), "--out",
                        path] + list(extra), self.env, "gen")
        with open(path, "rb") as f:
            return f.read()

    def test_generator_is_deterministic(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.gen(workload, 7, "a")
                self.assertEqual(first, self.gen(workload, 7, "b"))
                self.assertNotEqual(first, self.gen(workload, 8, "c"))

    def test_layouts_hold_the_same_report(self):
        # lima_analyze must print the same bytes for all three inputs,
        # at both thread settings, and match the in-process reference.
        ref = os.path.join(self.tmp, "ref")
        outputs = []
        for workload in ("text-grouped", "text-interleaved", "limb-v2"):
            self.gen(workload, 5, workload, "--ref-out", ref)
            for threads in ("0", "1"):
                argv = [self.bins["analyze"], "--threads", threads,
                        os.path.join(self.tmp, workload)]
                _, _, out, code = bench.run_cold(self.bins, argv, self.env)
                self.assertEqual(code, 0)
                outputs.append(out)
        with open(ref, "rb") as f:
            expected = f.read()
        self.assertTrue(expected)
        for out in outputs:
            self.assertTrue(bench.check_report(out, expected))

    def test_peak_rss_is_the_tools_own(self):
        # A direct child of this process would report at least this
        # process's peak RSS; through perfbench_spawn, `--version` is
        # far below it.
        wall, rss, out, code = bench.run_cold(
            self.bins, [self.bins["monitor"], "--version"], self.env)
        self.assertEqual(code, 0)
        self.assertTrue(out)
        self.assertGreater(wall, 0)
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.assertLess(rss, min(8.0, own_mb / 2))

    def test_tampered_report_is_a_failure(self):
        w = bench.Workload("text-grouped", self.bins, self.broot, 4, SMALL)
        w.setup()
        self.assertIsNotNone(w.invoke())
        digit = next(i for i, c in enumerate(w.expected) if chr(c).isdigit())
        changed = b"1" if w.expected[digit:digit + 1] != b"1" else b"2"
        w.expected = w.expected[:digit] + changed + w.expected[digit + 1:]
        self.assertIsNone(w.invoke())
        self.assertEqual((w.attempted, w.failed), (2, 1))
        w.cleanup()

    def test_tampered_window_record_is_a_failure(self):
        w = bench.Workload("monitor-stream", self.bins, self.broot, 4, SMALL)
        w.setup()
        self.assertGreater(len(w.expected), 10)
        self.assertIsNotNone(w.invoke())
        index, events, region, sid_c = w.expected[3]
        w.expected[3] = (index, events, region, sid_c * 1.0001)
        self.assertIsNone(w.invoke())
        self.assertEqual((w.attempted, w.failed), (2, 1))
        w.cleanup()

    def run_main(self, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bench.main(list(args) + ["--events", str(SMALL)])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_smoke_every_workload(self):
        for trace in ("0", "1"):
            with self.subTest(trace=trace):
                result = self.run_main("--workload", "all", "--seed", "2",
                                       "--seconds", "0.5", "--trace", trace)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["workloads"]),
                                 set(bench.WORKLOADS))
                for metrics in result["workloads"].values():
                    for m in metrics.values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_metric_names_match_benchmark_json(self):
        path = os.path.join(bench.ROOT, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(w["name"], w["why"]) for w in spec["workloads"]],
                         list(bench.WORKLOADS.items()))
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = self.run_main("--workload", "limb-v2", "--seed", "1",
                                   "--seconds", "0.3", "--trace", trace)
            self.assertEqual(
                [(n, m["unit"]) for n, m in result["metrics"].items()],
                [(m["name"], m["unit"]) for m in spec[key]])


if __name__ == "__main__":
    unittest.main()
