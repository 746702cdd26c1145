#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of a pimba checkout (about a minute; the job binary is
built the way run.py builds it):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()

    def job(self, mode, workload, *extra, seed=bench.DEFAULT_SEED):
        rec = bench.run_job(self.binary, mode, workload, seed, list(extra))
        self.assertIsNotNone(rec, "%s job on %s failed" % (mode, workload))
        return rec

    def test_metric_names(self):
        names = list(bench.END_TO_END) + list(bench.PER_LAYER)
        for name in names + bench.WORKLOADS:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertLessEqual(set(bench.PER_LAYER),
                             set(self.job("layers", "traced")))

    def test_counters_repeat_exactly(self):
        first = self.job("layers", "kv_pressure")
        second = self.job("layers", "kv_pressure")
        for name in bench.EXACT + ["digest"]:
            self.assertEqual(first[name], second[name], name)
        self.assertEqual(first["digest"], first["digest_warm"])

    def test_kv_pressure_preempts_and_cancels(self):
        rec = self.job("run", "kv_pressure", "--setup-reps", "1")
        self.assertGreater(rec["preemptions"], 0)
        self.assertGreater(rec["cancelled"], 0)

    def test_traced_writes_parseable_trace(self):
        os.makedirs(bench.build_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.build_dir()) as out:
            proc = subprocess.run(
                [self.binary, "run", bench.workload_file("traced"),
                 "--seed", str(bench.DEFAULT_SEED), "--setup-reps", "1",
                 "--out-dir", out],
                stdout=subprocess.PIPE, text=True, check=True)
            rec = json.loads(proc.stdout.splitlines()[-1])
            with open(os.path.join(out, "trace.json")) as f:
                events = [e for e in json.load(f)["traceEvents"]
                          if e["ph"] != "M"]
        self.assertGreater(len(events), 0)
        self.assertEqual(len(events), rec["trace_events"])

    def test_pinned_digests_reproduce(self):
        pinned = bench.load_pinned()
        self.assertEqual(sorted(pinned), sorted(bench.WORKLOADS))
        for workload, seeds in pinned.items():
            for entry in seeds.values():
                rec = self.job("run", workload, "--setup-reps", "1",
                               seed=entry["seed"])
                self.assertEqual(rec["digest"], entry["digest"], workload)


if __name__ == "__main__":
    unittest.main()
