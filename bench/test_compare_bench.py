#!/usr/bin/env python3
"""Self-test of compare_bench.py's exit codes.

    python3 bench/test_compare_bench.py

Writes small bench_micro-shaped JSON files to a temporary directory and
checks that the comparison passes, fails on a gated regression (including
the snapshot, view-hull and verify kernels), fails when a
gated baseline benchmark is missing from the current run (a renamed kernel),
only warns when an ungated one is, and reads a repeated benchmark as the
minimum over its repetitions.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "compare_bench.py")


def bench_file(directory, name, times):
    """A Release-stamped bench_micro JSON with the given name -> ns times
    (a dict, or a list of (name, ns) pairs when a name repeats)."""
    path = os.path.join(directory, name)
    pairs = times.items() if isinstance(times, dict) else times
    with open(path, "w") as f:
        json.dump({
            "context": {"lumen_build_type": "release"},
            "benchmarks": [{"name": n, "run_type": "iteration",
                            "real_time": t, "time_unit": "ns"}
                           for n, t in pairs],
        }, f)
    return path


BASE = {"BM_Orient2dFiltered": 5.0, "BM_BuildView/corner/512": 4000.0,
        "BM_PlanExits/512": 50000.0, "BM_ConvexHull/512": 9000.0,
        "BM_FillSnapshot/512": 2000.0, "BM_ConvexHullView/512": 30000.0,
        "BM_VerifySuccess/converged/512": 60000.0}


class CompareBenchTest(unittest.TestCase):
    def run_compare(self, current, *extra):
        with tempfile.TemporaryDirectory() as d:
            result = subprocess.run(
                [sys.executable, SCRIPT, bench_file(d, "base.json", BASE),
                 bench_file(d, "cur.json", current), *extra],
                capture_output=True, text=True, check=False)
        return result.returncode, result.stderr

    def test_identical_runs_pass(self):
        self.assertEqual(self.run_compare(dict(BASE))[0], 0)

    def test_gated_regression_fails(self):
        cur = dict(BASE, **{"BM_PlanExits/512": 65000.0})
        self.assertEqual(self.run_compare(cur)[0], 1)

    def test_snapshot_hull_and_verify_regressions_fail(self):
        for name in ("BM_FillSnapshot/512", "BM_ConvexHullView/512",
                     "BM_VerifySuccess/converged/512"):
            cur = dict(BASE, **{name: BASE[name] * 1.3})
            self.assertEqual(self.run_compare(cur)[0], 1, name)

    def test_ungated_regression_passes(self):
        cur = dict(BASE, **{"BM_ConvexHull/512": 90000.0})
        self.assertEqual(self.run_compare(cur)[0], 0)

    def test_renamed_gated_benchmark_fails(self):
        cur = dict(BASE)
        cur["BM_BuildView/disk_corner/512"] = cur.pop("BM_BuildView/corner/512")
        code, err = self.run_compare(cur)
        self.assertEqual(code, 1)
        self.assertIn("BM_BuildView/corner/512", err)

    def test_missing_ungated_benchmark_only_warns(self):
        cur = dict(BASE)
        del cur["BM_ConvexHull/512"]
        code, err = self.run_compare(cur)
        self.assertEqual(code, 0)
        self.assertIn("only in baseline", err)

    def test_all_gates_every_missing_benchmark(self):
        cur = dict(BASE)
        del cur["BM_ConvexHull/512"]
        self.assertEqual(self.run_compare(cur, "--all")[0], 1)

    def test_repetitions_read_as_their_minimum(self):
        # --benchmark_repetitions lists each repetition under the same name:
        # one disturbed repetition (last here) must not read as a regression.
        cur = [(n, t) for n, t in BASE.items()
               if n not in ("BM_Orient2dFiltered", "BM_PlanExits/512")]
        cur += [("BM_Orient2dFiltered", 9.0), ("BM_Orient2dFiltered", 5.0),
                ("BM_PlanExits/512", 51000.0), ("BM_PlanExits/512", 49000.0),
                ("BM_PlanExits/512", 90000.0)]
        self.assertEqual(
            self.run_compare(cur, "--calibrate", "BM_Orient2dFiltered")[0], 0)
        # Every repetition slow is still a regression.
        slow = [(n, t * 1.3 if n == "BM_PlanExits/512" else t) for n, t in cur]
        self.assertEqual(
            self.run_compare(slow, "--calibrate", "BM_Orient2dFiltered")[0], 1)


if __name__ == "__main__":
    unittest.main()
