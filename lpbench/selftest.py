"""Quick self-test of the benchmark (about a minute).

    python3 lpbench/selftest.py

Runs every workload at a tiny size through the same code as run.py and
checks that every metric of BENCHMARK.json is reported with its unit, that
the output check accepts the true outcome and rejects a wrong one, and that
the benchmark refuses to run where there is no program.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

import run
import tracing
import workloads

ROOT = run.repo_root()
TINY_N = {"tail-m2n5": 64, "mean-m3n12": 16, "wendel-m3": 32, "props-m1n3": None}
SEED = 37  # master seed 5


def _outcome(w: workloads.Workload, seed: int) -> dict:
    """The outcome of one in-process CLI call, as the reference would hold it."""
    import lpcond.cli

    out = os.path.join(ROOT, run.OUT_DIR, "selftest", "reference")
    with contextlib.redirect_stdout(io.StringIO()):
        if lpcond.cli.main(w.argv(seed, out)) != 0:
            raise RuntimeError(f"{w.name}: CLI call failed")
    with open(os.path.join(out, "summary.json")) as fh:
        return workloads.outcome(w.name, json.load(fh))


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        cls.saved = (dict(workloads.WORKLOADS), workloads.SPEEDUP_N, run.MIN_CHILDREN,
                     workloads.load_reference)
        for name, N in TINY_N.items():
            workloads.WORKLOADS[name] = dataclasses.replace(workloads.WORKLOADS[name], N=N)
        workloads.SPEEDUP_N = 128
        run.MIN_CHILDREN = 1
        cls.reference = {"workloads": {
            name: {"N": w.N, "outcomes": {str(workloads.master_seed(SEED)): _outcome(w, SEED)}}
            for name, w in workloads.WORKLOADS.items()
        }}

    @classmethod
    def tearDownClass(cls):
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(cls.saved[0])
        workloads.SPEEDUP_N, run.MIN_CHILDREN, workloads.load_reference = cls.saved[1:]

    def _run(self, name, trace=0, reference=None):
        reference = reference or self.reference
        workloads.load_reference = lambda: reference
        args = argparse.Namespace(workload=name, seed=SEED, seconds=0, trace=trace)
        return run.run(args)

    def _assert_metrics(self, result, table):
        self.assertEqual(
            {name: metric["unit"] for name, metric in result["metrics"].items()},
            {name: unit for name, unit, _ in table})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_and_check(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = self._run(name)
                self.assertEqual(result["problems"], [])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self._assert_metrics(result, run.END_TO_END)
                self.assertGreater(result["metrics"]["scaled_wall_s"]["value"], 0)
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_wrong_reference_is_rejected(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                wrong = copy.deepcopy(self.reference)
                outcome = wrong["workloads"][name]["outcomes"][str(workloads.master_seed(SEED))]
                first = next(iter(outcome))
                outcome[first] = "deliberately wrong"
                result = self._run(name, reference=wrong)
                self.assertFalse(result["correct"])
                self.assertTrue(any("differs from reference" in p for p in result["problems"]))
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 0.0)

    def test_per_layer_metrics(self):
        for name in ("tail-m2n5", "props-m1n3"):
            with self.subTest(workload=name):
                result = self._run(name, trace=1)
                self.assertTrue(result["correct"], result["problems"])
                self.assertEqual(result["untraced_targets"], [])
                self._assert_metrics(result, tracing.PER_LAYER)
        spans = os.path.join(ROOT, run.OUT_DIR, f"props-m1n3-s{SEED}-t1", "spans.jsonl")
        with open(spans) as fh:
            names = {json.loads(line).get("name") for line in fh}
        self.assertTrue({"cli.main", "harness.run", "sic.sic_bruteforce",
                         "convexgeom.nnls"} <= names)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(tracing.PER_LAYER))

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(ROOT, run.OUT_DIR, "selftest", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(workloads.HERE, os.path.join(bare, "lpbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "lpbench/run.py", "--workload", "tail-m2n5", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
