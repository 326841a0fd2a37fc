"""Self-tests for the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Each test works in a temporary copy of src/, perfbench/ and BENCHMARK.json,
so it leaves the checkout's .perfbench/ state alone.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("augment-study", "gbdt-explain", "clip-explain")


def copy_checkout(dest, with_src=True) -> None:
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(os.path.join(REPO, "perfbench"),
                    os.path.join(dest, "perfbench"), ignore=ignore)
    if with_src:
        shutil.copytree(os.path.join(REPO, "src"), os.path.join(dest, "src"),
                        ignore=ignore)


def run_bench(cwd, workload, trace, seed=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


class SmokeRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        copy_checkout(cls.tmp.name)
        with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def result(self, workload, trace):
        proc = run_bench(self.tmp.name, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc, json.loads(proc.stdout.strip().splitlines()[-1])

    def assert_metrics(self, proc, result, kind):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[kind]}
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, want)
        for name, unit in want.items():  # also printed for people, with unit
            self.assertRegex(proc.stdout,
                             rf"\n  {re.escape(name)} +\S+ {re.escape(unit)}\n")

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = self.result(workload, 0)
                self.assert_metrics(proc, result, "end_to_end")
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.result(workload, 1)
                self.assert_metrics(*first, "per_layer")
                proc, second = self.result(workload, 1)
                self.assertTrue(second["correct"], proc.stderr)
                self.assertNotIn("count differs", proc.stderr)
                counts = [{n: m["value"] for n, m in r["metrics"].items()
                           if not n.endswith(".s") and n != "trace.overhead_s"}
                          for r in (first[1], second)]
                self.assertEqual(counts[0], counts[1])


class FailureAccounting(unittest.TestCase):
    """A changed artifact or a non-zero exit must count as a failed call."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        copy_checkout(cls.tmp.name)
        proc = run_bench(cls.tmp.name, "gbdt-explain", 0)
        assert proc.returncode == 0, proc.stderr
        sys.path[:0] = [os.path.join(cls.tmp.name, "src"),
                        os.path.join(cls.tmp.name, "perfbench")]
        cls.cwd = os.getcwd()
        os.chdir(os.path.join(cls.tmp.name, ".perfbench", "gbdt-explain"))

    @classmethod
    def tearDownClass(cls):
        os.chdir(cls.cwd)
        del sys.path[:2]
        cls.tmp.cleanup()

    def test_tampered_artifact_and_forced_exit(self):
        import run
        import workloads
        from spoofkit import cli
        size = workloads.SIZES["smoke"]["gbdt-explain"]
        ref = workloads.load_reference("smoke", "gbdt-explain")
        wl = workloads.WORKLOADS["gbdt-explain"]
        calls = wl.calls(0, size)
        times = run.run_pass(cli, calls)
        expected = {str(k): run.digest(c.out) for k, c in enumerate(calls)}
        self.assertEqual(run.check_pass(wl, calls, times, ref, expected, {})[0],
                         set())

        with open("out/importance/importance.csv", "a") as fh:
            fh.write("tampered\n")
        failed, _ = run.check_pass(wl, calls, times, ref, expected, {})
        self.assertEqual(failed, {1})

        calls[0].argv[calls[0].argv.index("inputs/train.csv")] = "inputs/missing.csv"
        times = run.run_pass(cli, calls)
        self.assertIsNone(times[0])
        failed, _ = run.check_pass(wl, calls, times, ref, expected, {})
        self.assertIn(0, failed)

    def test_changed_value_against_an_earlier_run(self):
        """Outputs are compared by value with an earlier run's record even
        when their bytes were never seen (as after a change to the program)."""
        import run
        import workloads
        from spoofkit import cli
        size = workloads.SIZES["smoke"]["gbdt-explain"]
        ref = workloads.load_reference("smoke", "gbdt-explain")
        wl = workloads.WORKLOADS["gbdt-explain"]
        calls = wl.calls(0, size)
        times = run.run_pass(cli, calls)
        stored = {}
        run.check_pass(wl, calls, times, ref, {}, stored)
        self.assertEqual(len(stored), len(calls))

        def failed_after_adding(delta):
            path = "out/importance/importance.json"
            with open(path) as fh:
                doc = json.load(fh)
            doc["importances"][0]["mean"] += delta
            with open(path, "w") as fh:
                json.dump(doc, fh)
            return run.check_pass(wl, calls, times, ref, {}, {}, stored)[0]

        self.assertEqual(failed_after_adding(1e-12), set())  # within tolerance
        self.assertEqual(failed_after_adding(1e-3), {1})


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_checkout(tmp, with_src=False)
            proc = run_bench(tmp, "gbdt-explain", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
