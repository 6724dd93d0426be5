#!/usr/bin/env python3
"""Self-test of the repository benchmark (perfbench/run.py).

    python3 perfbench/tests/test_perfbench.py

Runs every workload with shrunken inputs (--smoke) and checks that
- the result line names every metric of BENCHMARK.json with its unit,
- the stamp line carries a host-speed probe around every pass,
- a corrupted output fails the output check,
- the traced run reports trace.attributed_frac,
- without the repository around it, the benchmark exits non-zero and
  prints no result.
The first test to run builds the perfbench binary, as run.py does.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra, trace=0, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def result_of(done):
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def stamp_of(done):
    line = done.stdout.strip().splitlines()[-2]
    assert line.startswith("stamp "), line
    return json.loads(line[len("stamp "):])


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


class BenchmarkSelfTest(unittest.TestCase):
    def test_untraced_run_prints_every_end_to_end_metric(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run(workload)
                result = result_of(done)
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(units(result["metrics"]), want)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                # One host probe before the first pass and one after each.
                stamp = stamp_of(done)
                self.assertEqual(len(stamp["host_probe_s"]),
                                 stamp["passes"] + 1)
                for probe in stamp["host_probe_s"]:
                    self.assertGreater(probe, 0)

    def test_traced_run_prints_every_per_layer_metric(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(run(workload, trace=1))
                self.assertTrue(result["correct"])
                self.assertEqual(units(result["metrics"]), want)
                attributed = result["metrics"]["trace.attributed_frac"]
                self.assertGreaterEqual(attributed["value"], 0.95)
                self.assertLessEqual(attributed["value"], 1.0 + 1e-9)
                trace = ROOT / ".bench_out" / f"{workload}.trace.json"
                events = json.loads(trace.read_text())["traceEvents"]
                self.assertIn("bench.pass", {e["name"] for e in events})

    def test_corrupted_output_fails_the_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(run(workload, "--corrupt"))
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

    def test_without_the_repository_it_fails_without_a_result(self):
        bare = ROOT / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {"PATH": "/usr/local/bin:/usr/bin:/bin",
                   "CARGO_TARGET_DIR": ".bench_build"}
            done = run(WORKLOADS[0], cwd=bare, env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            try:
                bare.parent.rmdir()
            except OSError:
                pass


if __name__ == "__main__":
    unittest.main()
