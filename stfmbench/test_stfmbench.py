#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny budgets (about three minutes).

    python3 stfmbench/test_stfmbench.py

They build the benchmark through run.py like any run does, then check:
- every metric name is well formed, printed with a unit, and exactly the
  set BENCHMARK.json declares for the mode;
- a tiny-budget run of each workload passes every correctness check in
  both modes;
- the same seed gives identical simulated results, and another seed gives
  other inputs;
- usage and set-up errors exit with code 2 and print no result line.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
BUILD = ROOT / ".bench_build"
WORKLOADS = ("fig09", "fig11-8core", "low16")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE_BUDGET = "1000"
SIMULATED = ("unfairness.stfm", "weighted_speedup.stfm")


def run(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True,
                          text=True)


def smoke(workload, seed=0, trace=0):
    """Result line and full stdout of a tiny-budget run."""
    out = run("--workload", workload, "--seed", str(seed), "--seconds",
              "1", "--trace", str(trace), "--budget", SMOKE_BUDGET)
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}:\n"
                             f"{out.stdout[-3000:]}{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


class BenchmarkTest(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.declared = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.results[workload, trace] = smoke(workload, trace=trace)

    def test_smoke_runs_pass_every_check(self):
        for (workload, trace), (result, _) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 40)

    def test_metric_names_units_and_set(self):
        for (workload, trace), (result, stdout) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                metrics = result["metrics"]
                self.assertEqual(
                    {name: m["unit"] for name, m in metrics.items()},
                    self.declared[trace])
                for name, metric in metrics.items():
                    self.assertTrue(NAME.fullmatch(name), name)
                    self.assertTrue(UNIT.fullmatch(metric["unit"]), name)
                    self.assertIsInstance(metric["value"], (int, float))
                    # The human-readable report names it with its unit.
                    self.assertRegex(stdout, rf"\n  {re.escape(name)} +\S+ "
                                             rf"{re.escape(metric['unit'])}\n")
                self.assertIn("failed_frac", stdout)

    def test_host_fingerprint(self):
        _, stdout = self.results["low16", 0]
        host = json.loads(stdout.splitlines()[0].removeprefix("host "))
        for key in ("cpu_model", "nproc", "compiler", "cxx_flags",
                    "build_type", "lto", "commit", "workers"):
            self.assertIn(key, host)
        self.assertEqual(host["build_type"], "Release")
        self.assertTrue(host["lto"])

    def test_same_seed_same_results_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, _ = self.results[workload, 0]
                again, _ = smoke(workload)
                other, _ = smoke(workload, seed=1)
                for name in SIMULATED:
                    self.assertEqual(first["metrics"][name]["value"],
                                     again["metrics"][name]["value"], name)
                self.assertNotEqual(
                    [first["metrics"][n]["value"] for n in SIMULATED],
                    [other["metrics"][n]["value"] for n in SIMULATED])

                plans = [json.loads(run("--workload", workload, "--seed",
                                        seed, "--print-plan").stdout)
                         for seed in ("0", "0", "1")]
                self.assertEqual(plans[0], plans[1])
                self.assertEqual(plans[0]["mixes"], plans[2]["mixes"])
                self.assertTrue(
                    set(plans[0]["salts"]).isdisjoint(plans[2]["salts"]))

    def test_default_seed_runs_the_checked_in_sweeps(self):
        for workload, mixes, runs in (("fig09", 32, 160),
                                      ("fig11-8core", 16, 80),
                                      ("low16", 1, 80)):
            with self.subTest(workload=workload):
                plan = json.loads(run("--workload", workload,
                                      "--print-plan").stdout)
                self.assertEqual(len(plan["mixes"]), mixes)
                self.assertEqual(plan["runs"], runs)
                self.assertEqual(plan["salts"][0], 0)

    def test_errors_exit_2_without_a_result(self):
        out = run("--workload", "nope")
        self.assertEqual(out.returncode, 2)
        self.assertEqual(out.stdout, "")
        # fig09 reads specs/fig09.json from the checkout; without it the
        # run cannot be set up.
        with tempfile.TemporaryDirectory(dir=BUILD) as empty:
            out = subprocess.run([str(BUILD / "stfmbench"), "--workload",
                                  "fig09", "--budget", SMOKE_BUDGET],
                                 cwd=empty, capture_output=True, text=True)
            self.assertEqual(out.returncode, 2)
            self.assertNotIn('"correct"', out.stdout)

    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
            copy = pathlib.Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", copy)
            shutil.copytree(HERE, copy / "stfmbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run([sys.executable, "stfmbench/run.py",
                                  "--workload", "low16"], cwd=copy,
                                 capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
