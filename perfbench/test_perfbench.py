"""Tests of the benchmark itself. From the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the benchmark (as run.py does), runs its C++ self-test (schedule and
input determinism, a corrupted reference caught as failures), runs every
workload briefly with and without tracing and checks the printed metrics
against BENCHMARK.json, and checks that a checkout holding only the benchmark
fails cleanly.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace, seed=3, seconds=1, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900, env=env)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench_run.build()

    def test_selftest(self):
        result = subprocess.run([str(self.binary), "--selftest"], capture_output=True, text=True,
                                timeout=300)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("selftest: passed", result.stdout)

    def test_metrics_match_spec_on_every_workload(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    run = run_benchmark(workload, trace)
                    self.assertEqual(run.returncode, 0, run.stderr[-2000:])
                    result = json.loads(run.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_result_records_host(self):
        run = run_benchmark("offline", 0, seed=4)
        self.assertEqual(run.returncode, 0, run.stderr[-2000:])
        record = json.loads((ROOT / ".bench_out" / "result-offline-seed4-trace0.json").read_text())
        host = record["host"]
        for field in ("cpu_model", "kernel_target", "commit"):
            self.assertTrue(host[field], field)
        self.assertEqual(host["nproc"], os.cpu_count())
        self.assertIn(host["kernel_target"], ("scalar", "avx2", "neon"))

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            run = run_benchmark("offline", 0, cwd=tmp, env=env)
            self.assertNotEqual(run.returncode, 0)
            self.assertNotIn('"metrics"', run.stdout)


if __name__ == "__main__":
    unittest.main()
