"""Smoke test of the benchmark runner on scaled-down workloads.

Run from anywhere with ``python3 perfbench/test_smoke.py`` (or pytest).
Each workload runs in its ``--smoke`` configuration for about a second,
untraced and traced.  The test checks that every metric named in
BENCHMARK.json is printed with its unit, that outputs pass the
reference check, and that a wrong reference turns into failed runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_REF = os.path.join(HERE, "reference", "smoke")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke",
                           "--seconds", "1", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)


def table(stdout: str) -> dict:
    """metric -> (unit, median) from the printed table."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 6 and not line.startswith(("#", "metric")):
            rows[parts[0]] = (parts[1], float(parts[2]))
    return rows


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def check_metrics(self, done, kind: str) -> dict:
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertEqual(result["failed"], 0)
        printed = table(done.stdout)
        for metric in self.spec[kind]:
            name, unit = metric["name"], metric["unit"]
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float))
            self.assertEqual(printed[name][0], unit, name)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in self.spec[kind]})
        self.assertEqual(printed["error_rate"], ("ratio", 0.0))
        return result

    def test_every_workload_prints_every_metric(self):
        for name in self.workloads:
            with self.subTest(workload=name):
                self.check_metrics(bench("--workload", name, "--trace", "0"), "end_to_end")
                self.check_metrics(bench("--workload", name, "--trace", "1"), "per_layer")

    def test_other_seed_and_thread_count_pass(self):
        name = "paired-n256"
        self.check_metrics(bench("--workload", name, "--seed", "7"), "end_to_end")
        self.check_metrics(bench("--workload", name, "--threads", "1"), "end_to_end")

    def test_wrong_reference_fails_runs(self):
        name = "aging-n512"
        with tempfile.TemporaryDirectory() as tmp:
            ref = os.path.join(tmp, "ref")
            shutil.copytree(SMOKE_REF, ref)
            path = os.path.join(ref, f"{name}.csv")
            with open(path) as handle:
                lines = handle.read().splitlines(keepends=True)
            fields = lines[2].split(",")
            fields[3] = repr(float(fields[3]) * (1 + 1e-6))
            lines[2] = ",".join(fields)
            text = "".join(lines)
            with open(path, "w") as handle:
                handle.write(text)

            # damaged file: the pinned sha256 no longer matches
            done = bench("--workload", name, "--reference-dir", ref)
            self.assertEqual(done.returncode, 2)
            self.assertIn("sha256", done.stderr)
            self.assertFalse(done.stdout.strip())

            # consistently pinned but wrong: every run fails the check
            index_path = os.path.join(ref, "reference.json")
            with open(index_path) as handle:
                index = json.load(handle)
            index["workloads"][name]["sha256"] = hashlib.sha256(text.encode()).hexdigest()
            with open(index_path, "w") as handle:
                json.dump(index, handle)
            done = bench("--workload", name, "--reference-dir", ref)
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], result["attempted"])
            self.assertGreater(table(done.stdout)["error_rate"][1], 0.0)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "paired-n256", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
