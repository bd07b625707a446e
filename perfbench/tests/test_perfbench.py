#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark and its unit tests, checks the metric catalogue
against BENCHMARK.json, runs every workload at tiny scale through the
exact-answer gate, and checks that a tree without the library sources
fails cleanly.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Build:
    out = None

    @classmethod
    def get(cls):
        if cls.out is None:
            cls.out = run.build(("perfbench", "perfbench_unit_test"))
        return cls.out


def run_bench(workload, trace, seconds="6", seed="5"):
    """Tiny scale; 6 s gives the live writer the 1200 batches a p99 needs."""
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", seed, "--seconds", seconds,
         "--trace", trace, "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)


class UnitTests(unittest.TestCase):
    def test_unit_tests_pass(self):
        binary = os.path.join(Build.get(), "perfbench_unit_test")
        result = subprocess.run([binary], capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)


class CatalogueTest(unittest.TestCase):
    def setUp(self):
        binary = os.path.join(Build.get(), "perfbench")
        listed = subprocess.run([binary, "--list-metrics"], check=True,
                                capture_output=True, text=True).stdout
        self.listed = json.loads(listed)
        self.bench = load_benchmark()

    def test_metric_names_and_units_match_benchmark_json(self):
        for key in ("end_to_end", "per_layer"):
            want = [(m["name"], m["unit"]) for m in self.bench[key]]
            got = [(m["name"], m["unit"]) for m in self.listed[key]]
            self.assertEqual(got, want, key)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(self.listed["workloads"],
                         [w["name"] for w in self.bench["workloads"]])

    def test_names_use_the_allowed_charset_once(self):
        names = [w["name"] for w in self.bench["workloads"]]
        names += [m["name"] for m in self.bench["end_to_end"]]
        names += [m["name"] for m in self.bench["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_metric_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class SmokeTest(unittest.TestCase):
    """Every workload at tiny scale passes the exact-answer gate."""

    def check(self, workload, trace):
        Build.get()
        result = run_bench(workload, trace)
        self.assertEqual(result.returncode, 0,
                         result.stdout[-2000:] + result.stderr[-2000:])
        lines = result.stdout.strip().splitlines()
        report = json.loads(lines[-1])
        self.assertEqual(set(report), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(report["correct"])
        self.assertEqual(report["failed"], 0)
        self.assertGreaterEqual(report["attempted"], 1)
        key = "per_layer" if trace == "1" else "end_to_end"
        specs = load_benchmark()[key]
        self.assertEqual(list(report["metrics"]), [m["name"] for m in specs])
        for spec in specs:
            metric = report["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"])
            if key == "end_to_end":
                self.assertGreater(metric["value"], 0, spec["name"])
        text = "\n".join(lines[:-1])
        for spec in specs:
            self.assertRegex(text, r"(?m)^metric %s " % re.escape(spec["name"]))
        self.assertRegex(text, r"(?m)^fingerprint corpus=[0-9a-f]{16} ")
        return report

    def test_all_workloads(self):
        for workload in run_workloads():
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_same_seed_same_inputs(self):
        Build.get()
        prints = set()
        for _ in range(2):
            out = run_bench("live_synth_ingest", "0").stdout
            prints.add(re.search(r"(?m)^fingerprint .*$", out).group(0))
        self.assertEqual(len(prints), 1)

    def test_bad_arguments_are_refused(self):
        Build.get()
        result = run_bench("no_such_workload", "0")
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)


def run_workloads():
    return [w["name"] for w in load_benchmark()["workloads"]]


class BareTreeTest(unittest.TestCase):
    """Without the library sources the command fails without a result."""

    def test_fails_cleanly(self):
        bare = os.path.join(run.build_dir(), "bare-tree")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "mem_video_filter", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    unittest.main()
