#!/usr/bin/env python3
"""Tests of the benchmark itself: the result line matches BENCHMARK.json,
every workload answers correctly, an injected wrong answer fails the run,
and a tree without the library sources fails without a result.

Run from the checkout root (builds kgbench on first use):

    python3 perfbench/tests/test_kgbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, *extra, cwd=ROOT, runner=RUN, env=None):
    """Runs one short workload; returns (exit code, parsed result or None)."""
    out = subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
        check=False)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return out.returncode, result


class ResultLineTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_every_workload_reports_declared_metrics_and_no_errors(self):
        for workload in WORKLOADS:
            for trace, declared in ((0, BENCH["end_to_end"]),
                                    (1, BENCH["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run(workload, trace)
                    self.assertEqual(code, 0)
                    self.check_metrics(result, declared)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)


# Per workload, the per-layer self times that, with the client residual,
# make up what the client observed for each class.
SELF_TIMES = {
    "remote_read": ["store.execute_us", "rpc.self_us"],
    "store_churn": ["store.execute_us", "rpc.self_us"],
    "cluster_mix": ["cluster.fanout_us", "cluster.route_self_us",
                    "rpc.self_us"],
}
CLASSES = ["point_lookup", "neighborhood", "attribute_by_type",
           "topk_related"]


class LayersAddUpTest(unittest.TestCase):
    def test_self_times_plus_residual_equal_client_observed(self):
        for workload, layers in SELF_TIMES.items():
            code, result = run(workload, 1)
            self.assertEqual(code, 0)
            m = {k: v["value"] for k, v in result["metrics"].items()}
            for cls in CLASSES:
                with self.subTest(workload=workload, cls=cls):
                    observed = m["client.observed_us." + cls]
                    self.assertGreater(observed, 0)
                    parts = [m.get(f"{layer}.{cls}", 0.0) for layer in layers]
                    total = sum(parts) + m["client.residual_us." + cls]
                    self.assertAlmostEqual(total, observed, delta=1e-6)
                    self.assertGreater(sum(parts), 0)


class InjectedWrongAnswerTest(unittest.TestCase):
    def test_injected_wrong_answer_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 0, "--inject-wrong-answer")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


class IsolationTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        build_area = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_area, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_area) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            # Build inside the copy, never in a shared target directory.
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            code, result = run(WORKLOADS[0], 0, cwd=tmp, env=env,
                               runner=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)

    def test_unknown_workload_is_refused(self):
        out = subprocess.run(
            [sys.executable, RUN, "--workload", "nope", "--seed", "1",
             "--seconds", "1"], cwd=ROOT, capture_output=True, text=True,
            check=False)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
