"""Self-test of the benchmark (standard library only, about three minutes).

    python3 bench/test_bench.py
"""

from __future__ import annotations

import ast
import contextlib
import copy
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

import run

run.import_library()

import workloads as wl  # noqa: E402

BENCH = Path(__file__).resolve().parent
BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def bench_run(workload: str, seed: int, trace: int, cwd: Path = run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        cls.results = {}
        for name in wl.WORKLOADS:
            cls.results[name, 0] = result_of(bench_run(name, 7, 0))
            cls.results[name, 1] = result_of(bench_run(name, 7, 1))
            cls.results[name, "again"] = result_of(bench_run(name, 7, 1))

    def test_workloads_in_benchmark_json_exist(self):
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]}, set(wl.WORKLOADS))

    def test_every_metric_is_printed_with_its_unit(self):
        for (name, trace), result in self.results.items():
            section = "end_to_end" if trace == 0 else "per_layer"
            expected = {m["name"]: m["unit"] for m in self.spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, expected, f"{name} trace {trace}")
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})

    def test_answers_are_correct_at_this_commit(self):
        for key, result in self.results.items():
            self.assertTrue(result["correct"], key)
            self.assertEqual(result["failed"], 0, key)
            self.assertGreaterEqual(result["attempted"], 1, key)

    def test_end_to_end_metrics_are_never_zero(self):
        for w in wl.WORKLOADS:
            for name, metric in self.results[w, 0]["metrics"].items():
                self.assertGreater(metric["value"], 0, f"{w} {name}")

    def test_same_seed_gives_identical_counts(self):
        for w in wl.WORKLOADS:
            first = self.results[w, 1]["metrics"]
            again = self.results[w, "again"]["metrics"]
            for name, metric in first.items():
                if metric["unit"] != "s":
                    self.assertEqual(metric["value"], again[name]["value"], f"{w} {name}")


class CorrectnessGate(unittest.TestCase):
    def setUp(self):
        self.reference = json.loads(wl.REFERENCE_FILE.read_text(encoding="utf-8"))

    def first_item(self, reference, category):
        items = wl.verdicts_setup(3, run.WORK, reference)
        return next(i for i in items if i.name.startswith(f"verdicts {category}["))

    def corrupt_and_check(self, category, corrupt):
        item = self.first_item(self.reference, category)
        self.assertIsNone(run.run_one(wl.VERDICTS, item)[1])
        bad = copy.deepcopy(self.reference)
        index = int(item.name.split("[")[1].rstrip("]"))
        corrupt(bad["pools"][category][index]["ref"])
        bad_item = self.first_item(bad, category)
        _, failure = run.run_one(wl.VERDICTS, bad_item)
        self.assertIsNotNone(failure)
        self.assertIn(bad_item.name, failure)

    def test_corrupted_interval_is_failed(self):
        def corrupt(ref):
            pair = next(iter(ref["intervals"]))
            ref["intervals"][pair] = ["0", ref["intervals"][pair][1] + "1"]

        self.corrupt_and_check("metric9", corrupt)

    def test_corrupted_certification_is_failed(self):
        def corrupt(ref):
            ref["ok"] = not ref["ok"]

        self.corrupt_and_check("pass", corrupt)

    def test_graph_over_budget_is_a_timeout_failure(self):
        slow = wl.Workload("slow", None, lambda item, counts: time.sleep(5), 1, 1)
        elapsed, failure = run.run_one(slow, wl.Item("sleeper", None))
        self.assertLess(elapsed, 3)
        self.assertIn('{"timeout": 1}', failure)
        self.assertIn("sleeper", failure)


class StandAlone(unittest.TestCase):
    def test_imports_only_stdlib_and_the_library(self):
        local = {p.stem for p in BENCH.glob("*.py")}
        for path in BENCH.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    self.assertTrue(
                        top in sys.stdlib_module_names or top in local or top == "metric_cluster",
                        f"{path.name} imports {name}",
                    )

    def test_fails_without_the_library_sources(self):
        run.WORK.mkdir(exist_ok=True)
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "bench")
            shutil.copy(BENCHMARK_JSON, bare / "BENCHMARK.json")
            proc = bench_run("verdicts", 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            with contextlib.suppress(OSError):
                run.WORK.rmdir()


if __name__ == "__main__":
    unittest.main()
