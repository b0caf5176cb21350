#!/usr/bin/env python3
# Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark (as run.py does), run every workload at smoke
size in both modes, and check the driver's self test: span self-time
arithmetic on a synthetic span tree, and the traced replay's records
digest against ExtractCorpusInto's on a small corpus.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace, cwd=ROOT, seconds=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         "11", "--seconds", str(seconds), "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


class SmokeRuns(unittest.TestCase):
    """A smoke-size run of every workload, untraced and traced."""

    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                cls.results[(workload, trace)] = run_benchmark(workload, trace)

    def test_runs_are_correct(self):
        for key, (code, result, stderr) in self.results.items():
            with self.subTest(run=key):
                self.assertEqual(code, 0, stderr[-2000:])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertIsInstance(result["failed"], int)

    def test_metric_names_and_units_match_benchmark_json(self):
        for (workload, trace), (_, result, _) in self.results.items():
            want = {m["name"]: m["unit"]
                    for m in SPEC["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(got, want)

    def test_end_to_end_metrics_are_never_zero(self):
        for (workload, trace), (_, result, _) in self.results.items():
            if trace:
                continue
            for name, metric in result["metrics"].items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metric["value"], 0)

    def test_recognizer_dominates_corpus_full(self):
        metrics = self.results[("corpus_full", 1)][1]["metrics"]
        recognize = metrics["extract.recognize_s"]["value"]
        for name, metric in metrics.items():
            if metric["unit"] == "s" and name.split(".")[0] in (
                    "html", "template_cache", "core", "extract"):
                with self.subTest(stage=name):
                    self.assertLessEqual(metric["value"], recognize)

    def test_recognizer_never_runs_on_template_skew(self):
        metrics = self.results[("template_skew", 1)][1]["metrics"]
        for name in ("extract.recognize_s", "extract.text_index_s",
                     "extract.drt_entries", "extract.recognize_share"):
            with self.subTest(metric=name):
                self.assertEqual(metrics[name]["value"], 0)

    def test_stage_self_times_cover_document_time(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            metrics = self.results[(workload, 1)][1]["metrics"]
            with self.subTest(workload=workload):
                self.assertLess(metrics["trace.unattributed_ratio"]["value"], 0.1)


class DriverSelfTest(unittest.TestCase):
    def test_span_arithmetic_and_replay_digest(self):
        bench, _ = bench_run.build()
        proc = subprocess.run([str(bench), "selftest"], cwd=ROOT,
                              capture_output=True, text=True, timeout=600,
                              check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertTrue(json.loads(proc.stdout.strip().splitlines()[-1])["correct"])


class BareDirectory(unittest.TestCase):
    """Without the repository's sources the benchmark must fail fast."""

    def test_fails_without_sources(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            code, result, _ = run_benchmark("corpus_full", 0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
