#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the root of a checkout (builds the benchmark on first use; takes a
few minutes):

    python3 -m unittest perfbench/test_perfbench.py

* exact counts repeat bit for bit for one seed, in both modes;
* one corrupted answer fails the run;
* every result line carries exactly the metrics BENCHMARK.json lists;
* without the repository's sources the benchmark exits non-zero and prints
  no result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts the program computes deterministically from the seed: a later
# change may rest a count-based claim on them.
EXACT_END_TO_END = ["ts_bytes_per_event", "disk_bytes_per_event"]
EXACT_PER_LAYER = [
    "core.cluster_receive_ratio", "core.merges", "core.final_clusters",
    "core.largest_cluster", "wal.syncs", "kernel.precedence.ticks_per_query",
    "kernel.batch.ticks_per_query", "kernel.frontier.ticks_per_query",
]
SECONDS = "2"


def run(workload, seed, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


class ExactCountsRepeat(unittest.TestCase):
    def check_shape(self, result, trace):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in specs})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)

    def test_exact_counts_repeat_for_one_seed(self):
        for workload in WORKLOADS:
            for trace, names in ((0, EXACT_END_TO_END), (1, EXACT_PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    values = []
                    for _ in range(2):
                        rc, result = run(workload, 7, trace)
                        self.assertEqual(rc, 0)
                        self.check_shape(result, trace)
                        values.append({n: result["metrics"][n]["value"]
                                       for n in names})
                    self.assertEqual(values[0], values[1])


class AnswerCheck(unittest.TestCase):
    def test_one_corrupted_answer_fails_the_run(self):
        rc, result = run("viewport_serve", 3, 0, "--corrupt-answer", "1")
        self.assertEqual(rc, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_clean_run_passes(self):
        rc, result = run("viewport_serve", 3, 0)
        self.assertEqual(rc, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_the_repository_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            rc, result = run(WORKLOADS[0], 1, 0, cwd=bare)
            self.assertNotEqual(rc, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
