#!/usr/bin/env python3
"""Tests of the benchmark itself: its output check trips on a corrupted
digest, a clean run passes, and a directory without the library sources is
refused without a result. Run from the root of a checkout:

    python3 sagebench/test_sagebench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (run.py: build() and the build paths)


def run_binary(workload, *extra):
    workdir = os.path.join(run.BUILD_DIR, "test-runs")
    os.makedirs(workdir, exist_ok=True)
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", "5", "--seconds",
         "0.3", "--trace", "0", "--workdir", workdir, *extra],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    shutil.rmtree(workdir, ignore_errors=True)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_corrupted_traverse_digest_fails(self):
        proc, result = run_binary("traverse", "--corrupt-digest")
        self.assertEqual(proc.returncode, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("MISMATCH", proc.stdout)

    def test_corrupted_serve_digest_fails(self):
        proc, result = run_binary("serve-hot", "--corrupt-digest")
        self.assertEqual(proc.returncode, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_clean_serve_run_passes(self):
        proc, result = run_binary("serve-cold")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["metrics"]["req_per_s"]["value"], 0)


class MissingSourcesTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = os.path.join(run.BUILD_DIR, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "sagebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "sagebench/run.py", "--workload", "traverse",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
