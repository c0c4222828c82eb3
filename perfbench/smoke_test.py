#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Checks that the benchmark builds offline without touching the root
Cargo.toml, that its metric vocabulary matches BENCHMARK.json, that every
workload prints every metric with its unit in both modes, with provenance,
that workload generation is deterministic for a seed, and runs the
package's unit tests. Takes a few minutes.
"""

import hashlib
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
PROVENANCE_KEYS = {
    "workload", "seed", "reps", "workers", "nproc", "clock_pair_ns", "digest",
    "events", "git_rev", "git_dirty", "rustc", "date", "source_sha256",
}


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_env():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return dict(os.environ, CARGO_TARGET_DIR=target), target


def bench(workload, seed, trace):
    """Runs one short benchmark run; returns (result, provenance)."""
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = out.stdout.strip().split("\n")
    prov = [json.loads(l[len("provenance "):]) for l in lines if l.startswith("provenance ")]
    assert len(prov) == 1, out.stdout
    return json.loads(lines[-1]), prov[0]


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_benchmark()
        root_manifest = os.path.join(ROOT, "Cargo.toml")
        before = sha256(root_manifest)
        env, target = target_env()
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST],
            cwd=ROOT, env=env, check=True,
        )
        cls.binary = os.path.join(target, "release", "perfbench")
        cls.root_manifest_unchanged = sha256(root_manifest) == before

    def test_builds_offline_as_its_own_workspace(self):
        self.assertTrue(self.root_manifest_unchanged)
        with open(MANIFEST) as f:
            self.assertIn("[workspace]", f.read())
        with open(os.path.join(ROOT, "Cargo.toml")) as f:
            self.assertNotIn("perfbench", f.read())

    def test_vocabulary_matches_benchmark_json(self):
        out = subprocess.run([self.binary, "--list-metrics"], capture_output=True,
                             text=True, check=True)
        vocab = json.loads(out.stdout)
        self.assertEqual([[m["name"], m["unit"]] for m in self.spec["end_to_end"]],
                         vocab["end_to_end"])
        self.assertEqual([[m["name"], m["unit"], m["better"]] for m in self.spec["per_layer"]],
                         vocab["per_layer"])

    def test_every_workload_prints_every_metric(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    result, prov = bench(w["name"], 3, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    self.assertLessEqual(PROVENANCE_KEYS, set(prov))

    def test_generation_is_deterministic_per_seed(self):
        for w in ("dumbbell", "multipath", "campaign"):
            with self.subTest(workload=w):
                a = bench(w, 11, 0)[1]["digest"]
                self.assertEqual(a, bench(w, 11, 0)[1]["digest"])
                self.assertEqual(a, bench(w, 11, 1)[1]["digest"], "traced run differs")
                self.assertNotEqual(a, bench(w, 12, 0)[1]["digest"])

    def test_unit_tests(self):
        env, _ = target_env()
        subprocess.run(
            ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            cwd=ROOT, env=env, check=True,
        )


if __name__ == "__main__":
    unittest.main()
