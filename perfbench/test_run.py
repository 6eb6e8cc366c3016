#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size on two seeds.

Run from the root of the repository:

    python3 perfbench/test_run.py

For each workload and each of two seeds it runs `run.py` with tracing off
and on, and checks that every run passes its correctness gates, that every
metric `BENCHMARK.json` names is printed exactly once with its unit as a
finite number, that the environment stamp is complete, and that the two
seeds replay different traces (different session checksums).
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (11, 12)
TINY_OPS = {"mixed_replay": 4096, "bitwise_replay": 2048, "fleet_replay": 4096}
STAMP_KEYS = {
    "workload", "seed", "trace", "nproc", "profile", "git_commit", "rustc",
    "ops_per_session", "batch", "clients", "sessions", "batch_samples",
    "batch_p99_ms", "samples_beyond_p99", "checksums", "gates", "spans", "host",
}


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys in {keys}")
    return dict(pairs)


def run(workload, seed, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
        "--ops", str(TINY_OPS[workload]),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    stamp = json.loads(lines[-2], object_pairs_hook=unique_keys)["perfbench"]
    result = json.loads(lines[-1], object_pairs_hook=unique_keys)
    return stamp, result


class HeldOutSeeds(unittest.TestCase):
    def test_every_workload_on_two_seeds(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        # fleet_replay is not in BENCHMARK.json (see README.md) but stays runnable.
        for workload in TINY_OPS:
            checksums = {}
            for seed in SEEDS:
                for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                    with self.subTest(workload=workload, seed=seed, trace=trace):
                        stamp, result = run(workload, seed, trace)
                        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                        self.assertIs(result["correct"], True)
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertEqual(result["failed"], 0)
                        units = {m["name"]: m["unit"] for m in spec[group]}
                        self.assertEqual(set(result["metrics"]), set(units))
                        for name, metric in result["metrics"].items():
                            self.assertEqual(metric["unit"], units[name], name)
                            self.assertTrue(math.isfinite(metric["value"]), name)

                        self.assertEqual(set(stamp), STAMP_KEYS)
                        self.assertEqual((stamp["workload"], stamp["seed"]), (workload, seed))
                        self.assertEqual(stamp["profile"], "release")
                        self.assertGreaterEqual(stamp["nproc"], 1)
                        self.assertEqual(stamp["ops_per_session"], TINY_OPS[workload])
                        self.assertIn("sample_mixed_pin", stamp["gates"])
                        self.assertIn("sample_bitwise_pin", stamp["gates"])
                        if trace:
                            self.assertTrue(os.path.getsize(os.path.join(ROOT, stamp["spans"])) > 0)
                        checksums.setdefault(seed, stamp["checksums"])
                        self.assertEqual(checksums[seed], stamp["checksums"])
            self.assertNotEqual(checksums[SEEDS[0]], checksums[SEEDS[1]], workload)


if __name__ == "__main__":
    unittest.main()
