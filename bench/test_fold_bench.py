#!/usr/bin/env python3
"""Self-test of bench/fold_bench.py over synthetic perfbench logs.

    python3 bench/test_fold_bench.py

Writes `compare.py run`-shaped logs into a temp dir and checks that
fold_bench exits 0 when every seed's digests agree, and exits 1 (after
writing its files, naming the seeds) when they disagree or a workload
has logs on one side only.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

FOLD = Path(__file__).resolve().parent / "fold_bench.py"


def write_log(out_dir, side, workload, seed, digest, p50):
    d = Path(out_dir) / side
    d.mkdir(parents=True, exist_ok=True)
    result = {"metrics": {"latency_p50_ms": {"value": p50}}}
    (d / f"{workload}-{seed}.log").write_text(
        f"perfbench workload={workload} seed={seed} seconds=1 trace=0\n"
        f"REPORT_DIGEST {digest}\n"
        f"{json.dumps(result)}\n")


def fold(out_dir, dest):
    return subprocess.run(
        [sys.executable, "-B", str(FOLD), str(out_dir), "--dest", str(dest)],
        capture_output=True, text=True)


class FoldBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.out = Path(self.tmp.name) / "out"
        self.dest = Path(self.tmp.name) / "dest"
        self.dest.mkdir()

    def tearDown(self):
        self.tmp.cleanup()

    def doc(self, workload):
        return json.loads((self.dest / f"BENCH_{workload}.json").read_text())

    def test_agree_exits_zero(self):
        for seed, p50 in ((1, 10.0), (2, 12.0), (3, 11.0)):
            write_log(self.out, "base", "w", seed, f"d{seed}", p50)
            write_log(self.out, "change", "w", seed, f"d{seed}", p50 / 2)
        r = fold(self.out, self.dest)
        self.assertEqual(r.returncode, 0, r.stderr)
        doc = self.doc("w")
        self.assertTrue(doc["digests_agree"])
        base = doc["base"]["metrics"]["latency_p50_ms"]
        self.assertEqual((base["median"], base["n"]), (11.0, 3))
        self.assertEqual(doc["change"]["metrics"]["latency_p50_ms"]["median"],
                         5.5)

    def test_disagree_exits_one_and_names_seeds(self):
        for seed in (1, 2, 3):
            write_log(self.out, "base", "w", seed, f"d{seed}", 10.0)
        write_log(self.out, "change", "w", 1, "d1", 9.0)
        write_log(self.out, "change", "w", 2, "other", 9.0)
        # seed 3 ran on the base side only
        r = fold(self.out, self.dest)
        self.assertEqual(r.returncode, 1)
        self.assertIn("w: report digests disagree on seeds 2, 3", r.stderr)
        self.assertFalse(self.doc("w")["digests_agree"])

    def test_one_side_missing_exits_one_after_writing(self):
        write_log(self.out, "base", "w", 1, "d1", 10.0)
        write_log(self.out, "change", "w", 1, "d1", 9.0)
        write_log(self.out, "base", "lonely", 1, "d1", 10.0)
        r = fold(self.out, self.dest)
        self.assertEqual(r.returncode, 1)
        self.assertIn("lonely: no change logs", r.stderr)
        self.assertTrue(self.doc("w")["digests_agree"])
        self.assertFalse(self.doc("lonely")["digests_agree"])
        self.assertEqual(self.doc("lonely")["change"]["metrics"], {})


if __name__ == "__main__":
    unittest.main()
