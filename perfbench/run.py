#!/usr/bin/env python3
"""Build the benchmark program from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

hsd_perfbench (perfbench/src, built with perfbench/CMakeLists.txt together with
the hsd libraries under src/) prints progress lines and, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. Build output
goes to stderr so that line stays last. The build tree is
$CARGO_TARGET_DIR/perfbench-<hash of the checkout root> ($CARGO_TARGET_DIR
defaults to .bench_build under the checkout root), so checkouts that share a
target directory never share a build. Traces of --trace 1 runs go to
.bench_out/. The workloads are those of BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# hsd_perfbench's time beyond --seconds: training, inputs, references,
# set-ups, warm-ups and, with --trace 1, the layer sweep.
RUN_OVERHEAD_S = 130


def workloads() -> list:
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        return [w["name"] for w in bench["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.exit(f"run.py: cannot read workloads from BENCHMARK.json: {e}")


def build_dir(root: Path = ROOT) -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tag = hashlib.sha1(str(root).encode()).hexdigest()[:12]
    return (d if d.is_absolute() else root / d) / f"perfbench-{tag}"


def build(target: str) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no hsd sources under {ROOT / 'src'}; "
                 "run from a full checkout")
    bdir = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", target])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return bdir / target


def self_test() -> int:
    status = subprocess.run([str(build("perfbench_selftest"))]).returncode
    suite = unittest.defaultTestLoader.discover(
        str(ROOT / "perfbench"), pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if status == 0 and ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads())
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("hsd_perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = args.seconds + RUN_OVERHEAD_S
    t0 = time.monotonic()
    try:
        # run() waits for hsd_perfbench, and kills and reaps it on timeout.
        done = subprocess.run(cmd, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: hsd_perfbench exceeded {timeout} s", file=sys.stderr)
        return 1
    print(f"run.py: hsd_perfbench finished in {time.monotonic() - t0:.1f} s",
          file=sys.stderr)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
