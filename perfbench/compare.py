#!/usr/bin/env python3
"""Compare two commits on the benchmark, by the rule for claiming a gain.

    python3 perfbench/compare.py run BASE_ROOT CHANGE_ROOT OUT_DIR [--seeds A-B]
    python3 perfbench/compare.py compare BASE_LOGS CHANGE_LOGS

`run` runs `python3 perfbench/run.py` from two checkout roots, one pair of
runs per (workload, seed) for every workload of BENCHMARK.json at its
run_seconds, alternating which side runs first, and keeps each run's stdout
as OUT_DIR/{base,change}/<workload>-<seed>.log. Each side builds into its
own OUT_DIR/<side>/build.

`compare` pairs the untraced runs of two log directories by (workload, seed)
and prints one row per workload and end-to-end metric of BENCHMARK.json:
each side's median and quartiles, the share of pairs the change wins (ties
count for neither) and a verdict:

  improved       the change wins >= 9/10 of all pairs and the medians differ
                 by more than the base's interquartile distance;
  unresolved     the base's own spread is wider than the metric's bound,
                 unless every change run reads better than every base run;
  regressed      the change's median is worse than the base's by more than
                 the bound;
  no regression  otherwise.

It also reports whether the report digests of each pair agree. The exit
status is 1 when any metric regressed or the share of failed operations
rose, else 0.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = re.compile(r"^perfbench workload=(\S+) seed=(\d+) .*trace=(\d)")


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_log(text):
    """(workload, seed, trace, digest, result) of one run's stdout."""
    workload = seed = trace = digest = None
    for line in text.splitlines():
        m = HEADER.match(line)
        if m:
            workload, seed, trace = m.group(1), int(m.group(2)), int(m.group(3))
        elif line.startswith("REPORT_DIGEST "):
            digest = line.split()[1]
    lines = text.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return workload, seed, trace, digest, result


def load_runs(directory):
    """{(workload, seed): (digest, result)} of the untraced runs."""
    runs = {}
    for path in sorted(Path(directory).glob("*.log")):
        try:
            workload, seed, trace, digest, result = parse_log(path.read_text())
        except (ValueError, IndexError):
            print(f"skipping {path}: no result line", file=sys.stderr)
            continue
        if workload is not None and trace == 0 and result is not None:
            runs[(workload, seed)] = (digest, result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def pair_wins(base, change, better):
    """Share of pairs in which the change reads strictly better."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    return wins / len(base)


def verdict(base, change, better, bound):
    """The section-8 verdict for one metric on paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    mb, mc = statistics.median(base), statistics.median(change)
    qb = quartiles(base)
    iqr = qb[2] - qb[0]
    if pair_wins(base, change, better) >= 0.9 and abs(mc - mb) > iqr:
        return "improved"
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if mb != 0 and iqr / abs(mb) > bound and not all_better:
        return "unresolved"
    worse = sign * (mb - mc) / abs(mb) if mb != 0 else 0.0
    if worse > bound:
        return "regressed"
    return "no regression"


def failure_share(runs):
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] + (0 if r["correct"] else 1) for _, r in runs)
    return failed / attempted if attempted else 0.0


def compare(base_dir, change_dir):
    bench = load_benchmark()
    base, change = load_runs(base_dir), load_runs(change_dir)
    status = 0
    fmt = "{:<16} {:<15} {:>28} {:>28} {:>6}  {}"
    print(fmt.format("workload", "metric", "base median [q1, q3]",
                     "change median [q1, q3]", "wins", "verdict"))
    for w in bench["workloads"]:
        name = w["name"]
        keys = sorted(s for (wl, s) in base if wl == name
                      and (wl, s) in change)
        if not keys:
            print(f"{name}: no paired runs")
            status = 1
            continue
        pairs_b = [base[(name, s)] for s in keys]
        pairs_c = [change[(name, s)] for s in keys]
        for m in bench["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for _, r in pairs_b]
            c = [r["metrics"][m["name"]]["value"] for _, r in pairs_c]
            v = verdict(b, c, m["better"], m["bound"])
            qb, qc = quartiles(b), quartiles(c)
            print(fmt.format(
                name, m["name"],
                f"{statistics.median(b):.5g} [{qb[0]:.5g}, {qb[2]:.5g}]",
                f"{statistics.median(c):.5g} [{qc[0]:.5g}, {qc[2]:.5g}]",
                f"{pair_wins(b, c, m['better']):.0%}", v))
            if v == "regressed":
                status = 1
        fb, fc = failure_share(pairs_b), failure_share(pairs_c)
        if fc > fb:
            print(f"{name}: failed share rose {fb:.4g} -> {fc:.4g}")
            status = 1
        differ = [s for s in keys if base[(name, s)][0] != change[(name, s)][0]]
        print(f"{name}: {len(keys)} pairs; report digests "
              + ("agree" if not differ else f"differ on seeds {differ}"))
    return status


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_pairs(base_root, change_root, out_dir, seeds, workloads, seconds):
    out = Path(out_dir)
    sides = {"base": Path(base_root).resolve(),
             "change": Path(change_root).resolve()}
    for side in sides:
        (out / side).mkdir(parents=True, exist_ok=True)
    for i, seed in enumerate(seeds):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for workload in workloads:
            for side in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(seconds), "--trace", "0"]
                env = dict(os.environ,
                           CARGO_TARGET_DIR=str((out / side / "build").resolve()))
                done = subprocess.run(cmd, cwd=sides[side], env=env,
                                      capture_output=True, text=True)
                (out / side / f"{workload}-{seed}.log").write_text(done.stdout)
                print(f"{side} {workload} seed {seed}: exit {done.returncode}",
                      flush=True)


def main():
    ap = argparse.ArgumentParser(
        description="Compare two commits on the benchmark.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("base_root")
    r.add_argument("change_root")
    r.add_argument("out_dir")
    r.add_argument("--seeds", default="1-10")
    c = sub.add_parser("compare")
    c.add_argument("base_logs")
    c.add_argument("change_logs")
    args = ap.parse_args()
    if args.cmd == "compare":
        return compare(args.base_logs, args.change_logs)
    bench = load_benchmark()
    run_pairs(args.base_root, args.change_root, args.out_dir,
              seed_list(args.seeds), [w["name"] for w in bench["workloads"]],
              bench["run_seconds"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
