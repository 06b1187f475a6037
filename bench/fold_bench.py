#!/usr/bin/env python3
"""Fold one `perfbench/compare.py run` into per-workload trajectory files.

    python3 bench/fold_bench.py OUT_DIR [--dest DIR]

Reads the per-seed logs that `compare.py run` wrote under
OUT_DIR/{base,change}/<workload>-<seed>.log and writes one
BENCH_<workload>.json per workload into DIR (default: the current
directory). Each file holds, for both sides, every metric's median,
quartiles and number of runs, plus each seed's REPORT_DIGEST and whether
the two sides' digests agree on every seed. The verdict itself stays with
`compare.py compare`; this only records the numbers it judged.

Exits 1, after writing every file, when a workload's digests disagree on
some seed (a seed run on one side only counts as disagreeing) or a
workload has logs on one side only; it names the workload and seeds.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ as checked out
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from compare import load_runs, quartiles  # noqa: E402


def fold_side(runs, workload):
    """{"metrics": {name: {median, q1, q3, n}}, "digests": {seed: hex}}."""
    seeds = sorted(s for (w, s) in runs if w == workload)
    values = {}
    for s in seeds:
        for name, m in runs[(workload, s)][1]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    metrics = {}
    for name, v in sorted(values.items()):
        q = quartiles(v)
        metrics[name] = {"median": statistics.median(v), "q1": q[0],
                         "q3": q[2], "n": len(v)}
    return {"metrics": metrics,
            "digests": {str(s): runs[(workload, s)][0] for s in seeds}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir")
    ap.add_argument("--dest", default=".")
    args = ap.parse_args()
    base = load_runs(Path(args.out_dir) / "base")
    change = load_runs(Path(args.out_dir) / "change")
    status = 0
    for workload in sorted({w for (w, _) in base} | {w for (w, _) in change}):
        doc = {"workload": workload,
               "source": "perfbench/compare.py run",
               "base": fold_side(base, workload),
               "change": fold_side(change, workload)}
        db, dc = doc["base"]["digests"], doc["change"]["digests"]
        doc["digests_agree"] = bool(db) and db == dc
        path = Path(args.dest) / f"BENCH_{workload}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path}")
        if not db or not dc:
            side = "change" if db else "base"
            print(f"{workload}: no {side} logs", file=sys.stderr)
            status = 1
        elif db != dc:
            seeds = sorted((s for s in db.keys() | dc.keys()
                            if db.get(s) != dc.get(s)), key=int)
            print(f"{workload}: report digests disagree on seeds "
                  f"{', '.join(seeds)}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
