#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized as medians and quartiles.

Runs ``python3 perfbench/run.py --workload all --seed S`` in two checkouts, once per
seed, alternating which checkout runs first, and writes one JSON file: per
``workload/metric``, each side's runs, median and quartiles, and how many pairs the
change won (ties count for neither side), with the direction taken from
BENCHMARK.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . --seeds 31-40 --out BENCH_11.json
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def run(tree: Path, seed: int) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", "all", "--seed", str(seed)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=tree).stdout.strip().splitlines()
    return json.loads(out[-1])


def commit(tree: Path) -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, text=True, cwd=tree).stdout.strip()


def summary(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1), "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 31-40")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(trees["change"] / "BENCHMARK.json") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    results = {"parent": [], "change": []}
    for i, seed in enumerate(range(first, last + 1)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run(trees[side], seed))
            print(f"seed {seed} {side}: failed {results[side][-1]['failed']}", file=sys.stderr, flush=True)

    metrics = {}
    for name in results["change"][0]["metrics"]:
        direction = better[name.split("/")[-1]]
        sign = 1.0 if direction == "lower" else -1.0
        base = [r["metrics"][name]["value"] for r in results["parent"]]
        new = [r["metrics"][name]["value"] for r in results["change"]]
        metrics[name] = {
            "better": direction,
            "parent": summary(base),
            "change": summary(new),
            "change_wins": sum(sign * (b - n) > 0 for b, n in zip(base, new)),
            "pairs": len(base),
        }
    record = {
        "command": "python3 perfbench/run.py --workload all --seed S",
        "seeds": list(range(first, last + 1)),
        "order": "parent first on even pair index, change first on odd",
        "commits": {side: commit(tree) for side, tree in trees.items()},
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "failed": {side: [r["failed"] for r in rs] for side, rs in results.items()},
        "correct": {side: all(r["correct"] for r in rs) for side, rs in results.items()},
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
