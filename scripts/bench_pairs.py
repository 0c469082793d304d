#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized as medians and quartiles.

Runs ``python3 perfbench/run.py --workload all --seed S`` in two checkouts, once per
seed, alternating which checkout runs first, and writes one JSON file: per
``workload/metric``, each side's runs, median and quartiles, and how many pairs the
change won (ties count for neither side), with the direction taken from
BENCHMARK.json.  The file is rewritten after every pair.  A run that prints no
result line counts as failed (``failed`` null, ``correct`` false) and keeps its
exit code; a metric is summarized over the pairs in which both sides report it.
The script exits 1 once the record is written if any run exited non-zero or
reported ``correct: false``, else 0.

    python3 scripts/bench_pairs.py --parent ../parent --change . --seeds 31-40 --out BENCH_11.json
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np


def run(tree: Path, seed: int) -> dict:
    """The run's result line, with its exit code; a run that prints none is a failed run."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", "all", "--seed", str(seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=tree)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": None, "metrics": {}}
    return {**result, "exit_code": proc.returncode}


def commit(tree: Path) -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, text=True, cwd=tree).stdout.strip()


def summary(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1), "runs": values}


def seed_range(text: str) -> list:
    """The seeds of "S" (one seed) or "first-last" with first <= last; anything else is an argparse error."""
    m = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    seeds = list(range(int(m[1]), int(m[2] or m[1]) + 1)) if m else []
    if not seeds:
        raise argparse.ArgumentTypeError(f"need S or first-last with first <= last, got {text!r}")
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--seeds", type=seed_range, required=True, help="first-last, e.g. 31-40, or one seed S")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(trees["change"] / "BENCHMARK.json") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    seeds = args.seeds
    commits = {side: commit(tree) for side, tree in trees.items()}
    results = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run(trees[side], seed))
            r = results[side][-1]
            print(f"seed {seed} {side}: exit {r['exit_code']}, failed {r['failed']}", file=sys.stderr, flush=True)
        write_record(args.out, seeds[: i + 1], commits, results, better)
    return 0 if all(r["exit_code"] == 0 and r["correct"] for rs in results.values() for r in rs) else 1


def write_record(out: Path, seeds: list, commits: dict, results: dict, better: dict) -> None:
    """Summarize the pairs run so far; a metric counts the pairs in which both sides report it."""
    metrics = {}
    names = sorted({name for rs in results.values() for r in rs for name in r["metrics"]})
    for name in names:
        direction = better[name.split("/")[-1]]
        sign = 1.0 if direction == "lower" else -1.0
        pairs = [
            (b["metrics"][name]["value"], n["metrics"][name]["value"])
            for b, n in zip(results["parent"], results["change"])
            if name in b["metrics"] and name in n["metrics"]
        ]
        if not pairs:
            continue
        base, new = (list(side) for side in zip(*pairs))
        metrics[name] = {
            "better": direction,
            "parent": summary(base),
            "change": summary(new),
            "change_wins": sum(sign * (b - n) > 0 for b, n in pairs),
            "pairs": len(pairs),
        }
    record = {
        "command": "python3 perfbench/run.py --workload all --seed S",
        "seeds": seeds,
        "order": "parent first on even pair index, change first on odd",
        "commits": commits,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "exit_codes": {side: [r["exit_code"] for r in rs] for side, rs in results.items()},
        "failed": {side: [r["failed"] for r in rs] for side, rs in results.items()},
        "correct": {side: all(r["correct"] for r in rs) for side, rs in results.items()},
        "metrics": metrics,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
