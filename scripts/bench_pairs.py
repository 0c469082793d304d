#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized as medians and quartiles.

Runs ``python3 perfbench/run.py --workload all --seed S`` in two checkouts, once per
seed, alternating which checkout runs first, and writes one JSON file: per
``workload/metric``, each side's runs, median and quartiles, and how many pairs the
change won (ties count for neither side), with the direction and bound taken from
BENCHMARK.json, and the verdict on that bound: ``median_ratio`` (change over parent),
``within_bound`` (the change's median is no worse than the parent's by more than
bound x the parent's median) and ``unresolved`` (the parent's IQR exceeds bound x its
median, so the runs spread too widely to tell).  The file is rewritten after every
pair.  A run that prints no result line counts as failed (``failed`` null,
``correct`` false) and keeps its exit code; a metric is summarized over the pairs in
which both sides report it.
Each run also records the host's load around it, read-only from ``/proc``: the
1-minute load average before the run (``load_1min``) and the ``cpu`` line's steal
and iowait ticks over the run; ``host_load`` holds each side's runs and medians,
and a value is null where ``/proc`` does not have it.
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


PROC = Path("/proc")
HOST_FIELDS = ("load_1min", "steal_ticks", "iowait_ticks")


def load_1min() -> float | None:
    try:
        return float((PROC / "loadavg").read_text().split()[0])
    except (OSError, IndexError, ValueError):
        return None


def cpu_ticks() -> dict | None:
    """Steal and iowait ticks of /proc/stat's ``cpu`` line (fields 8 and 5 after its label at 0), or None."""
    try:
        fields = (PROC / "stat").read_text().splitlines()[0].split()
        return {"steal_ticks": int(fields[8]), "iowait_ticks": int(fields[5])}
    except (OSError, IndexError, ValueError):
        return None


def run(tree: Path, seed: int) -> dict:
    """The run's result line, with its exit code and the host's load around it; a run
    that prints none is a failed run."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", "all", "--seed", str(seed)]
    load, before = load_1min(), cpu_ticks()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=tree)
    after = cpu_ticks()
    host = {"load_1min": load}
    for name in HOST_FIELDS[1:]:
        host[name] = after[name] - before[name] if before and after else None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": None, "metrics": {}}
    return {**result, "exit_code": proc.returncode, "host": host}


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
        end_to_end = {m["name"]: m for m in json.load(f)["end_to_end"]}

    seeds = args.seeds
    commits = {side: commit(tree) for side, tree in trees.items()}
    results = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run(trees[side], seed))
            r = results[side][-1]
            print(f"seed {seed} {side}: exit {r['exit_code']}, failed {r['failed']}", file=sys.stderr, flush=True)
        write_record(args.out, seeds[: i + 1], commits, results, end_to_end)
    return 0 if all(r["exit_code"] == 0 and r["correct"] for rs in results.values() for r in rs) else 1


def write_record(out: Path, seeds: list, commits: dict, results: dict, end_to_end: dict) -> None:
    """Summarize the pairs run so far; a metric counts the pairs in which both sides report it."""
    metrics = {}
    names = sorted({name for rs in results.values() for r in rs for name in r["metrics"]})
    for name in names:
        spec = end_to_end[name.split("/")[-1]]
        direction, bound = spec["better"], spec["bound"]
        sign = 1.0 if direction == "lower" else -1.0
        pairs = [
            (b["metrics"][name]["value"], n["metrics"][name]["value"])
            for b, n in zip(results["parent"], results["change"])
            if name in b["metrics"] and name in n["metrics"]
        ]
        if not pairs:
            continue
        base, new = (list(side) for side in zip(*pairs))
        parent, change = summary(base), summary(new)
        scale = bound * abs(parent["median"])
        metrics[name] = {
            "better": direction,
            "bound": bound,
            "parent": parent,
            "change": change,
            "change_wins": sum(sign * (b - n) > 0 for b, n in pairs),
            "pairs": len(pairs),
            "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
            "within_bound": bool(sign * (change["median"] - parent["median"]) <= scale),
            "unresolved": bool(parent["iqr"] > scale),
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
        "host_load": {side: host_load([r["host"] for r in rs]) for side, rs in results.items()},
        "metrics": metrics,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")


def host_load(runs: list) -> dict:
    """Each run's host load and, per field, the median over the runs that have it (else null)."""
    medians = {}
    for name in HOST_FIELDS:
        values = [h[name] for h in runs if h[name] is not None]
        medians[name] = float(np.median(values)) if values else None
    return {"runs": runs, "median": medians}


if __name__ == "__main__":
    sys.exit(main())
