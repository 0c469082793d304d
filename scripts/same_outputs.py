#!/usr/bin/env python3
"""Check that two checkouts write the same artifacts.

Runs, in each checkout with that checkout's own ``src/`` on ``PYTHONPATH``:

    scripts/desk_pipeline.py --seed 1
    scripts/desk_pipeline.py --seed 2 --penalty cont
    scripts/accuracy_bench.py --seed 1

each into its own directory under ``--work``, then compares every file the two
sides wrote byte for byte; ``iterations.csv`` is compared without its
``wall_time`` column.  It prints each file that differs or that one side lacks,
and exits 1 on any difference or on a run that exits non-zero, else 0.
``OED_DOPT_THREADS`` defaults to 1 for both sides.

    python3 scripts/same_outputs.py --parent ../parent --change . [--work runs/same]
"""

import argparse
import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = {
    "desk-seed1": ["desk_pipeline.py", "--seed", "1"],
    "desk-seed2-cont": ["desk_pipeline.py", "--seed", "2", "--penalty", "cont"],
    "accuracy-seed1": ["accuracy_bench.py", "--seed", "1"],
}


def run(tree: Path, script: str, args: list, out: Path) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.setdefault("OED_DOPT_THREADS", "1")
    cmd = [sys.executable, str(tree / "scripts" / script), "--out", str(out), *args]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode


def content(path: Path) -> bytes:
    """The file's bytes; for iterations.csv, its rows without the wall_time column."""
    data = path.read_bytes()
    if path.name != "iterations.csv":
        return data
    rows = list(csv.reader(io.StringIO(data.decode())))
    drop = rows[0].index("wall_time") if rows and "wall_time" in rows[0] else None
    text = io.StringIO()
    csv.writer(text).writerows([r[:drop] + r[drop + 1 :] if drop is not None else r for r in rows])
    return text.getvalue().encode()


def files(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def differing(parent: Path, change: Path) -> list:
    """The relative paths under the two directories whose contents differ or that one side lacks."""
    ours, theirs = files(parent), files(change)
    return sorted((ours ^ theirs) | {n for n in ours & theirs if content(parent / n) != content(change / n)})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--work", type=Path, default=None, help="where the runs write (default: a fresh temporary directory)")
    args = ap.parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="same_outputs-"))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    same = True
    for name, (script, *script_args) in RUNS.items():
        outs = {side: work.resolve() / side / name for side in trees}
        codes = {side: run(tree, script, script_args, outs[side]) for side, tree in trees.items()}
        if any(codes.values()):
            print(f"{name}: exit codes {codes}")
            same = False
            continue
        diff = differing(outs["parent"], outs["change"])
        for rel in diff:
            print(f"{name}: {rel} differs")
        same = same and not diff
    print(f"{'same' if same else 'different'} outputs (runs under {work})")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
