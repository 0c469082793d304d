#!/usr/bin/env python3
"""In-process A/B of one benchmark workload: two source trees, one process, alternating rounds.

Loads each tree's ``src/oed_dopt`` and ``perfbench/workloads.py`` (with the
``perfbench/exact.py`` it imports) into this process under module names of
their own, so each tree has its own solve counter.  Each round runs the named
workload's ``work`` once on each tree, alternating which tree goes first, and
times it in wall seconds (``time.perf_counter``) and in this process's CPU
seconds (``time.process_time``); set-up runs outside the timed region,
once per tree or, for a workload that needs fresh state (desk), before every
round.  Afterwards each tree's ``finish()`` runs its correctness checks.

The JSON record holds, per tree, a SHA-256 of its package sources, the wall
and CPU seconds of every round with their medians and quartiles, the solves of
every round and the checks; and the change's win count (rounds in which it took
fewer wall seconds) and the change/parent ratios of the wall and CPU medians.
CPU seconds leave out the time the process waits for a core, so they hold
still where co-running load stretches the wall seconds.  The exit code is 1
if a check failed, a round raised, or a tree's solves differed between its
own rounds, else 0.  BLAS runs one thread, as in perfbench.

    python3 scripts/ab_inprocess.py --parent ../parent --change . --workload mesh-eig \\
        --rounds 20 --seed 1 --out AB.json
"""

import os

for _var in ("OED_DOPT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported: one BLAS thread

import argparse
import hashlib
import importlib
import importlib.util
import json
import platform
import shutil
import sys
import tempfile
import time
import traceback
import warnings
from contextlib import contextmanager
from pathlib import Path

from bench_pairs import summary

SIDES = ("parent", "change")
WORKLOAD_NAMES = ("desk", "mesh-rand", "mesh-frozen", "mesh-eig")


def _load(name: str, path: Path, package_dir: Path | None = None):
    """Execute the file at ``path`` as module ``name``, a package if ``package_dir`` is given."""
    locations = [str(package_dir)] if package_dir is not None else None
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Tree:
    """One source tree's package and workload module, under names suffixed with ``side``.

    While :meth:`active` is entered, the plain names ``oed_dopt``, ``oed_dopt.*``
    and ``exact`` point at this tree's modules, so an absolute import made at
    call time (``workloads.desk_config`` runs ``scripts/desk_pipeline.py``)
    reads this tree too.
    """

    def __init__(self, side: str, root: Path):
        src = root / "src" / "oed_dopt"
        package = f"oed_dopt__{side}"
        _load(package, src / "__init__.py", src)
        self.aliases = {"oed_dopt": sys.modules[package]}
        for path in sorted(src.glob("*.py")):
            if path.stem != "__init__":
                self.aliases[f"oed_dopt.{path.stem}"] = importlib.import_module(f"{package}.{path.stem}")
        self.aliases["exact"] = _load(f"exact__{side}", root / "perfbench" / "exact.py")
        with self.active():
            self.workloads = _load(f"workloads__{side}", root / "perfbench" / "workloads.py")

    @contextmanager
    def active(self):
        saved = {name: sys.modules.get(name) for name in self.aliases}
        sys.modules.update(self.aliases)
        try:
            yield
        finally:
            for name, module in saved.items():
                if module is None:
                    sys.modules.pop(name, None)
                else:
                    sys.modules[name] = module


def source_digest(root: Path) -> str:
    """SHA-256 over the tree's package sources, file names included, in name order."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "oed_dopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_rounds(trees: dict, args, scratch: Path) -> dict:
    """Seconds and solves of every round per side, and the side's checks; ``raised`` if a
    round or a finish() raised."""
    out = {side: {"seconds": [], "cpu_seconds": [], "solves": []} for side in SIDES}
    out["raised"] = False
    workloads, states = {}, {}
    for side, tree in trees.items():
        (scratch / side).mkdir()
        with tree.active():
            wl_module = tree.workloads
            workloads[side] = wl_module.WORKLOADS[args.workload](args.seed, args.smoke, wl_module.Run(), scratch / side)
    try:
        for i in range(args.rounds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                wl = workloads[side]
                with trees[side].active(), wl.probes():
                    if wl.fresh_state or side not in states:
                        states[side] = wl.setup()[0]
                    t0, c0 = time.perf_counter(), time.process_time()
                    work = wl.work(states[side])
                    out[side]["seconds"].append(time.perf_counter() - t0)
                    out[side]["cpu_seconds"].append(time.process_time() - c0)
                    out[side]["solves"].append(int(work["solves"]))
            print(f"round {i + 1}/{args.rounds}: " + ", ".join(
                f"{side} {out[side]['seconds'][-1]:.4f} s" for side in SIDES), file=sys.stderr, flush=True)
        for side in SIDES:
            with trees[side].active():
                workloads[side].finish()
    except Exception:  # recorded and reported as a failed run
        traceback.print_exc()
        out["raised"] = True
    for side in SIDES:
        out[side]["checks"] = workloads[side].run.checks
        out[side]["failed"] = workloads[side].run.failed
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="tree of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="tree of the change")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--smoke", action="store_true", help="the workload's tiny sizes, for tests")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.seed < 0:
        ap.error("need --rounds >= 1 and --seed >= 0")
    warnings.filterwarnings("ignore", message="sketch subspace is numerically rank deficient")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    trees = {side: Tree(side, root) for side, root in roots.items()}
    scratch = Path(tempfile.mkdtemp(prefix="ab-inprocess-"))
    try:
        result = run_rounds(trees, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    seconds = {side: result[side]["seconds"] for side in SIDES}
    cpu_seconds = {side: result[side]["cpu_seconds"] for side in SIDES}
    rounds_done = min(len(s) for s in seconds.values())
    record = {
        "command": f"python3 scripts/ab_inprocess.py --parent PARENT --change CHANGE --workload {args.workload} "
        f"--rounds {args.rounds} --seed {args.seed}" + (" --smoke" if args.smoke else ""),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "rounds": rounds_done,
        "order": "parent first on even round index, change first on odd",
        "timed": "workload.work(state) per round; set-up and finish() untimed",
        "src_sha256": {side: source_digest(root) for side, root in roots.items()},
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "seconds": {side: summary(s) for side, s in seconds.items() if s},
        "cpu_seconds": {side: summary(s) for side, s in cpu_seconds.items() if s},
        "change_wins": sum(c < p for p, c in zip(seconds["parent"], seconds["change"])),
        "solves": {side: result[side]["solves"] for side in SIDES},
        "checks": {side: result[side]["checks"] for side in SIDES},
        "failed": {side: result[side]["failed"] for side in SIDES},
        "raised": result["raised"],
    }
    if rounds_done:
        for key, ratio in (("seconds", "median_ratio"), ("cpu_seconds", "cpu_median_ratio")):
            record[ratio] = record[key]["change"]["median"] / record[key]["parent"]["median"]
    args.out.write_text(json.dumps(record, indent=1) + "\n")

    ok = not result["raised"]
    for side in SIDES:
        spent = sorted(set(result[side]["solves"]))
        if result[side]["failed"] or len(spent) != 1:
            print(f"ab_inprocess: {side} failed {result[side]['failed']} checks; solves per round {spent}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
