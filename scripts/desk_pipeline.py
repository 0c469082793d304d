#!/usr/bin/env python3
"""Run the full desk-scale pipeline: synthesize -> oed -> evaluate -> compare.

Writes a default desk configuration (35 candidate sensors, 3 observation
times, n = 121) next to the outputs and drives the CLI commands on it.  Each
command's forward and adjoint PDE solves and its seconds are printed as it
finishes.

    python scripts/desk_pipeline.py [--out runs/desk] [--seed 1]
"""

import argparse
import json
import os
import sys
import time

from oed_dopt.accounting import solve_counter
from oed_dopt.cli import main as cli_main

DESK_CONFIG = {
    "mesh": {"nx": 10},
    "pde": {"kappa": 0.05, "T": 2.0, "n_steps": 20},
    "sensors": {"grid": [7, 5], "margin": [0.2, 0.3]},
    "obs": {"times": [0.5, 1.0, 2.0]},
    # synthesize 30% data noise, but run the design at sigma = 4x the peak
    # signal so the per-sensor information stays unsaturated and the relaxed
    # l1 solution lands near the box vertices
    "noise": {"pct": 0.3, "sigma_rel": 4.0},
    "sketch": {"k": 40, "p": 5, "q": 1},
    "opt": {"method": "rand", "penalty": "l1", "gamma": 0.6, "threshold": 0.03},
}


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/desk")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--penalty", choices=["l1", "cont"], default="l1")
    ap.add_argument("--gamma", type=float, default=None)
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    config = json.loads(json.dumps(DESK_CONFIG))
    config["opt"]["penalty"] = args.penalty
    if args.gamma is not None:
        config["opt"]["gamma"] = args.gamma
    cfg_path = os.path.join(args.out, "config.json")
    with open(cfg_path, "w") as f:
        json.dump(config, f, indent=2)

    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    for cmd in (
        ["synthesize", "--config", cfg_path, "--out", args.out],
        ["oed", "--config", cfg_path, "--out", args.out],
        ["evaluate", "--config", cfg_path, "--weights", os.path.join(args.out, "weights.csv"), "--out", args.out],
        [
            "compare-random",
            "--config",
            cfg_path,
            "--weights",
            os.path.join(args.out, "weights.csv"),
            "--n-designs",
            "200",
            "--out",
            args.out,
        ],
    ):
        t0 = time.perf_counter()
        rc = cli_main(cmd + seed)
        seconds = time.perf_counter() - t0
        if rc != 0:
            return rc
        spent = solve_counter.snapshot()  # cli main() resets the tally on entry
        print(f"done: {cmd[0]}: {spent.forward} forward + {spent.adjoint} adjoint solves, {seconds:.2f} s")
    print(f"artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(run())
