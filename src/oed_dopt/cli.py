"""Command-line experiment drivers.

    oed-dopt <synthesize|oed|evaluate|compare-random|bench> --config FILE
             [--out DIR] [--seed U64] [--weights FILE] [--n-designs N]

Every command emits a resolved-config JSON (defaults explicit, content hash
included) next to its CSV artifacts; re-running with the same config and seed
reproduces the data artifacts byte for byte (timing columns excepted).  Exit
codes: 0 success, 2 configuration/validation error, 1 numerical failure.
"""

import os
import sys

_threads = os.environ.get("OED_DOPT_THREADS")
if _threads:
    # must happen before numpy spins up its thread pools
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import csv
import dataclasses
import json

import numpy as np

from .accounting import solve_counter
from .bench import error_vs_rank_sweep, mesh_refinement_sweep
from .config import ExperimentConfig
from .errors import ConfigError, NumericalError
from .inverse import map_estimate
from .oed import check_design_weights, check_tol, kl_divergence
from .optimize import IterationRecord, check_solve, random_binary_designs, solve_continuation, solve_l1
from .problem import build_problem
from .sketch import SketchConfig


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def export_mesh_csv(mesh, nodes_path, triangles_path) -> None:
    """Write the node table (id,x,y) and triangle table (id,n0,n1,n2)."""
    write_csv(nodes_path, ["id", "x", "y"], [[i, x, y] for i, (x, y) in enumerate(mesh.nodes)])
    write_csv(triangles_path, ["id", "n0", "n1", "n2"], [[i, *tri] for i, tri in enumerate(mesh.triangles)])


def write_json(path, payload) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        cfg = cfg.with_master_seed(args.seed)
    return cfg


def _read_weights(path, n_s: int):
    """(weights, active) from a weights.csv listing each sensor_id 0..n_s-1 once; else a :class:`ConfigError`."""
    with open(path) as f:
        try:
            rows = [(int(r["sensor_id"]), float(r["weight"]), int(r["active"])) for r in csv.DictReader(f)]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed weights file {path}: {exc!r}") from exc
    weights = np.zeros(n_s)
    active = np.zeros(n_s, dtype=int)
    for i, weight, flag in rows:
        if not 0 <= i < n_s:
            raise ConfigError(f"weights file sensor_id {i} out of range for n_s = {n_s}")
        if flag not in (0, 1):
            raise ConfigError(f"weights file active flag {flag} of sensor {i} is not 0 or 1")
        weights[i], active[i] = weight, flag
    if sorted(i for i, _, _ in rows) != list(range(n_s)):
        raise ConfigError(f"weights file must list each sensor_id 0..{n_s - 1} exactly once")
    return check_design_weights(weights, n_s), active


def _sketch_config(config: ExperimentConfig) -> SketchConfig:
    seeds = config.derived_seeds()
    return SketchConfig(k=config.sketch.k, p=config.sketch.p, q=config.sketch.q, seed=seeds["sketch"])


def _prepare_design(problem, out_dir):
    """Design problem with the z step's C = G G^T served from the on-disk cache."""
    design = problem.design
    design.ensure_z(os.path.join(out_dir, "z_cache.bin"), problem.z_config_hash())
    return design


def _estimator(problem, config: ExperimentConfig):
    """The estimator of ``opt.method``, with the config's defaults for its rank."""
    design = problem.design
    opt = config.opt
    k_f = opt.frozen_k or min(design.rank_bound, config.sketch.k + config.sketch.p)
    return design.estimator(
        opt.method, k=opt.eig_k or config.sketch.k, cfg=_sketch_config(config), frozen=lambda: design.build_frozen(k_f)
    )


def cmd_synthesize(config: ExperimentConfig, out_dir: str) -> None:
    problem = build_problem(config)
    y_obs, sigma = problem.synthesize()
    obs = problem.obs
    rows = []
    for idx, value in enumerate(y_obs):
        rows.append([idx, idx // obs.n_s, idx % obs.n_s, value])
    write_csv(os.path.join(out_dir, "y_obs.csv"), ["index", "time_id", "sensor_id", "value"], rows)
    write_csv(
        os.path.join(out_dir, "sigma.csv"),
        ["sensor_id", "sigma"],
        [[j, s] for j, s in enumerate(sigma)],
    )
    write_csv(
        os.path.join(out_dir, "theta_true.csv"),
        ["node_id", "value"],
        [[i, v] for i, v in enumerate(problem.theta_true)],
    )
    export_mesh_csv(
        problem.mesh,
        os.path.join(out_dir, "mesh_nodes.csv"),
        os.path.join(out_dir, "mesh_triangles.csv"),
    )
    config.save_resolved(os.path.join(out_dir, "resolved_config.json"))


def cmd_oed(config: ExperimentConfig, out_dir: str) -> None:
    opt = config.opt
    if opt.penalty == "l1":
        solve, route = solve_l1, {"threshold_rel": opt.threshold}
    elif opt.penalty == "cont":
        solve, route = solve_continuation, {"schedule": [0.5**i for i in range(1, opt.cont_stages + 1)]}
    else:
        raise ConfigError(f"unknown opt.penalty {opt.penalty!r} (expected 'l1' or 'cont')")
    check_solve(opt.gamma, opt.tol, opt.max_iters, **route)
    problem = build_problem(config)
    design = _prepare_design(problem, out_dir)
    estimator = _estimator(problem, config)
    dense_ref = design.dense_reference() if design.dense_allowed else None
    result = solve(estimator, opt.gamma, tol=opt.tol, max_iters=opt.max_iters, dense_ref=dense_ref, **route)

    coords = problem.obs.sensor_coords
    write_csv(
        os.path.join(out_dir, "weights.csv"),
        ["sensor_id", "x", "y", "weight", "active"],
        [
            [j, coords[j, 0], coords[j, 1], result.w_opt[j], int(result.binary[j])]
            for j in range(design.n_s)
        ],
    )
    write_json(
        os.path.join(out_dir, "result.json"),
        {"converged": bool(result.converged), "reached_binary": bool(result.reached_binary)},
    )
    write_csv(
        os.path.join(out_dir, "iterations.csv"),
        [f.name for f in dataclasses.fields(IterationRecord)],
        [["" if v is None else v for v in dataclasses.astuple(r)] for r in result.history],
    )
    if result.stages:
        write_csv(
            os.path.join(out_dir, "stages.csv"),
            ["stage", "eps", "iterations", "objective", "max_distance_to_binary"],
            [
                [i, s["eps"], s["iterations"], s["objective"], s["max_distance_to_binary"]]
                for i, s in enumerate(result.stages, start=1)
            ],
        )
    config.save_resolved(os.path.join(out_dir, "resolved_config.json"))


def cmd_evaluate(config: ExperimentConfig, weights_file: str, out_dir: str) -> None:
    check_tol(config.opt.tol)
    problem = build_problem(config)
    w, _ = _read_weights(weights_file, problem.obs.n_s)
    design = _prepare_design(problem, out_dir)
    est = _estimator(problem, config)
    y_obs, _ = problem.synthesize()
    sk = _sketch_config(config)

    metrics = {}
    if design.dense_allowed and np.sum(w) > 0:
        J_dense = design.dense_reference().evaluate(w)[0]
        scale = max(abs(J_dense), 1e-300)
        errors = {"dense_J": J_dense}
        errors["eig_rel_err"] = abs(design.objective_eig(w, min(sk.k, design.rank_bound)) - J_dense) / scale
        errors["rand_rel_err"] = abs(design.objective_rand(w, sk) - J_dense) / scale
        frozen = design.build_frozen(min(design.rank_bound, sk.l))
        errors["frozen_rel_err"] = abs(design.objective_grad_frozen(w, frozen)[0] - J_dense) / scale
        metrics["errors_vs_dense"] = errors
    # after the errors block, so that the sketch and the MAP point read any Eig-k factor held for w, at no solve
    # KL has no frozen form: the frozen method reports the sketch's KL
    kl_est = design.estimator("rand", cfg=sk) if est.name == "frozen" else est
    lam = kl_est.spectrum(w)
    J = est.objective(w)  # the same sketch or eigensolve as lam, unless frozen
    metrics.update(J=J, info_gain=0.5 * J, method=est.name, kl_method=kl_est.name)
    report = map_estimate(design, w, y_obs, tol=min(config.opt.tol, 1e-8))
    metrics["D_KL"] = kl_divergence(lam, design.G.prior.weighted_norm_sq(report.theta_post))
    metrics["map_cg_iterations"] = report.iterations
    write_json(os.path.join(out_dir, "metrics.json"), metrics)
    config.save_resolved(os.path.join(out_dir, "resolved_config.json"))


def cmd_compare_random(config: ExperimentConfig, weights_file: str, n_designs: int, out_dir: str) -> None:
    if n_designs < 1:
        raise ConfigError("need at least one random design")
    problem = build_problem(config)
    _, active = _read_weights(weights_file, problem.obs.n_s)
    cardinality = int(active.sum())
    if cardinality == 0:
        raise ConfigError("optimal design has no active sensors; nothing to compare")
    design = _prepare_design(problem, out_dir)
    y_obs, _ = problem.synthesize()
    sk = _sketch_config(config)
    # J and KL are exact where the dense reference is allowed (0 solves), else
    # one sketch per design serves both and the MAP point costs a CG solve
    est = design.estimator("dense") if design.dense_allowed else design.estimator("rand", cfg=sk)

    randoms = random_binary_designs(design.n_s, cardinality, n_designs, seed=problem.seeds["designs"])
    rows = []
    for design_id, wb in enumerate([active] + list(randoms)):
        wv = wb.astype(float)
        rows.append([design_id, -est.objective(wv), design.kl_estimate(wv, y_obs, est.name, cfg=sk)])
    write_csv(
        os.path.join(out_dir, "cloud.csv"),
        ["design_id", "neg_J", "info_gain_from_data"],
        rows,
    )
    config.save_resolved(os.path.join(out_dir, "resolved_config.json"))


def cmd_bench(config: ExperimentConfig, out_dir: str) -> None:
    problem = build_problem(config)
    design = _prepare_design(problem, out_dir)
    full = design.rank_bound
    ks = sorted({k for k in range(5, full, 5)} | {full})
    w = np.ones(design.n_s)
    rows = error_vs_rank_sweep(design, w, ks, p=config.sketch.p, q=config.sketch.q, n_seeds=10, seed0=problem.seeds["sketch"])
    write_csv(
        os.path.join(out_dir, "rank_sweep.csv"),
        ["k", "method", "err_J", "err_grad", "err_kl"],
        [[r["k"], r["method"], r["err_J"], r["err_grad"], r["err_kl"]] for r in rows],
    )
    mesh_rows = mesh_refinement_sweep(
        config,
        levels=(1, 2, 4),
        k=config.sketch.k,
        p=config.sketch.p,
        q=config.sketch.q,
        n_seeds=10,
        seed0=problem.seeds["sketch"],
    )
    write_csv(
        os.path.join(out_dir, "mesh_sweep.csv"),
        ["nx", "n", "mean_rel_err_J"],
        [[r["nx"], r["n"], r["mean_rel_err_J"]] for r in mesh_rows],
    )
    config.save_resolved(os.path.join(out_dir, "resolved_config.json"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oed-dopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synthesize", "oed", "evaluate", "compare-random", "bench"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default="oed_out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override seeds.master")
        if name in ("evaluate", "compare-random"):
            p.add_argument("--weights", required=True, help="weights.csv from an oed run")
        if name == "compare-random":
            p.add_argument("--n-designs", type=int, default=200)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    solve_counter.reset()
    try:
        config = _load_config(args)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "synthesize":
            cmd_synthesize(config, args.out)
        elif args.command == "oed":
            cmd_oed(config, args.out)
        elif args.command == "evaluate":
            cmd_evaluate(config, args.weights, args.out)
        elif args.command == "compare-random":
            cmd_compare_random(config, args.weights, args.n_designs, args.out)
        elif args.command == "bench":
            cmd_bench(config, args.out)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
