"""Accuracy sweeps: estimator error versus target rank, and mesh refinement."""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .oed import DesignProblem, kl_divergence
from .problem import build_problem
from .sketch import SketchConfig
# unused here; perfbench/tracing.py patches bench.exact_eigs by name
from .sketch import exact_eigs  # noqa: F401


def error_vs_rank_sweep(
    design: DesignProblem,
    w: np.ndarray,
    ks,
    p: int = 5,
    q: int = 1,
    n_seeds: int = 10,
    seed0: int = 0,
):
    """Relative errors of the Eig-k and randomized estimators over target ranks.

    Truth comes from the exact reference (n_y <= DENSE_GUARD); the KL error
    compares the spectral part only (the MAP term is shared by every method).
    Returns one dict per (k, method) with keys err_J, err_grad, err_kl.
    """
    ref = design.dense_reference()
    J_true, grad_true, lam_true = ref.evaluate(w)
    kl_true = kl_divergence(lam_true)
    gnorm = max(np.linalg.norm(grad_true), 1e-300)
    J_scale = max(abs(J_true), 1e-300)
    kl_scale = max(abs(kl_true), 1e-300)

    def errors(est):
        """(err_J, err_grad, err_kl) of one estimator; spectrum reads the eigensolve or sketch evaluate made."""
        (J, g), lam = est.evaluate(w), est.spectrum(w)
        return (
            abs(J_true - J) / J_scale,
            np.linalg.norm(grad_true - g) / gnorm,
            abs(kl_true - kl_divergence(lam)) / kl_scale,
        )

    keys = ("err_J", "err_grad", "err_kl")
    rows = []
    for k in ks:
        rows.append({"k": int(k), "method": "eig", **dict(zip(keys, errors(design.estimator("eig", k=k))))})
        errs = [
            errors(design.estimator("rand", cfg=SketchConfig(k=int(k), p=p, q=q, seed=seed0 + 1000 * s + int(k))))
            for s in range(n_seeds)
        ]
        rows.append({"k": int(k), "method": "rand", **dict(zip(keys, np.mean(errs, axis=0).tolist()))})
    return rows


def mesh_refinement_sweep(
    base_config: ExperimentConfig,
    levels=(1, 2, 4),
    k: int = 10,
    p: int = 5,
    q: int = 1,
    n_seeds: int = 10,
    seed0: int = 0,
):
    """Relative error of the randomized objective across mesh refinements.

    The sketch parameters stay fixed while nx is scaled by each level.  Truth
    at every level is the exact reference from C = G G^T, which needs only
    n_y <= DENSE_GUARD whatever n is.  Sensor coordinates should be pinned in
    the config so every level sees the same physical sensors (and the same n_y).
    """
    rows = []
    for level in levels:
        cfg = ExperimentConfig.from_dict(base_config.to_dict())
        cfg.mesh.nx = base_config.mesh.nx * level
        problem = build_problem(cfg)
        design = problem.design
        w = np.ones(design.n_s)
        J_true = design.estimator("dense").objective(w)
        errs = np.empty(n_seeds)
        for s in range(n_seeds):
            sk = SketchConfig(k=k, p=p, q=q, seed=seed0 + s)
            errs[s] = abs(J_true - design.objective_rand(w, sk)) / max(abs(J_true), 1e-300)
        rows.append(
            {
                "nx": cfg.mesh.nx,
                "n": design.G.n,
                "mean_rel_err_J": float(errs.mean()),
            }
        )
    return rows
