"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import aslinearoperator

from conftest import (
    dense_G,
    dense_hessian,
    frozen_from_dense,
    make_config,
    random_psd,
    sensor_z_norms,
    synthetic_design,
)
from oed_dopt.accounting import count_solves
from oed_dopt.bench import error_vs_rank_sweep, mesh_refinement_sweep
from oed_dopt.config import ExperimentConfig
from oed_dopt.oed import DesignProblem, NoiseModel, weighted_diag
from oed_dopt.optimize import random_binary_designs, solve_continuation, solve_l1
from oed_dopt.problem import build_problem
from oed_dopt.sketch import SketchConfig, SpectrumSplit, error_bounds, subspace_iteration


def report(num, text):
    print(f"\n[PASS] criterion {num:2d}: {text}")


# -- criterion 1 ----------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"mesh": {"nx": 4}, "pde": {"kappa": 0.05, "T": 1.0, "n_steps": 5}, "obs": {"times": [0.4, 1.0]}},
        {
            "mesh": {"nx": 7, "holes": [[2 / 7, 2 / 7, 3 / 7, 4 / 7]]},
            "pde": {"kappa": 0.02, "T": 2.0, "n_steps": 12},
        },
        {"mesh": {"nx": 10}, "pde": {"kappa": 0.01, "T": 3.0, "n_steps": 30}},
    ],
    ids=["coarse", "holes", "fine"],
)
def test_criterion_01_adjoint_consistency(overrides):
    p = build_problem(make_config(**overrides))
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        theta = rng.standard_normal(p.G.n)
        ybar = rng.standard_normal(p.G.n_y)
        f_theta = p.forward.apply(theta)
        gap = abs(f_theta @ ybar - theta @ p.forward.apply_transpose(ybar))
        scale = np.linalg.norm(f_theta) * np.linalg.norm(ybar)
        assert gap <= 1e-10 * scale
        worst = max(worst, gap / scale)
    report(1, f"adjoint consistency, worst relative gap {worst:.2e} <= 1e-10")


# -- criterion 2 ----------------------------------------------------------------


def test_criterion_02_dense_oracle_equivalence(small_design, desk_design):
    for design, label in ((small_design, "n=49"), (desk_design, "n=121")):
        ref = design.dense_reference()
        rng = np.random.default_rng(102)
        w = rng.uniform(0.2, 1.0, design.n_s)
        J_ref, g_ref, _ = ref.evaluate(w)
        gn = np.linalg.norm(g_ref)
        K = design.rank_bound

        J_e, g_e = design.objective_grad_eig(w, K)
        assert abs(J_e - J_ref) <= 1e-8 * abs(J_ref)
        assert np.linalg.norm(g_e - g_ref) <= 1e-8 * gn

        with pytest.warns(UserWarning, match="rank deficient"):
            J_r, g_r = design.objective_grad_rand(w, SketchConfig(k=K, p=5, q=1, seed=2))
        assert abs(J_r - J_ref) <= 1e-8 * abs(J_ref)
        assert np.linalg.norm(g_r - g_ref) <= 1e-8 * gn

        frozen = design.build_frozen(K, seed=3)
        J_f, g_f = design.objective_grad_frozen(w, frozen)
        assert abs(J_f - J_ref) <= 1e-8 * abs(J_ref)
        assert np.linalg.norm(g_f - g_ref) <= 1e-8 * gn
    report(2, "Eig-K, randomized (l >= K) and frozen (k_f = K) match dense J, grad J to 1e-8")


# -- criterion 3 ----------------------------------------------------------------


def test_criterion_03_dense_gradient_finite_differences(small_design):
    ref = small_design.dense_reference()
    rng = np.random.default_rng(103)
    h = 1e-5
    worst = 0.0
    for _ in range(5):
        w = rng.uniform(0.1, 0.9, small_design.n_s)
        _, grad, _ = ref.evaluate(w)
        for j in range(small_design.n_s):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (ref.evaluate(wp)[0] - ref.evaluate(wm)[0]) / (2 * h)
            rel = abs(fd - grad[j]) / max(abs(grad[j]), 1e-12)
            assert rel <= 1e-5
            worst = max(worst, rel)
    report(3, f"dense gradient matches central differences, worst rel err {worst:.2e} <= 1e-5")


# -- criterion 4 ----------------------------------------------------------------


def test_criterion_04_expected_information_gain_monte_carlo():
    """E_theta E_{y|theta} D_KL = (1/2) logdet(I + H) at w = 1 (n ~ 80)."""
    cfg = make_config(
        mesh={"nx": 8},
        pde={"kappa": 0.05, "T": 2.0, "n_steps": 20},
        sensors={"grid": [3, 3], "margin": [0.25, 0.25]},
        obs={"times": [0.5, 1.0, 2.0]},
    )
    p = build_problem(cfg)
    n = p.G.n
    assert 70 <= n <= 90
    peak = float(np.max(np.abs(p.forward.apply(p.theta_true))))
    sigma = 2.0 * peak
    design = DesignProblem(p.G, NoiseModel(np.full(9, sigma)))
    ref = design.dense_reference()
    w = np.ones(9)

    lam = ref.evaluate(w)[2]
    target = 0.5 * float(np.sum(np.log1p(lam)))
    spectral_part = 0.5 * (np.sum(np.log1p(lam)) - np.sum(lam / (1 + lam)))

    # dense operators for the vectorized sampler
    L = p.prior.L.toarray()
    R = p.mass.apply_R(np.eye(n))
    P = np.linalg.solve(L, R)  # fields from whitened prior draws
    F_dense = np.column_stack([p.forward.apply(np.eye(n)[:, i]) for i in range(n)])
    dw = weighted_diag(w, design.noise, design.n_t)
    S = np.eye(n) + dense_hessian(design, w)
    cho = sla.cho_factor(S)

    rng = np.random.default_rng(104)
    N = 2000
    theta = P @ rng.standard_normal((n, N))
    y = F_dense @ theta + sigma * rng.standard_normal((p.G.n_y, N))
    X = sla.cho_solve(cho, dense_G(design).T @ (dw[:, None] * y))
    kl = spectral_part + 0.5 * np.sum(X * X, axis=0)
    se = kl.std(ddof=1) / np.sqrt(N)
    gap = abs(kl.mean() - target)
    assert gap <= 3.0 * se
    report(4, f"mean exact KL {kl.mean():.4f} vs half-logdet {target:.4f} within {gap/se:.2f} SE (<= 3)")


# -- criteria 5 and 6 -------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_instance():
    """n = 100 design whose misfit Hessian at w = 1 has eigenvalues 2^-i."""
    n, n_s, n_t = 100, 20, 5
    spectrum = 2.0 ** -np.arange(1, n_s * n_t + 1, dtype=float)
    design = synthetic_design(n, n_s, n_t, spectrum, seed=105)
    return design, spectrum


def test_criterion_05_expectation_bound_oracles(synthetic_instance):
    design, spectrum = synthetic_instance
    ref = design.dense_reference()
    w = np.ones(design.n_s)
    J_true, g_true, lam = ref.evaluate(w)
    k, p, q = 10, 5, 1
    split = SpectrumSplit.from_spectrum(lam, k)
    cfg = SketchConfig(k=k, p=p, q=q)
    z_norms = sensor_z_norms(design)
    n_seeds = 100

    e_J = np.empty(n_seeds)
    e_kl = np.empty(n_seeds)
    e_grad = np.empty((n_seeds, design.n_s))
    kl_true = 0.5 * (np.sum(np.log1p(lam)) - np.sum(lam / (1 + lam)))
    for s in range(n_seeds):
        rand = design.estimator("rand", cfg=SketchConfig(k=k, p=p, q=q, seed=500 + s))
        J_hat, g_hat = rand.evaluate(w)
        lam_T = rand.spectrum(w)  # the sketch evaluate just made
        e_J[s] = abs(J_true - J_hat)
        e_kl[s] = abs(kl_true - 0.5 * (np.sum(np.log1p(lam_T)) - np.sum(lam_T / (1 + lam_T))))
        e_grad[s] = np.abs(g_true - g_hat)

    b_logdet = error_bounds(split, cfg, "logdet_rand")
    b_kl = error_bounds(split, cfg, "kl_rand")
    assert e_J.mean() <= b_logdet
    assert e_kl.mean() <= b_kl
    for j in range(design.n_s):
        assert e_grad[:, j].mean() <= error_bounds(split, cfg, "grad_rand_component", z_norm=z_norms[j])
    grad_norm_err = np.linalg.norm(e_grad, axis=1).mean()
    assert grad_norm_err <= error_bounds(split, cfg, "grad_norm_rand", z_norms=z_norms)

    # Eig-k equality branch: |J - J_eig| = sum_{i>k} log(1 + lam_i) exactly
    rng = np.random.default_rng(106)
    for w_test in (w, rng.uniform(0.2, 1.0, design.n_s)):
        J_w, _, lam_w = ref.evaluate(w_test)
        for kk in (5, 10, 20):
            J_k = design.objective_eig(w_test, kk)
            tail = float(np.sum(np.log1p(lam_w[kk:])))
            assert abs(abs(J_w - J_k) - tail) <= 1e-8 * max(tail, 1e-8)

    # frozen truncation: 0 <= J - J_froz <= logdet(I + Sigma_2^2), 20 random designs
    Gd = dense_G(design)
    s_vals = np.linalg.svd(Gd, compute_uv=False)
    k_f = 10
    frozen = frozen_from_dense(Gd, k_f)
    b_frozen = error_bounds(
        SpectrumSplit(lam1=s_vals[:k_f] ** 2, lam2=s_vals[k_f:] ** 2, n=len(s_vals)), None, "frozen"
    )
    for _ in range(20):
        w_r = rng.uniform(0.0, 1.0, design.n_s)
        gap = ref.evaluate(w_r)[0] - design.objective_grad_frozen(w_r, frozen)[0]
        assert -1e-10 <= gap <= b_frozen + 1e-10
    report(
        5,
        "expectation bounds hold: logdet "
        f"{e_J.mean():.2e} <= {b_logdet:.2e}, KL {e_kl.mean():.2e} <= {b_kl:.2e}; "
        "Eig-k equality branch to 1e-8; frozen bound deterministic for 20 designs",
    )


def test_criterion_06_interlacing_and_lemmas(synthetic_instance):
    design, _ = synthetic_instance
    ref = design.dense_reference()
    w = np.ones(design.n_s)
    lam_true = ref.evaluate(w)[2]
    H = dense_hessian(design, w)
    for s in range(100):
        _, T = subspace_iteration(aslinearoperator(H), SketchConfig(k=10, p=5, q=1, seed=700 + s))
        lam_T = np.sort(np.linalg.eigvalsh(T))[::-1]
        assert np.all(lam_T <= lam_true[: len(lam_T)] + 1e-10)

    rng = np.random.default_rng(107)
    for _ in range(100):
        m = rng.integers(2, 16)
        A = rng.standard_normal((m, m))
        B = random_psd(m, rng)
        assert abs(np.trace(A @ B)) <= np.linalg.norm(A, 2) * np.trace(B) + 1e-10
    for _ in range(100):
        m = rng.integers(2, 16)
        Nmat = random_psd(m, rng)
        E = random_psd(m, rng)
        d = np.linalg.slogdet(np.eye(m) + Nmat + E)[1] - np.linalg.slogdet(np.eye(m) + Nmat)[1]
        assert -1e-10 <= d <= np.linalg.slogdet(np.eye(m) + E)[1] + 1e-10
    report(6, "interlacing on 100 sketches; trace-product and logdet-ordering lemmas on 100 instances each")


# -- criterion 7 ----------------------------------------------------------------


def test_criterion_07_error_vs_rank_sweeps(sweep_design):
    K = sweep_design.rank_bound
    ks = list(range(5, K, 5)) + [K]
    rows = error_vs_rank_sweep(sweep_design, np.ones(sweep_design.n_s), ks, p=5, q=1, n_seeds=8, seed0=107)
    eig = {r["k"]: r for r in rows if r["method"] == "eig"}
    rand = {r["k"]: r for r in rows if r["method"] == "rand"}

    floor = 1e-9
    for key in ("err_J", "err_grad", "err_kl"):
        e_seq = [eig[k][key] for k in ks]
        # exact-eigenpair errors are tail sums: strictly nonincreasing
        assert all(b <= a + 1e-12 for a, b in zip(e_seq, e_seq[1:]))
        r_seq = [rand[k][key] for k in ks]
        # randomized errors decrease on average (never grow past 1.5x outside the floor)
        assert all(b <= 1.5 * a or max(a, b) <= floor for a, b in zip(r_seq, r_seq[1:]))
        assert e_seq[-1] <= 1e-8 and r_seq[-1] <= 1e-8
        # randomized tracks Eig-k within one order of magnitude at every rank
        for k in ks:
            assert rand[k][key] <= 10.0 * eig[k][key] + floor
    report(7, f"KL, J, grad errors decay over k in 5..{K} and reach <= 1e-8 at full rank; rand within 10x of Eig-k")


# -- criterion 8 ----------------------------------------------------------------


def test_criterion_08_mesh_refinement_stability():
    coords = [[x, y] for x in (0.25, 0.5, 0.75) for y in (0.25, 0.5, 0.75)]
    cfg = ExperimentConfig.from_dict(
        {
            "mesh": {"nx": 12},
            "pde": {"kappa": 0.05, "T": 2.0, "n_steps": 20},
            "sensors": {"coords": coords},
            "obs": {"times": [0.5, 1.0, 2.0]},
            "noise": {"pct": 0.3},
        }
    )
    rows = mesh_refinement_sweep(cfg, levels=(1, 2, 4), k=8, p=5, q=1, n_seeds=20, seed0=108)
    errs = [r["mean_rel_err_J"] for r in rows]
    ratio = max(errs) / min(errs)
    assert ratio < 2.0
    report(8, f"randomized rel. error across nx=12,24,48: {[f'{e:.2e}' for e in errs]}, max/min {ratio:.2f} < 2")


# -- criterion 9 ----------------------------------------------------------------


def test_criterion_09_optimization_end_to_end(desk_design):
    assert desk_design.n_s == 35 and desk_design.n_t == 3
    ref = desk_design.dense_reference()

    estimator = desk_design.estimator("rand", cfg=SketchConfig(k=40, p=5, q=1, seed=109))
    res = solve_l1(estimator, penalty_gamma=0.6, max_iters=300, threshold_rel=0.03)
    wb = res.binary.astype(float)
    s = int(wb.sum())
    assert 0 < s < desk_design.n_s
    J_opt = ref.evaluate(wb)[0]
    designs = random_binary_designs(desk_design.n_s, s, 200, seed=7)
    J_rand = np.array([ref.evaluate(d.astype(float))[0] for d in designs])
    assert -J_opt <= np.min(-J_rand)

    res_c = solve_continuation(estimator, penalty_gamma=0.9, max_iters=300)
    dists = [st["max_distance_to_binary"] for st in res_c.stages]
    assert len(dists) == 6
    assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 1e-2
    assert res_c.reached_binary
    report(
        9,
        f"l1 design ({s} sensors) beats 200 random peers by {np.min(-J_rand) - (-J_opt):.3f}; "
        f"continuation distances {['%.3f' % d for d in dists]} reach binary",
    )


# -- criterion 10 -----------------------------------------------------------------


def test_criterion_10_cost_accounting(desk_design):
    desk_design.ensure_z()
    rng = np.random.default_rng(110)
    w = rng.uniform(0.2, 1.0, desk_design.n_s)

    for k, p, q in [(10, 5, 1), (7, 3, 2)]:
        cfg = SketchConfig(k=k, p=p, q=q, seed=110)
        with count_solves() as c:
            desk_design.objective_grad_rand(w, cfg)
        assert c.delta.forward == cfg.l * (q + 2)
        assert c.delta.adjoint == cfg.l * (q + 1)

    frozen = desk_design.build_frozen(20, seed=4)
    with count_solves() as c:
        desk_design.objective_grad_frozen(w, frozen)
    assert c.delta.forward == 0 and c.delta.adjoint == 0

    fresh = DesignProblem(desk_design.G, desk_design.noise)
    with count_solves() as c:
        fresh.ensure_z()
    assert c.delta.adjoint == desk_design.n_s * desk_design.n_t
    assert c.delta.forward == 0
    report(10, "PDE-solve tallies: rand l(q+2)/l(q+1), frozen 0, z precompute n_s*n_t adjoint, all exact")
