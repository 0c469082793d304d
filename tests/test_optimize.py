"""Box-constrained design optimization, thresholding, and continuation."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oed_dopt
from oed_dopt import optimize
from oed_dopt.errors import ConfigError
from oed_dopt.optimize import (
    DEFAULT_SCHEDULE,
    distance_to_binary,
    minimize_box,
    project_box,
    random_binary_designs,
    solve_continuation,
    solve_l1,
    threshold,
)
from oed_dopt.sketch import SketchConfig


class CountingQuadratic:
    """An estimator stand-in that validates no weights and counts its evaluations."""

    name = "counting"
    n_s = 3

    def __init__(self):
        self.calls = 0

    def evaluate(self, w):
        self.calls += 1
        return -float(np.sum((w - 0.3) ** 2)), -2.0 * (w - 0.3)


def test_penalty_config_validation():
    """Each solve refuses a bad gamma, tol, max_iters, threshold or schedule before any evaluation."""
    cases = [
        (solve_l1, -1.0, {}),
        (solve_l1, np.nan, {}),
        (solve_l1, np.inf, {}),
        (solve_l1, "abc", {}),
        (solve_l1, 0.1, {"tol": -1.0}),
        (solve_l1, 0.1, {"tol": np.nan}),
        (solve_l1, 0.1, {"max_iters": 0}),
        (solve_l1, 0.1, {"max_iters": 2.5}),
        (solve_l1, 0.1, {"max_iters": True}),
        (solve_l1, 0.1, {"threshold_rel": 2.0}),
        (solve_l1, 0.1, {"threshold_rel": np.nan}),
        (solve_l1, 0.1, {"threshold_rel": 0.0}),
        (solve_continuation, -1.0, {}),
        (solve_continuation, 0.1, {"max_iters": -3}),
        (solve_continuation, 0.1, {"schedule": ()}),
        (solve_continuation, 0.1, {"schedule": (0.5, 0.5)}),
        (solve_continuation, 0.1, {"schedule": (0.5, -0.25)}),
        (solve_continuation, 0.1, {"schedule": (np.nan,)}),
    ]
    for solve, gamma, kwargs in cases:
        est = CountingQuadratic()
        with pytest.raises(ConfigError):
            solve(est, gamma, **kwargs)
        assert est.calls == 0, (solve.__name__, gamma, kwargs)
    assert DEFAULT_SCHEDULE == tuple(0.5**i for i in range(1, 7))


@pytest.mark.parametrize("solve", [solve_l1])  # continuation always starts from all 0.5
def test_nan_w0_refused_before_any_evaluation(solve):
    est = CountingQuadratic()
    with pytest.raises(ConfigError, match="design weights"):
        solve(est, 0.1, w0=[np.nan, 0.5, 0.5])
    assert est.calls == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_projection_feasible_and_idempotent(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(12) * 3
    p = project_box(w)
    assert np.all(p >= 0) and np.all(p <= 1)
    assert np.array_equal(project_box(p), p)


def test_minimize_box_quadratic():
    """Analytic check: min ||w - c||^2 over the box hits clip(c, 0, 1)."""
    c = np.array([-0.5, 0.3, 1.7, 0.9])

    def fun(w):
        return float(np.sum((w - c) ** 2)), 2.0 * (w - c)

    w, f, g, converged, _ = minimize_box(fun, np.full(4, 0.5), tol=1e-10)
    assert converged
    assert np.allclose(w, np.clip(c, 0, 1), atol=1e-8)


def test_minimize_box_monotone_descent():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6))
    A = A @ A.T + np.eye(6)
    b = rng.standard_normal(6)
    values = []

    def fun(w):
        values.append(0.5 * w @ (A @ w) - b @ w)
        return values[-1], A @ w - b

    accepted = []
    minimize_box(fun, np.full(6, 0.5), tol=1e-9, on_accept=lambda it, w, f, g, t: accepted.append(f))
    assert all(f2 <= f1 + 1e-12 for f1, f2 in zip(accepted, accepted[1:]))


@pytest.mark.parametrize(
    "start, rot",
    [
        # starts at the minimizer of f, where the biased gradient points uphill: no pair is held
        (np.array([0.3, 0.6, 0.45]), 0.0),
        # approach the biased stationary point and fail there with secant pairs held
        (np.full(3, 0.9), 0.5),
        (np.full(3, 0.5), 1.0),
    ],
)
def test_failed_line_search_stops_at_tol_move(start, rot):
    """On f = sum(e^4 + e^2), e = w - c, with a gradient biased by a constant and by a rotation
    of e (no derivative), Armijo fails near the optimum.  A failed search evaluates trials only
    while the move is at least tol, at most ceil(log2(|d|_inf / tol)) + 1 of them, and after one
    retry the run ends unconverged without raising."""
    c, bias, tol = np.array([0.3, 0.6, 0.45]), np.array([0.02, -0.01, 0.015]), 1e-5
    trials, accepted = [], []

    def fun(w):
        trials.append(w.copy())
        e = w - c
        return float(np.sum(e**4 + e**2)), 4 * e**3 + 2 * e + bias + rot * np.roll(e, 1)

    converged = minimize_box(fun, start, tol=tol, on_accept=lambda it, w, *_: accepted.append((len(trials), w)))[3]
    assert not converged
    n, w_last = accepted[-1]
    searches = []  # trial moves after the last accepted iterate; a search's moves shrink as t halves
    for move in (np.max(np.abs(x - w_last)) for x in trials[n:]):
        if not searches or move > searches[-1][-1]:
            searches.append([])
        searches[-1].append(move)
    assert 1 <= len(searches) <= 2
    for moves in searches:
        assert len(moves) <= math.ceil(math.log2(moves[0] / tol)) + 1
        assert min(moves) >= tol


def test_nan_gradient_ends_the_run():
    """A non-finite gradient fails the line search at once: one evaluation, no hang, unconverged."""
    calls = []

    def fun(w):
        calls.append(1)
        return float(w @ w), np.full(len(w), np.nan)

    _, _, _, converged, n_iters = minimize_box(fun, np.full(3, 0.5))
    assert (converged, n_iters, len(calls)) == (False, 0, 1)


def test_desk_rand_l1_evaluations_and_design(desk_design):
    """The rand estimator's l1 solve on desk: a pinned evaluation count and binary design, and
    a history whose n_evals rises strictly to the estimator's evaluate count."""
    est = desk_design.estimator("rand", cfg=SketchConfig(k=40, p=5, q=1, seed=1))
    calls = []
    evaluate = est.evaluate
    est.evaluate = lambda w: calls.append(1) or evaluate(w)
    res = solve_l1(est, penalty_gamma=0.6)
    n_evals = [r.n_evals for r in res.history]
    assert res.converged
    assert "".join(map(str, res.binary)) == "10101111000000101010100000011110101"
    assert len(calls) == 21
    assert n_evals[0] == 1 and all(b > a for a, b in zip(n_evals, n_evals[1:]))
    assert n_evals[-1] == len(calls)


UNIMPORTED = ("scipy.optimize", "scipy.spatial", "scipy.special", "scipy.constants")


def test_cli_solve_does_not_import_scipy_optimize_or_spatial():
    """scipy.optimize costs about 10 MiB of peak RSS, and scipy.spatial with the scipy.special
    and scipy.constants it pulls in about 7.5 MiB; the CLI and a solve import none of them."""
    code = """
import sys
from oed_dopt import cli
from oed_dopt.config import ExperimentConfig
from oed_dopt.optimize import solve_l1
from oed_dopt.problem import build_problem

config = ExperimentConfig.from_dict({
    "mesh": {"nx": 4},
    "pde": {"kappa": 0.05, "T": 1.0, "n_steps": 5},
    "sensors": {"grid": [2, 2], "margin": [0.25, 0.25]},
    "obs": {"times": [0.4, 1.0]},
    "sketch": {"k": 6, "p": 2},
})
problem = build_problem(config)
assert solve_l1(cli._estimator(problem, config), 0.5).converged
print(sorted(set(sys.argv[1:]) & set(sys.modules)))
"""
    src = os.path.dirname(os.path.dirname(oed_dopt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, "-c", code, *UNIMPORTED]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_threshold_rules():
    assert np.array_equal(threshold(np.full(10, 0.37), 0.03), np.ones(10, dtype=int))
    w = np.zeros(5)
    w[2] = 0.4
    assert np.array_equal(threshold(w, 0.03), np.array([0, 0, 1, 0, 0]))
    with pytest.warns(UserWarning, match="all-zero"):
        assert np.array_equal(threshold(np.zeros(4)), np.zeros(4, dtype=int))


def test_threshold_concrete_ratio_case():
    # one dominant weight at 0.97 plus nine at 0.00375: only the first passes 3%
    w = np.concatenate([[0.97], np.full(9, 0.00375)])
    assert np.array_equal(threshold(w, 0.03), np.concatenate([[1], np.zeros(9, dtype=int)]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_threshold_budget_property(seed):
    """At tau_rel the active count can never exceed 1/tau_rel."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0, 1, rng.integers(1, 40))
    tau = 0.05
    if w.sum() > 0:
        assert threshold(w, tau).sum() <= int(1.0 / tau)


def test_distance_to_binary():
    assert distance_to_binary(np.array([0.0, 1.0])) == 0.0
    assert distance_to_binary(np.array([0.4, 0.9])) == pytest.approx(0.4)


def test_random_binary_designs_properties():
    designs = random_binary_designs(12, 5, 30, seed=3)
    assert designs.shape == (30, 12)
    assert np.all(designs.sum(axis=1) == 5)
    with pytest.raises(ConfigError):
        random_binary_designs(5, 0, 3)


def test_l1_gamma_zero_drives_all_weights_to_one(desk_design):
    """With no penalty, -J is componentwise decreasing, so w* = 1."""
    ref = desk_design.dense_reference()
    grad_at_one = ref.evaluate(np.ones(desk_design.n_s))[1]
    assert np.all(grad_at_one > 0)  # first-order: pushing past 1 would still help
    res = solve_l1(desk_design.estimator("dense"), penalty_gamma=0.0, max_iters=100)
    assert np.allclose(res.w_opt, 1.0, atol=1e-6)
    assert res.converged


def test_l1_huge_gamma_drives_weights_to_zero(desk_design):
    gamma = 1.05 * float(desk_design.z.max())
    with pytest.warns(UserWarning, match="all-zero"):
        res = solve_l1(desk_design.estimator("dense"), penalty_gamma=gamma, max_iters=200)
    assert np.allclose(res.w_opt, 0.0, atol=1e-6)


def test_l1_feasibility_and_descent(desk_design):
    res = solve_l1(desk_design.estimator("dense"), penalty_gamma=0.6, max_iters=300)
    assert np.all(res.w_opt >= 0) and np.all(res.w_opt <= 1)
    objs = [r.objective for r in res.history]
    assert all(f2 <= f1 + 1e-12 for f1, f2 in zip(objs, objs[1:]))
    assert res.converged
    assert 0 < res.binary.sum() < desk_design.n_s


def test_l1_matches_scipy_reference(desk_design):
    from scipy.optimize import minimize as scipy_minimize

    ref = desk_design.dense_reference()
    gamma = 0.6

    def fun(w):
        J, g, _ = ref.evaluate(np.clip(w, 0, 1))
        return -J + gamma * w.sum(), -g + gamma

    sres = scipy_minimize(
        fun,
        np.full(desk_design.n_s, 0.5),
        jac=True,
        bounds=[(0, 1)] * desk_design.n_s,
        method="L-BFGS-B",
        options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-8},
    )
    res = solve_l1(desk_design.estimator("dense"), penalty_gamma=gamma, max_iters=500)
    # both solvers stop at a 1e-5 stationarity tolerance; allow that much slack
    assert np.max(np.abs(res.w_opt - sres.x)) <= 5e-4


def test_estimator_agnostic_agreement(desk_design):
    """Full-rank eig and rand estimators land on the dense solution."""
    gamma = 0.6
    res_dense = solve_l1(desk_design.estimator("dense"), gamma, max_iters=400)
    res_eig = solve_l1(desk_design.estimator("eig", k=desk_design.rank_bound), gamma, max_iters=400)
    cfg = SketchConfig(k=desk_design.rank_bound, p=5, q=1, seed=11)
    res_rand = solve_l1(desk_design.estimator("rand", cfg=cfg), gamma, max_iters=400)
    assert np.max(np.abs(res_eig.w_opt - res_dense.w_opt)) <= 1e-3
    assert np.max(np.abs(res_rand.w_opt - res_dense.w_opt)) <= 1e-3


def test_continuation_large_eps_matches_l1_limit(desk_design, monkeypatch):
    """A single huge-eps stage behaves like l1 with gamma/eps."""
    monkeypatch.setattr(optimize, "ROUND_TOL", 0.0)
    eps = 1e3
    gamma = 0.6 * eps
    est = desk_design.estimator("dense")
    with pytest.warns(UserWarning, match="away from the bounds"):
        res_cont = solve_continuation(est, gamma, schedule=[eps], max_iters=400)
    res_l1 = solve_l1(est, gamma / eps, max_iters=400)
    assert np.max(np.abs(res_cont.w_opt - res_l1.w_opt)) <= 1e-2


def test_continuation_reaches_binary_with_monotone_distance(desk_design):
    est = desk_design.estimator("dense")
    res = solve_continuation(est, penalty_gamma=0.9, max_iters=300)
    dists = [s["max_distance_to_binary"] for s in res.stages]
    assert len(res.stages) == 6
    assert all(d2 <= d1 + 1e-9 for d1, d2 in zip(dists, dists[1:]))
    assert res.reached_binary
    assert dists[-1] <= 1e-2
    assert 0 < res.binary.sum() < desk_design.n_s
    assert set(np.unique(res.w_opt)).issubset({0.0, 1.0})


def test_continuation_stage_log_schema(desk_design):
    est = desk_design.estimator("dense")
    res = solve_continuation(est, penalty_gamma=0.9, schedule=[0.5, 0.25], max_iters=100)
    assert [s["eps"] for s in res.stages] == [0.5, 0.25]
    assert all(s["iterations"] >= 0 for s in res.stages)


def test_optimal_beats_random_designs(desk_design):
    """Dense -J of the thresholded l1 design beats 200 random peers."""
    ref = desk_design.dense_reference()
    res = solve_l1(desk_design.estimator("dense"), penalty_gamma=0.6, max_iters=400)
    wb = res.binary.astype(float)
    s = int(wb.sum())
    J_opt = ref.evaluate(wb)[0]
    designs = random_binary_designs(desk_design.n_s, s, 200, seed=7)
    J_rand = np.array([ref.evaluate(d.astype(float))[0] for d in designs])
    assert -J_opt <= np.min(-J_rand)


def test_iteration_history_counters_monotone(desk_design):
    cfg = SketchConfig(k=20, p=5, q=1, seed=5)
    res = solve_l1(desk_design.estimator("rand", cfg=cfg), penalty_gamma=0.6, max_iters=25)
    fw = [r.pde_forward for r in res.history]
    assert all(b >= a for a, b in zip(fw, fw[1:]))
    assert res.history[0].iter == 0


def test_dense_error_tracking(desk_design):
    cfg = SketchConfig(k=25, p=5, q=1, seed=6)
    res = solve_l1(
        desk_design.estimator("rand", cfg=cfg),
        penalty_gamma=0.6,
        max_iters=20,
        dense_ref=desk_design.dense_reference(),
    )
    errs = [r.J_error_vs_dense for r in res.history]
    assert all(e is not None and e < 1e-3 for e in errs)
