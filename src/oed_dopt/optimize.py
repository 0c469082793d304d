"""Sparsified design optimization over the box [0,1]^{n_s}.

Minimizes -J(w) + gamma * P(w) with a monotone projected L-BFGS descent
(two-metric projection, Bertsekas 1982): the last few secant pairs shape the
step on the coordinates free to move, box projection keeps every iterate
feasible, and Armijo backtracking along the projected path accepts a step only
when it lowers the objective.  A line search ends when its trial move falls
below the tolerance; one failure drops the secant pairs, a second ends the run.

A penalty is one function w -> (P, dP), and one stage minimizes the penalized
objective for it.  Two sparsification routes are built from stages: an l1
penalty P = sum_i w_i (one stage) followed by relative thresholding, and a
continuation over the smooth l0 surrogate P_eps(w) = sum_i w_i / (w_i + eps)
(one warm-started stage per eps of a decreasing schedule eps_i = 1/2^i)
followed by rounding.  Both routes check their settings with one validator,
:func:`check_solve`, before any evaluation.
"""

from __future__ import annotations

import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .accounting import solve_counter
from .errors import ConfigError
from .oed import Estimator, check_design_weights, check_tol

DEFAULT_SCHEDULE = tuple(0.5**i for i in range(1, 7))
LBFGS_MEMORY = 8  # secant pairs held by minimize_box
ROUND_TOL = 1e-2  # solve_continuation rounds a final weight this close to a bound onto it


@dataclass
class IterationRecord:
    """One accepted iterate: a row of ``iterations.csv``, its fields in column order."""

    iter: int
    objective: float  # penalized objective of the accepted iterate
    J: float
    grad_norm: float  # projected-gradient infinity norm
    wall_time: float
    pde_forward: int
    pde_adjoint: int
    n_evals: int  # estimator evaluations so far, line-search trials included
    J_error_vs_dense: float | None = None
    grad_error_vs_dense: float | None = None


@dataclass
class DesignResult:
    w_opt: np.ndarray
    binary: np.ndarray
    history: list = field(default_factory=list)
    stages: list = field(default_factory=list)  # continuation: dicts per stage
    converged: bool = False
    reached_binary: bool = True


def project_box(w: np.ndarray) -> np.ndarray:
    return np.clip(w, 0.0, 1.0)


def projected_gradient_norm(w: np.ndarray, g: np.ndarray) -> float:
    return float(np.max(np.abs(w - project_box(w - g)))) if len(w) else 0.0


def minimize_box(fun, w0: np.ndarray, tol: float = 1e-5, max_iters: int = 200, on_accept=None):
    """Monotone projected L-BFGS descent of fun(w) -> (f, grad) over [0,1]^m, stopping when the
    projected-gradient infinity norm drops to ``tol`` or after ``max_iters`` accepted iterations.
    A failed :func:`_line_search` drops the secant pairs and retries once; a second ends the run."""
    w = project_box(np.asarray(w0, dtype=float).copy())
    f, g = fun(w)
    converged = projected_gradient_norm(w, g) <= tol
    on_accept = on_accept or (lambda *record: None)
    on_accept(0, w, f, g, 0.0)
    pairs: list = []
    n_iters = 0
    while not converged and n_iters < max_iters:
        step = _line_search(fun, w, f, g, _direction(w, g, pairs), tol)
        if step is None and pairs:
            pairs.clear()
            step = _line_search(fun, w, f, g, _direction(w, g, pairs), tol)
        if step is None:
            break
        s, y = step[0] - w, step[2] - g
        if s @ y > np.finfo(float).eps * (y @ y):
            pairs = (pairs + [(s, y)])[-LBFGS_MEMORY:]
        w, f, g, t = step
        n_iters += 1
        converged = projected_gradient_norm(w, g) <= tol
        on_accept(n_iters, w, f, g, t)
    return w, f, g, converged, n_iters


def _direction(w, g, pairs):
    """Two-metric direction: the L-BFGS two-loop recursion on the free coordinates, scaled by
    s.y / y.y of the newest pair with positive curvature there (1/max|g| with none).  A coordinate
    at a bound whose gradient points outward is fixed: the projection cancels its scaled gradient.
    """
    free = ~(((w <= 0.0) & (g > 0.0)) | ((w >= 1.0) & (g < 0.0)))
    held = [(s[free], y[free]) for s, y in pairs]
    held = [(s, y, 1.0 / (s @ y)) for s, y in held if s @ y > 0.0]
    scale = (held[-1][0] @ held[-1][1]) / (held[-1][1] @ held[-1][1]) if held else 1.0 / max(np.max(np.abs(g)), 1e-12)
    q = g[free].copy()
    alphas = []
    for s, y, rho in reversed(held):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    q *= scale
    for (s, y, rho), a in zip(held, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    d = -scale * g
    d[free] = -q
    return d


def _line_search(fun, w, f, g, d, tol):
    """Backtrack along w(t) = P(w + t d) from t = 1: (w, f, g, t) of the first trial with
    f(w(t)) <= f + 1e-4 g.(w(t) - w).  None for a non-finite d, or once the move is below ``tol``
    in the infinity norm.  A trial that is not a first-order descent is halved unevaluated."""
    if not np.isfinite(d).all():
        return None
    t = 1.0
    while True:
        w_try = project_box(w + t * d)
        move = w_try - w
        if np.max(np.abs(move), initial=0.0) < tol:
            return None
        slope = float(g @ move)
        if slope < 0.0:
            f_try, g_try = fun(w_try)
            if f_try <= f + 1e-4 * slope:
                return w_try, f_try, g_try, t
        t *= 0.5


def threshold(w: np.ndarray, tau_rel: float = 0.03) -> np.ndarray:
    """Binary design: sensor i active iff w_i / sum_j w_j >= tau_rel."""
    w = np.asarray(w, dtype=float)
    total = w.sum()
    if total <= 0:
        warnings.warn("thresholding an all-zero weight vector: empty design", stacklevel=2)
        return np.zeros(len(w), dtype=int)
    return (w / total >= tau_rel).astype(int)


def _real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def check_solve(gamma, tol, max_iters, threshold_rel=0.03, schedule=DEFAULT_SCHEDULE) -> None:
    """The one check of a penalized solve's settings; both solves run it before any evaluation.

    Raises :class:`ConfigError` unless gamma is finite and >= 0, tol finite and > 0, max_iters
    an int >= 1, threshold_rel in (0, 1], and the schedule positive and strictly decreasing.
    """
    if not (_real(gamma) and 0 <= gamma < np.inf):
        raise ConfigError(f"penalty gamma must be a finite number >= 0, got {gamma!r}")
    check_tol(tol)
    if not (isinstance(max_iters, numbers.Integral) and _real(max_iters) and max_iters >= 1):
        raise ConfigError(f"max_iters must be an int >= 1, got {max_iters!r}")
    if not (_real(threshold_rel) and 0 < threshold_rel <= 1):
        raise ConfigError(f"threshold must lie in (0, 1], got {threshold_rel!r}")
    eps = np.asarray(schedule, dtype=float)
    if eps.ndim != 1 or len(eps) == 0 or not (np.all(np.isfinite(eps) & (eps > 0)) and np.all(np.diff(eps) < 0)):
        raise ConfigError("continuation schedule must be positive and strictly decreasing")


def _stage(estimator, gamma, penalty, w0, tol, max_iters, dense_ref, history, t_start):
    """One :func:`minimize_box` run of -J(w) + gamma * P(w) from ``w0`` (None: all 0.5), ``penalty(w) -> (P, dP)``.

    Each accepted iterate is appended to ``history``; its J and gradient are
    the penalized (f, g) with gamma * P and gamma * dP stripped off, so the
    record costs no extra estimator evaluation (hence no extra PDE solve).
    """
    n_evals = history[-1].n_evals if history else 0

    def fun(w):
        nonlocal n_evals
        n_evals += 1
        J, g = estimator.evaluate(w)
        P, dP = penalty(w)
        return -J + gamma * P, -g + gamma * dP

    def on_accept(it, w, f, g, step):
        counts = solve_counter.snapshot()
        P, dP = penalty(w)
        rec = IterationRecord(
            iter=it,
            objective=f,
            J=-(f - gamma * P),
            grad_norm=projected_gradient_norm(w, g),
            pde_forward=counts.forward,
            pde_adjoint=counts.adjoint,
            wall_time=time.perf_counter() - t_start,
            n_evals=n_evals,
        )
        if dense_ref is not None:
            J_d, g_d, _ = dense_ref.evaluate(w)
            rec.J_error_vs_dense = abs(rec.J - J_d) / max(abs(J_d), 1e-300)
            rec.grad_error_vs_dense = float(np.linalg.norm(gamma * dP - g - g_d) / max(np.linalg.norm(g_d), 1e-300))
        history.append(rec)

    w0 = np.full(estimator.n_s, 0.5) if w0 is None else check_design_weights(w0, estimator.n_s)
    return minimize_box(fun, w0, tol=tol, max_iters=max_iters, on_accept=on_accept)


def solve_l1(
    estimator: Estimator,
    penalty_gamma: float,
    w0: np.ndarray | None = None,
    tol: float = 1e-5,
    max_iters: int = 200,
    threshold_rel: float = 0.03,
    dense_ref=None,
) -> DesignResult:
    """Minimize -J(w) + gamma * sum(w) over the box in one stage, then threshold."""
    check_solve(penalty_gamma, tol, max_iters, threshold_rel=threshold_rel)
    history: list[IterationRecord] = []

    def penalty(w):
        return float(np.sum(w)), np.ones_like(w)

    w, _, _, converged, _ = _stage(estimator, penalty_gamma, penalty, w0, tol, max_iters, dense_ref, history, time.perf_counter())
    return DesignResult(w_opt=w, binary=threshold(w, threshold_rel), history=history, converged=converged)


def distance_to_binary(w: np.ndarray) -> float:
    return float(np.max(np.minimum(w, 1.0 - w))) if len(w) else 0.0


def solve_continuation(
    estimator: Estimator,
    penalty_gamma: float,
    schedule=DEFAULT_SCHEDULE,
    tol: float = 1e-5,
    max_iters: int = 200,
    dense_ref=None,
) -> DesignResult:
    """Warm-started continuation over P_eps(w) = sum w_i/(w_i + eps).

    Each stage minimizes -J + gamma * P_eps for the next smaller eps, started
    from the previous solution, the first from all 0.5.  The final weights are
    rounded to {0,1} where within ``ROUND_TOL`` of a bound; failure to reach a
    binary vector is reported via ``reached_binary``, not rounded away.
    """
    check_solve(penalty_gamma, tol, max_iters, schedule=schedule)
    w = None
    history: list[IterationRecord] = []
    stages = []
    t_start = time.perf_counter()
    for eps in schedule:

        def penalty(wv, eps=eps):
            return float(np.sum(wv / (wv + eps))), eps / (wv + eps) ** 2

        w, f, g, converged, n_it = _stage(estimator, penalty_gamma, penalty, w, tol, max_iters, dense_ref, history, t_start)
        stages.append(
            dict(eps=eps, iterations=n_it, objective=f, max_distance_to_binary=distance_to_binary(w), converged=converged)
        )

    w_final = w.copy()
    w_final[w_final <= ROUND_TOL] = 0.0
    w_final[w_final >= 1.0 - ROUND_TOL] = 1.0
    reached = bool(np.all((w_final == 0.0) | (w_final == 1.0)))
    if not reached:
        warnings.warn(
            f"continuation left {np.sum((w_final > 0) & (w_final < 1))} weights "
            f"away from the bounds (max distance {distance_to_binary(w):.3g})",
            stacklevel=2,
        )
    return DesignResult(
        w_opt=w_final,
        binary=(w_final >= 0.5).astype(int),
        history=history,
        stages=stages,
        converged=all(s["converged"] for s in stages),
        reached_binary=reached,
    )


def random_binary_designs(n_s: int, cardinality: int, count: int, seed: int = 0) -> np.ndarray:
    """``count`` random binary designs with the given number of active sensors."""
    if not 1 <= cardinality <= n_s:
        raise ConfigError("cardinality must be between 1 and n_s")
    rng = np.random.default_rng(seed)
    designs = np.zeros((count, n_s), dtype=int)
    for i in range(count):
        designs[i, rng.choice(n_s, size=cardinality, replace=False)] = 1
    return designs
