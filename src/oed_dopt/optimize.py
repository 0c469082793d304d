"""Sparsified design optimization over the box [0,1]^{n_s}.

Minimizes -J(w) + gamma * P(w) with a projected quasi-Newton descent:
Barzilai-Borwein secant step lengths (the memory-one secant approximation),
box projection, and Armijo backtracking along the projected path.  When the
estimator supplying (J, grad) is the randomized one, whose gradient is not the
exact derivative of its objective, the line search is relaxed with a
nonmonotone window of 5 iterations.

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
NONMONOTONE_WINDOW = 5


@dataclass
class IterationRecord:
    iteration: int
    objective: float  # penalized objective of the accepted iterate
    J: float
    grad_norm: float  # projected-gradient infinity norm
    pde_forward: int
    pde_adjoint: int
    wall_time: float
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

    @property
    def active_count(self) -> int:
        return int(np.sum(self.binary))


def project_box(w: np.ndarray) -> np.ndarray:
    return np.clip(w, 0.0, 1.0)


def projected_gradient_norm(w: np.ndarray, g: np.ndarray) -> float:
    return float(np.max(np.abs(w - project_box(w - g)))) if len(w) else 0.0


def minimize_box(
    fun,
    w0: np.ndarray,
    tol: float = 1e-5,
    max_iters: int = 200,
    window: int = 1,
    on_accept=None,
):
    """Projected BB-secant descent of fun(w) -> (f, grad) over [0,1]^m.

    Every iterate is feasible by projection.  A step is accepted when it
    satisfies the Armijo condition against the maximum of the last ``window``
    accepted objective values (window 1 = monotone descent).  Terminates when
    the projected-gradient infinity norm drops below ``tol`` or after
    ``max_iters`` accepted iterations.
    """
    if window < 1:
        raise ConfigError("window must be >= 1")
    w = project_box(np.asarray(w0, dtype=float).copy())
    f, g = fun(w)
    recent = [f]
    alpha = 1.0 / max(np.max(np.abs(g)), 1e-12)
    converged = projected_gradient_norm(w, g) <= tol
    n_iters = 0
    if on_accept is not None:
        on_accept(0, w, f, g, 0.0)
    c1 = 1e-4
    reset_used = False
    for it in range(1, max_iters + 1):
        if converged:
            break
        d = project_box(w - alpha * g) - w
        slope = float(g @ d)
        if slope >= 0.0:
            # secant scaling turned uphill; fall back to a plain projected
            # gradient direction
            alpha = 1.0 / max(np.max(np.abs(g)), 1e-12)
            d = project_box(w - alpha * g) - w
            slope = float(g @ d)
            if slope >= 0.0:
                converged = projected_gradient_norm(w, g) <= tol
                break
        f_ref = max(recent[-window:])
        t = 1.0
        accepted = False
        for _ in range(30):
            w_try = w + t * d
            f_try, g_try = fun(w_try)
            if f_try <= f_ref + c1 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if not reset_used:
                # rejected secant step; retry once from a safeguarded length
                alpha = 1.0 / max(np.max(np.abs(g)), 1e-12)
                reset_used = True
                continue
            # line search cannot improve on the reference value; stop here
            break
        reset_used = False
        s = w_try - w
        y = g_try - g
        sy = float(s @ y)
        ss = float(s @ s)
        alpha = min(max(ss / sy, 1e-10), 1e10) if sy > 1e-18 else min(alpha * 2.0, 1e10)
        w, f, g = w_try, f_try, g_try
        recent.append(f)
        n_iters = it
        converged = projected_gradient_norm(w, g) <= tol
        if on_accept is not None:
            on_accept(it, w, f, g, t)
    return w, f, g, converged, n_iters


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

    def fun(w):
        J, g = estimator.evaluate(w)
        P, dP = penalty(w)
        return -J + gamma * P, -g + gamma * dP

    def on_accept(it, w, f, g, step):
        counts = solve_counter.snapshot()
        P, dP = penalty(w)
        rec = IterationRecord(
            iteration=it,
            objective=f,
            J=-(f - gamma * P),
            grad_norm=projected_gradient_norm(w, g),
            pde_forward=counts.forward,
            pde_adjoint=counts.adjoint,
            wall_time=time.perf_counter() - t_start,
        )
        if dense_ref is not None:
            J_d, g_d, _ = dense_ref.evaluate(w)
            rec.J_error_vs_dense = abs(rec.J - J_d) / max(abs(J_d), 1e-300)
            rec.grad_error_vs_dense = float(np.linalg.norm(gamma * dP - g - g_d) / max(np.linalg.norm(g_d), 1e-300))
        history.append(rec)

    w0 = np.full(estimator.n_s, 0.5) if w0 is None else check_design_weights(w0, estimator.n_s)
    window = NONMONOTONE_WINDOW if estimator.stochastic else 1
    return minimize_box(fun, w0, tol=tol, max_iters=max_iters, window=window, on_accept=on_accept)


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
    w0: np.ndarray | None = None,
    tol: float = 1e-5,
    max_iters: int = 200,
    round_tol: float = 1e-2,
    dense_ref=None,
) -> DesignResult:
    """Warm-started continuation over P_eps(w) = sum w_i/(w_i + eps).

    Each stage minimizes -J + gamma * P_eps for the next smaller eps, started
    from the previous solution.  The final weights are rounded to {0,1} where
    within ``round_tol`` of a bound; failure to reach a binary vector is
    reported via ``reached_binary``, not rounded away.
    """
    check_solve(penalty_gamma, tol, max_iters, schedule=schedule)
    w = w0
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
    w_final[w_final <= round_tol] = 0.0
    w_final[w_final >= 1.0 - round_tol] = 1.0
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
