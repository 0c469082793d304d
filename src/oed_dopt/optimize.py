"""Sparsified design optimization over the box [0,1]^{n_s}.

Minimizes -J(w) + gamma * P(w) with a projected quasi-Newton descent:
Barzilai-Borwein secant step lengths (the memory-one secant approximation),
box projection, and Armijo backtracking along the projected path.  When the
estimator supplying (J, grad) is the randomized one, whose gradient is not the
exact derivative of its objective, the line search is relaxed with a
nonmonotone window of 5 iterations.

Two sparsification routes are provided: an l1 penalty followed by relative
thresholding, and a continuation over the smooth l0 surrogate
P_eps(w) = sum_i w_i / (w_i + eps) with warm starts and a decreasing schedule
eps_i = 1/2^i.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .accounting import solve_counter
from .errors import ConfigError
from .oed import Estimator, check_design_weights

DEFAULT_SCHEDULE = tuple(0.5**i for i in range(1, 7))
NONMONOTONE_WINDOW = 5


@dataclass
class PenaltyConfig:
    """Sparsifying penalty: kind "l1" or "continuation" with its schedule."""

    kind: str = "l1"
    gamma: float = 1.0
    schedule: tuple = DEFAULT_SCHEDULE

    def __post_init__(self):
        if self.kind not in ("l1", "continuation"):
            raise ConfigError(f"unknown penalty kind {self.kind!r}")
        if self.gamma < 0:
            raise ConfigError("penalty gamma must be nonnegative")
        eps = np.asarray(self.schedule, dtype=float)
        if len(eps) == 0 or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
            raise ConfigError("continuation schedule must be positive and strictly decreasing")


@dataclass
class IterationRecord:
    iteration: int
    objective: float  # penalized objective of the accepted iterate
    J: float
    grad_norm: float  # projected-gradient infinity norm
    step: float
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
    method: str = ""
    penalty: str = ""
    gamma: float = 0.0

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


def _make_recorder(history, J_from, grad_from, dense_ref, t_start):
    # J_from / grad_from strip the penalty terms off the penalized (f, g) so
    # no extra estimator evaluation (hence no extra PDE solve) is needed.
    def on_accept(it, w, f, g, step):
        counts = solve_counter.snapshot()
        rec = IterationRecord(
            iteration=it,
            objective=f,
            J=J_from(w, f),
            grad_norm=projected_gradient_norm(w, g),
            step=step,
            pde_forward=counts.forward,
            pde_adjoint=counts.adjoint,
            wall_time=time.perf_counter() - t_start,
        )
        if dense_ref is not None:
            J_d, g_d, _ = dense_ref.evaluate(w)
            J_e, g_e = J_from(w, f), grad_from(w, g)
            rec.J_error_vs_dense = abs(J_e - J_d) / max(abs(J_d), 1e-300)
            rec.grad_error_vs_dense = float(
                np.linalg.norm(g_e - g_d) / max(np.linalg.norm(g_d), 1e-300)
            )
        history.append(rec)

    return on_accept


def solve_l1(
    estimator: Estimator,
    penalty_gamma: float,
    w0: np.ndarray | None = None,
    tol: float = 1e-5,
    max_iters: int = 200,
    window: int | None = None,
    threshold_rel: float = 0.03,
    dense_ref=None,
) -> DesignResult:
    """Minimize -J(w) + gamma * sum(w) over the box, then threshold.

    The inner solver is monotone for deterministic estimators and uses the
    5-iteration nonmonotone window for the randomized one.
    """
    if penalty_gamma < 0:
        raise ConfigError("penalty_gamma must be nonnegative")
    n_s = estimator.n_s
    w0 = np.full(n_s, 0.5) if w0 is None else check_design_weights(w0, n_s)
    if window is None:
        window = NONMONOTONE_WINDOW if estimator.stochastic else 1

    def fun(w):
        J, g = estimator.evaluate(w)
        return -J + penalty_gamma * float(np.sum(w)), -g + penalty_gamma

    history: list[IterationRecord] = []
    recorder = _make_recorder(
        history,
        lambda w, f: -(f - penalty_gamma * float(np.sum(w))),
        lambda w, g: penalty_gamma - g,
        dense_ref,
        time.perf_counter(),
    )
    w, f, g, converged, _ = minimize_box(fun, w0, tol=tol, max_iters=max_iters, window=window, on_accept=recorder)
    binary = threshold(w, threshold_rel)
    return DesignResult(
        w_opt=w,
        binary=binary,
        history=history,
        converged=converged,
        method=estimator.name,
        penalty="l1",
        gamma=penalty_gamma,
    )


def distance_to_binary(w: np.ndarray) -> float:
    return float(np.max(np.minimum(w, 1.0 - w))) if len(w) else 0.0


def solve_continuation(
    estimator: Estimator,
    penalty_gamma: float,
    schedule=DEFAULT_SCHEDULE,
    w0: np.ndarray | None = None,
    tol: float = 1e-5,
    max_iters: int = 200,
    window: int | None = None,
    round_tol: float = 1e-2,
    dense_ref=None,
) -> DesignResult:
    """Warm-started continuation over P_eps(w) = sum w_i/(w_i + eps).

    Each stage minimizes -J + gamma * P_eps for the next smaller eps, started
    from the previous solution.  The final weights are rounded to {0,1} where
    within ``round_tol`` of a bound; failure to reach a binary vector is
    reported via ``reached_binary``, not rounded away.
    """
    cfg = PenaltyConfig(kind="continuation", gamma=penalty_gamma, schedule=tuple(schedule))
    n_s = estimator.n_s
    w = np.full(n_s, 0.5) if w0 is None else check_design_weights(w0, n_s)
    if window is None:
        window = NONMONOTONE_WINDOW if estimator.stochastic else 1

    history: list[IterationRecord] = []
    stages = []
    t_start = time.perf_counter()
    for eps in cfg.schedule:

        def fun(wv, eps=eps):
            J, g = estimator.evaluate(wv)
            pen = float(np.sum(wv / (wv + eps)))
            gpen = eps / (wv + eps) ** 2
            return -J + penalty_gamma * pen, -g + penalty_gamma * gpen

        recorder = _make_recorder(
            history,
            lambda wv, f, eps=eps: -(f - penalty_gamma * float(np.sum(wv / (wv + eps)))),
            lambda wv, g, eps=eps: penalty_gamma * eps / (wv + eps) ** 2 - g,
            dense_ref,
            t_start,
        )
        w, f, g, converged, n_it = minimize_box(
            fun, w, tol=tol, max_iters=max_iters, window=window, on_accept=recorder
        )
        stages.append(
            {
                "eps": eps,
                "iterations": n_it,
                "objective": f,
                "max_distance_to_binary": distance_to_binary(w),
                "converged": converged,
            }
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
    binary = (w_final >= 0.5).astype(int)
    return DesignResult(
        w_opt=w_final,
        binary=binary,
        history=history,
        stages=stages,
        converged=all(s["converged"] for s in stages),
        reached_binary=reached,
        method=estimator.name,
        penalty="continuation",
        gamma=penalty_gamma,
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
