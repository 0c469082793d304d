"""MAP estimation by matrix-free conjugate gradients.

The MAP point solves the whitened normal equations

    (I + H(w)) x = G^T W y_obs,        theta_post = L^{-1} R x,

by plain conjugate gradients; the whitened system is I plus a PSD operator so
its condition number is 1 + lam_max and no further preconditioning is needed.
The held SVD of an Eig-k run's factor (a w = 0 run included) gives the MAP
point at 0 solves, and CG iterations on a held design cost no solve; without
one, CG starts at zero for 1 adjoint solve, and each iteration costs one
forward and one adjoint solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .oed import DesignProblem, check_observations, check_tol

#: CG iterations before map_estimate gives up with a ConvergenceError.
MAX_CG_ITER = 500


@dataclass
class MapSolveReport:
    theta_post: np.ndarray
    iterations: int
    rel_residual: float
    iterates: list = field(default_factory=list)


def map_estimate(
    design: DesignProblem,
    w,
    y_obs: np.ndarray,
    tol: float = 1e-8,
    record_iterates: bool = False,
) -> MapSolveReport:
    """MAP point by matrix-free CG on the whitened normal equations.

    With B^T's active columns Bt = U diag(s) Vh and their thin SVD held by
    ``design.misfit_op(w)`` after an Eig-k run, x0 = Bt (I + Bt^T Bt)^{-1} S_a y_a
    = U diag(s / (1 + s^2)) Vh S_a y_a is the MAP point, b = Bt S_a y_a, at no
    solve, and each CG iteration reads Bt at no solve; else x0 = 0, b costs 1
    adjoint solve and an iteration 1 forward and 1 adjoint.  A tol that is not a
    finite number > 0, or a y_obs of the wrong length, is a :class:`ConfigError`;
    a breakdown (p^T A p <= 0) or a residual above ``tol`` after ``MAX_CG_ITER``
    iterations is a :class:`ConvergenceError`, so a returned report has converged.
    """
    check_tol(tol)
    op = design.misfit_op(w)
    y_obs = check_observations(y_obs, design.G.n_y)
    if op.held_factor is not None:
        Bt, sy = op.held_factor, np.sqrt(op.diag_w[op.active_rows]) * y_obs[op.active_rows]
        U, s, Vh = op.factor_svd()
        x = U @ (s / (1.0 + s**2) * (Vh @ sy))
        b = Bt @ sy
        r = b - x - op.matvec(x)
    else:
        x = np.zeros(design.G.n)
        b = design.G.apply_transpose(op.diag_w * y_obs)
        r = b.copy()

    bnorm = float(np.linalg.norm(b))
    iterates = []
    if bnorm == 0.0:
        return MapSolveReport(design.G.field_from_whitened(np.zeros(design.G.n)), 0, 0.0, iterates)

    p = r.copy()
    rs = float(r @ r)
    converged = bool(np.sqrt(rs) <= tol * bnorm)
    it = 0
    while not converged and it < MAX_CG_ITER:
        it += 1
        Ap = p + op.matvec(p)
        pAp = float(p @ Ap)
        if not pAp > 0.0:  # breakdown: I + H is SPD and r != 0 here, so p is 0 or not finite
            break
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        if record_iterates:
            iterates.append(x.copy())
        rs_new = float(r @ r)
        converged = bool(np.sqrt(rs_new) <= tol * bnorm)
        p = r + (rs_new / rs) * p
        rs = rs_new
    rel = float(np.sqrt(rs) / bnorm)
    if not converged:
        raise ConvergenceError(
            f"CG stalled at relative residual {rel:.3e} after {it} iterations",
            residuals=rel,
        )
    return MapSolveReport(design.G.field_from_whitened(x), it, rel, iterates)
