"""Exact D-optimal quantities from the observation-space Gram matrix.

G^T is materialized with one batched adjoint call on the n_y unit vectors.
After that, C = G G^T (n_y x n_y) gives every exact quantity by small dense
algebra, with no further PDE solves.  With S = diag(sqrt(w_j) / sigma_j) over
the time-major observation rows and B = I + S C S:

    J(w)       = log det(I + H(w)) = log det(B)            (Sylvester)
    dJ/dw_j    = sigma_j^-2 sum_{r in sensor j} [C - C S B^-1 S C]_rr
    spectrum   = eig(S C S), the nonzero eigenvalues of H(w) = G^T S^2 G

The gradient is the Woodbury form of tr((I + H)^-1 dH/dw_j).  Nothing here
uses the package's own dense reference, so the two can check each other.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla


class ExactReference:
    """Exact J, gradient and spectrum for one whitened forward map."""

    def __init__(self, G, sigma, n_t: int):
        self.sigma = np.asarray(sigma, dtype=float)
        self.n_s = len(self.sigma)
        self.n_t = int(n_t)
        Gt = G.apply_transpose(np.eye(G.n_y))  # (n, n_y): n_y adjoint columns, one call
        C = Gt.T @ Gt
        self.C = 0.5 * (C + C.T)

    def _row_scale(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float).ravel()
        # time-major stacking: row m * n_s + j belongs to sensor j
        return np.tile(np.sqrt(w) / self.sigma, self.n_t)

    def evaluate(self, w):
        """(J, grad) at the design w, both exact."""
        s = self._row_scale(w)
        B = np.eye(len(s)) + s[:, None] * self.C * s[None, :]
        cf = sla.cho_factor(B, lower=True)
        J = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
        X = sla.cho_solve(cf, s[:, None] * self.C)  # B^-1 S C
        diag = np.diag(self.C) - np.einsum("ra,ar->r", self.C * s[None, :], X)
        grad = diag.reshape(self.n_t, self.n_s).sum(axis=0) / self.sigma**2
        return J, grad

    def spectrum(self, w) -> np.ndarray:
        """Eigenvalues of H(w) restricted to its range, descending and >= 0."""
        s = self._row_scale(w)
        lam = np.linalg.eigvalsh(s[:, None] * self.C * s[None, :])[::-1]
        return np.clip(lam, 0.0, None)


def rel_err(estimate, exact) -> float:
    """Relative error of a scalar or vector (2-norm) against the exact value."""
    estimate = np.asarray(estimate, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.linalg.norm(estimate - exact) / max(np.linalg.norm(exact), 1e-300))
