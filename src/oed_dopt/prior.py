"""Gaussian prior machinery and the whitened forward map.

The prior precision square root is the Laplacian-like operator A = M^{-1} L
with L = alpha K + beta M, so the nodal prior covariance is L^{-1} M L^{-1}.
All spectral computations downstream run on the Euclidean-symmetric whitened
operator built from

    G = F L^{-1} R,      R R^T = M,

whose weighted Gram matrix G^T W G is the design-weighted misfit Hessian in
whitened coordinates.  Nothing here is ever materialized; L is factorized once
and applied via solves.  L is symmetric, so that one factor serves L^{-1} and
L^{-T} alike.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError
from .fem import AssembledOperators, MassFactor
from .transport import ForwardMap, _factorize, _panels, _solver


class PriorOperator:
    """Prior defined by L = alpha K + beta M with a reusable factorization.

    alpha >= 0 and beta > 0 keep L SPD (alpha = 0 warns).  The effective mass matrix
    comes from the mass factor (lumped replaces M everywhere when that mode is chosen).
    """

    def __init__(self, ops: AssembledOperators, mass: MassFactor, alpha: float, beta: float):
        if alpha < 0 or beta <= 0:
            raise ConfigError("prior needs alpha >= 0 and beta > 0")
        if alpha == 0:
            warnings.warn("prior.alpha = 0: L^-1 M L^-1 is trace-class in 2-D only for alpha > 0", stacklevel=2)
        self.mass = mass
        self.L = (alpha * ops.K + beta * mass.M).tocsc()
        self._lu = _factorize(self.L, 0.0, "prior operator")

    def solve_L(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        return _solver(self._lu, self._lu, b)(b)

    def solve_Lt(self, b: np.ndarray) -> np.ndarray:
        # L is assembled exactly symmetric, so L^{-T} b = L^{-1} b
        b = np.asarray(b, dtype=float)
        return _solver(self._lu, self._lu, b)(b)

    def weighted_norm_sq(self, theta: np.ndarray) -> float:
        """Squared prior-precision norm theta^T L M^{-1} L theta = ||R^{-1} L theta||^2."""
        z = self.mass.solve_R(self.L @ np.asarray(theta, dtype=float))
        return float(z @ z)


class WhitenedForwardMap:
    """G = F L^{-1} R and its exact transpose, the estimators' sole primitive.

    apply costs one forward PDE solve (plus sparse solves); apply_transpose
    one adjoint PDE solve.  Both accept stacked columns.
    """

    def __init__(self, forward: ForwardMap, prior: PriorOperator):
        self.forward = forward
        self.prior = prior
        self.n = forward.n
        self.n_y = forward.n_y
        self.obs = forward.obs

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise ConfigError(f"expected leading dimension {self.n}, got {x.shape[0]}")
        return self.forward.apply(self.prior.solve_L(self.prior.mass.apply_R(x)))

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.n_y:
            raise ConfigError(f"expected leading dimension {self.n_y}, got {y.shape[0]}")
        return self.prior.mass.apply_Rt(self.prior.solve_Lt(self.forward.apply_transpose(y)))

    def sensor_adjoints(self, sensors) -> np.ndarray:
        """G^T on unit probes, as :meth:`ForwardMap.sensor_adjoints`, whitened in place.

        Each time's block is whitened in the forward map's column panels, from its
        first column, so the sweep's peak is its one output plus a few panels, and
        each column meets the same solves as in one whole-block solve.
        """
        Gt = self.forward.sensor_adjoints(sensors)
        ns = Gt.shape[1] // self.obs.n_t
        for i in range(self.obs.n_t if ns else 0):
            block = Gt[:, i * ns : (i + 1) * ns]
            for cols in _panels(ns, self.forward._panel):
                block[:, cols] = self.prior.mass.apply_Rt(self.prior.solve_Lt(block[:, cols]))
        return Gt

    def field_from_whitened(self, x: np.ndarray) -> np.ndarray:
        """Map a whitened-coordinate vector to a nodal field: L^{-1} R x."""
        return self.prior.solve_L(self.prior.mass.apply_R(np.asarray(x, dtype=float)))

