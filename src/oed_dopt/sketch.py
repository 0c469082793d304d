"""Randomized subspace iteration, the exact eigensolver, and error-bound oracles.

The sketch of a symmetric PSD operator H is T = Q^T H Q where Q spans
H^q Omega for a Gaussian test matrix Omega with l = k + p columns.  The
idealized iteration is hardened by re-orthonormalizing after every operator
application.  Eigen-reconstruction, the exact top-k eigenpairs of an operator
B^T B from the thin SVD of B^T that it holds, and the closed-form expected-error
bounds used to validate the estimators all live here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError

#: Largest dense square a path may hold: n_y for ``oed``'s exact reference, nodes for mass mode "cholesky".
DENSE_GUARD = 600


@dataclass(frozen=True)
class SketchConfig:
    """Target rank k, oversampling p (l = k + p), power iterations q, seed."""

    k: int
    p: int = 5
    q: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.p < 0 or self.q < 1:
            raise ConfigError("need k >= 1, p >= 0, q >= 1")

    @property
    def l(self) -> int:
        return self.k + self.p


@dataclass
class LowRankEig:
    """Dominant eigenpairs: U (n, m) orthonormal, lam (m,) descending >= 0.  The sketch gives
    m = l; :func:`exact_eigs` at rank k gives m = min(k, rank of its factor), as the rest have lam = 0."""

    U: np.ndarray
    lam: np.ndarray


@dataclass
class SpectrumSplit:
    """Spectrum partitioned at the target rank: lam1 = top-k, lam2 = tail."""

    lam1: np.ndarray
    lam2: np.ndarray
    n: int

    @classmethod
    def from_spectrum(cls, lam, k: int) -> "SpectrumSplit":
        lam = np.sort(np.asarray(lam, dtype=float))[::-1]
        if np.any(lam < -1e-12 * max(1.0, abs(lam[0]))):
            raise ConfigError("spectrum split requires a PSD spectrum")
        lam = np.clip(lam, 0.0, None)
        return cls(lam1=lam[:k], lam2=lam[k:], n=len(lam))

    @property
    def gap_ratio(self) -> float:
        if len(self.lam2) == 0 or self.lam2[0] == 0.0:
            return 0.0
        return float(self.lam2[0] / self.lam1[-1])


def _orthonormalize(Y: np.ndarray) -> np.ndarray:
    Q, R = np.linalg.qr(Y)
    diag = np.abs(np.diag(R))
    scale = diag.max(initial=0.0)
    deficient = scale == 0.0 or np.any(diag <= Y.shape[0] * np.finfo(float).eps * scale)
    if deficient:
        # Householder QR still returns an orthonormal Q (arbitrary completion
        # of the deficient directions); those directions carry zero Ritz
        # values downstream.
        warnings.warn("sketch subspace is numerically rank deficient", stacklevel=3)
    return Q


def subspace_iteration(op, cfg: SketchConfig):
    """Randomized subspace iteration on a symmetric PSD operator with ``shape`` and ``matmat``.

    Draws a Gaussian n x l test matrix from the seeded generator, applies the
    operator q times with re-orthonormalization after every application, and
    returns (Q, T) with Q the final orthonormal basis and T = Q^T op Q
    symmetrized.
    """
    n = op.shape[0]
    if cfg.l > n:
        raise ConfigError(f"sketch size l = {cfg.l} exceeds dimension n = {n}")
    rng = np.random.default_rng(cfg.seed)
    Y = rng.standard_normal((n, cfg.l))
    for _ in range(cfg.q):
        Y = op.matmat(Y)
        Y = _orthonormalize(Y)
    Q = Y
    T = Q.T @ op.matmat(Q)
    return Q, 0.5 * (T + T.T)


def low_rank_eig(Q: np.ndarray, T: np.ndarray) -> LowRankEig:
    """Eigen-reconstruction of the sketched operator: U_hat = Q U_T, descending."""
    lam, UT = np.linalg.eigh(0.5 * (T + T.T))
    order = np.argsort(lam)[::-1]
    lam = np.clip(lam[order], 0.0, None)
    return LowRankEig(U=Q @ UT[:, order], lam=lam)


def sketched_logdet(T: np.ndarray) -> float:
    """log det(I + T) through the symmetric eigendecomposition of T."""
    lam = np.linalg.eigvalsh(0.5 * (T + T.T))
    return float(np.sum(np.log1p(np.clip(lam, 0.0, None))))


_RTOL = 1e-8  # of exact_eigs's residual check


def exact_eigs(op, k: int) -> LowRankEig:
    """Top-k eigenpairs of a PSD operator op = B^T B of shape (n, n), sliced from the thin
    SVD (U, s, Vh) that ``op.factor_svd()`` holds of the r nonzero columns Bt = ``op.factor_t()``
    of B^T (``oed.MisfitHessianOp``), so no k decomposes again.

    U and lam = s^2 are exact for any r; past min(n, r) there are no more pairs
    (:class:`LowRankEig`).  Each pair must satisfy
    ||Bt Bt^T u - lam u|| <= 1e-8 lam_max (``_RTOL``), or a
    :class:`ConvergenceError` is raised.
    """
    n = op.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"need 1 <= k <= n, got k = {k}, n = {n}")
    U, s, _ = op.factor_svd()
    U, lam = U[:, :k], s[:k] ** 2
    Bt = op.factor_t()
    residuals = np.linalg.norm(Bt @ (Bt.T @ U) - U * lam, axis=0)
    if np.any(residuals > _RTOL * (np.max(lam, initial=0.0) or 1.0)):
        raise ConvergenceError(f"eigenpair residuals exceed {_RTOL:g} * lam_max", residuals=residuals)
    return LowRankEig(U=U, lam=lam)


def cge_constant(k: int, p: int, n: int) -> float:
    """Gaussian-sketch constant entering the expected-error bounds.

    Defined for oversampling p >= 2 as

        C = e^2 (k+p) / (p+1)^2 * (2 pi (p+1))^(-2/(p+1))
            * (mu + sqrt(2))^2 * (p+1)/(p-1),    mu = sqrt(n-k) + sqrt(k+p).
    """
    if p < 2:
        raise ConfigError("the expectation bound requires oversampling p >= 2")
    if not 1 <= k <= n:
        raise ConfigError("need 1 <= k <= n")
    mu = np.sqrt(n - k) + np.sqrt(k + p)
    return float(
        (np.e**2 * (k + p))
        / (p + 1) ** 2
        * (1.0 / (2.0 * np.pi * (p + 1))) ** (2.0 / (p + 1))
        * (mu + np.sqrt(2.0)) ** 2
        * ((p + 1) / (p - 1))
    )


BOUND_KINDS = (
    "kl_eig",
    "kl_rand",
    "logdet_rand",
    "grad_rand_component",
    "grad_eig_component",
    "grad_norm_eig",
    "grad_norm_rand",
    "frozen",
)


def error_bounds(
    split: SpectrumSplit,
    cfg: SketchConfig | None,
    kind: str,
    z_norm: float | None = None,
    z_norms: np.ndarray | None = None,
) -> float:
    """Closed-form error bound of the requested kind for a spectrum split.

    Randomized kinds need the sketch configuration (for the Gaussian constant
    and the gap ratio power) and a gap ratio < 1.  Gradient kinds need the
    spectral norm(s) of the design-derivative matrices: ``z_norm`` for the
    componentwise bounds, ``z_norms`` (one per sensor) for the gradient-norm
    bounds.  For kind "frozen", ``split.lam2`` holds the squared discarded
    singular values of the noise-whitened forward map.
    """
    if kind not in BOUND_KINDS:
        raise ConfigError(f"unknown bound kind {kind!r}")
    lam2 = split.lam2
    tail_logdet = float(np.sum(np.log1p(lam2)))
    tail_trace = float(np.sum(lam2))
    tail_shrink = float(np.sum(lam2 / (1.0 + lam2)))

    if kind == "frozen":
        return tail_logdet
    if kind == "kl_eig":
        return 0.5 * (tail_logdet + tail_trace)
    if kind == "grad_eig_component":
        if z_norm is None:
            raise ConfigError("grad_eig_component needs z_norm")
        return float(z_norm) * tail_shrink
    if kind == "grad_norm_eig":
        if z_norms is None:
            raise ConfigError("grad_norm_eig needs z_norms")
        return float(np.sqrt(np.sum(np.square(z_norms)))) * tail_shrink

    # randomized kinds
    if cfg is None:
        raise ConfigError(f"{kind} needs a SketchConfig")
    gamma = split.gap_ratio
    if gamma >= 1.0:
        raise ConfigError(f"randomized bound requires gap ratio < 1, got {gamma}")
    c = gamma ** (2 * cfg.q - 1) * cge_constant(cfg.k, cfg.p, split.n)
    if kind == "logdet_rand":
        return tail_logdet + float(np.sum(np.log1p(c * lam2)))
    if kind == "kl_rand":
        return 0.5 * ((1.0 + c) * tail_trace + tail_logdet + float(np.sum(np.log1p(c * lam2))))
    if kind == "grad_rand_component":
        if z_norm is None:
            raise ConfigError("grad_rand_component needs z_norm")
        return float(z_norm) * (1.0 + c) * tail_trace
    # grad_norm_rand
    if z_norms is None:
        raise ConfigError("grad_norm_rand needs z_norms")
    return float(np.sum(z_norms)) * (1.0 + c) * tail_trace
