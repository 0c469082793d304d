"""Design-weighted misfit Hessian and the three objective/gradient estimators.

For design weights w in [0,1]^{n_s} and per-sensor noise sigma_j, the weighted
misfit Hessian in whitened coordinates is

    H(w) = G^T W G,   W = diag over time blocks of w_j / sigma_j^2,

a symmetric PSD operator of rank at most min(n_y, n).  The D-optimal objective
is J(w) = log det(I + H(w)) with componentwise derivative

    dJ/dw_j = z_j - sum_i [lam_i/(1+lam_i)] <q_i, E_j q_i / sigma_j^2>,

where z_j = tr(dH/dw_j) are design-independent constants.  Three estimators
are provided: truncated spectral (top-k exact eigenpairs, sliced from one thin
SVD per design of B^T's active columns, B = W^{1/2} G, which also gives the
MAP point), randomized (subspace-iteration sketch), and frozen, whose factor
U diag(s) of G's exact rank-k_f truncated SVD needs zero PDE solves per
evaluation.  The exact reference works in
observation space: with C = G G^T (n_y x n_y) and S = W^{1/2}, Sylvester's
identity gives log det(I + H(w)) = log det(I + S C S); J, the gradient, the
spectrum and the MAP norm follow from one eigendecomposition of its active
block per design, for any n once n_y <= DENSE_GUARD (checked only by
:attr:`DesignProblem.dense_allowed`).  ``DesignProblem.estimator`` maps a
method name to one of these four as an :class:`Estimator`.  The z step
(:func:`precompute_z`) is the one producer of a DesignProblem's
observation-space data: it forms G^T by one reverse sweep of the n_s sensor
probes (n_y adjoint solves), forms C from it and drops it, or reads C from the
z cache.  z is sigma_j^{-2} times sensor j's share of diag(C); the frozen
factor and the dense reference read C with no solve, and no path forms G itself.
"""

from __future__ import annotations

import numbers
import os
import struct
import tempfile
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import ConfigError, ConvergenceError
from .sketch import (
    _RTOL,
    DENSE_GUARD,
    SketchConfig,
    exact_eigs,
    low_rank_eig,
    sketched_logdet,
    subspace_iteration,
)

_ZCACHE_MAGIC = b"OEDZ0003"


@dataclass(frozen=True)
class NoiseModel:
    """Per-sensor noise standard deviations (diagonal noise covariance) and their squares.

    ``sigma_sq`` is formed once; a huge sigma overflows it to inf, and dividing
    by it then weighs that sensor exactly 0.
    """

    sigma: np.ndarray
    sigma_sq: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        with np.errstate(over="ignore", divide="ignore"):
            if self.sigma.ndim != 1 or np.any(self.sigma <= 0) or not np.all(np.isfinite(self.sigma**-2.0)):
                raise ConfigError("noise standard deviations must be > 0 with a finite inverse square")
            object.__setattr__(self, "sigma_sq", self.sigma**2)

    @property
    def n_s(self) -> int:
        return len(self.sigma)


def check_design_weights(w, n_s: int) -> np.ndarray:
    w = np.asarray(w, dtype=float).ravel()
    if w.shape != (n_s,):
        raise ConfigError(f"design weights must have shape ({n_s},), got {w.shape}")
    if not np.all((w >= 0) & (w <= 1)):
        raise ConfigError("design weights must lie in [0, 1]")
    return w


def check_tol(tol) -> None:
    if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool) and 0 < tol < np.inf):
        raise ConfigError(f"tol must be a finite number > 0, got {tol!r}")


def check_observations(y_obs, n_y: int) -> np.ndarray:
    """y_obs as a flat float array of n_y entries; another length is a ConfigError."""
    y_obs = np.asarray(y_obs, dtype=float).ravel()
    if y_obs.shape != (n_y,):
        raise ConfigError(f"y_obs has wrong length: {y_obs.shape[0]} entries for {n_y} observations")
    return y_obs


def weighted_diag(w: np.ndarray, noise: NoiseModel, n_t: int) -> np.ndarray:
    """Diagonal of W = sum_j w_j E_j / sigma_j^2 in time-major stacking."""
    return np.tile(w / noise.sigma_sq, n_t)


def sensor_blocks(Y: np.ndarray, n_s: int, n_t: int) -> np.ndarray:
    """Reshape (n_y, ...) observation stacks to (n_t, n_s, ...)."""
    return Y.reshape(n_t, n_s, *Y.shape[1:])


class MisfitHessianOp:
    """x -> G^T (W (G x)) = B^T B x, B = W^{1/2} G (n_y rows); symmetric PSD, (n, n) ``shape``.

    Made on validated weights that it owns, by :meth:`DesignProblem.misfit_op`.
    Only the r = n_t |supp w| ``active_rows`` of W are nonzero (``rank_bound``);
    :meth:`factor_t` forms those r columns of B^T by one ``G.sensor_adjoints``
    sweep (r adjoint solves) and keeps them as ``held_factor``, and
    :meth:`factor_svd` decomposes them once, at no solve, as ``held_svd``.
    A column of ``matmat(X)`` (or ``matvec``) costs one forward and one adjoint
    solve until the factor is held, and no solve after: Bt (Bt^T X).
    """

    def __init__(self, G, w: np.ndarray, noise: NoiseModel):
        self.G = G
        self.w = w
        self.diag_w = weighted_diag(self.w, noise, G.obs.n_t)
        # time-major, as sensor_adjoints orders its columns
        self.active_rows = np.flatnonzero(np.tile(self.w, G.obs.n_t))
        self.rank_bound = len(self.active_rows)
        self.shape = (G.n, G.n)
        self.held_factor = None  # B^T's r nonzero columns once factor_t has run
        self.held_svd = None  # their thin SVD once factor_svd has run
        self.eig_run: list | None = None  # [k, pairs, G U or None] of the last Eig-k rank
        self.sketch_run: tuple | None = None  # (cfg, T) of the last sketch

    def matvec(self, x):
        return self.matmat(np.asarray(x).reshape(-1, 1))[:, 0]

    def matmat(self, X):
        if self.held_factor is not None:
            return self.held_factor @ (self.held_factor.T @ X)
        return self.G.apply_transpose(self.diag_w[:, None] * self.G.apply(X))

    def factor_t(self) -> np.ndarray:
        """B^T on the active rows, (n, r): G^T W^{1/2} on each active row's unit probe."""
        if self.held_factor is None:
            self.held_factor = self.G.sensor_adjoints(np.flatnonzero(self.w)) * np.sqrt(self.diag_w[self.active_rows])
        return self.held_factor

    def factor_svd(self):
        """Thin SVD (U, s, Vh) of :meth:`factor_t`, formed once: U (n, m), s (m,) descending, m = min(n, r)."""
        if self.held_svd is None:
            self.held_svd = np.linalg.svd(self.factor_t(), full_matrices=False)
        return self.held_svd


def _zcache_write(path, config_hash: bytes, C: np.ndarray) -> None:
    """Write the cache atomically: a temp file in the same directory, then a rename."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(_ZCACHE_MAGIC)
            f.write(config_hash)
            f.write(struct.pack("<I", len(C)))
            f.write(np.asarray(C, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _zcache_read(path, config_hash: bytes, n_y: int):
    """Cached C, or None for a malformed or older file or one keyed to another configuration."""
    with open(path, "rb") as f:
        raw = f.read()
    off = len(_ZCACHE_MAGIC) + 32 + 4
    if len(raw) < off or raw[: len(_ZCACHE_MAGIC)] != _ZCACHE_MAGIC:
        return None
    if raw[len(_ZCACHE_MAGIC) : len(_ZCACHE_MAGIC) + 32] != config_hash:
        return None
    if struct.unpack_from("<I", raw, off - 4) != (n_y,) or len(raw) != off + 8 * n_y * n_y:
        return None
    return np.frombuffer(raw, dtype="<f8", offset=off).reshape(n_y, n_y).copy()


def precompute_z(
    G,
    noise: NoiseModel,
    n_t: int,
    cache_path=None,
    config_hash: bytes | None = None,
) -> np.ndarray:
    """C = G G^T (n_y x n_y), design-independent, at one adjoint solve per (sensor, time).

    z_j = sigma_j^{-2} sum_m ||G^T (v_m (x) e_j)||^2 is sigma_j^{-2} times sensor
    j's share of diag(C) (:attr:`DesignProblem.z`).  A miss costs n_s * n_t
    adjoint solves (one reverse sweep of the n_s probes, ``G.sensor_adjoints``),
    which marches into one (n, n_y) G^T and whitens it in place, panel by panel,
    so the step's peak is G^T and a few column panels; C is formed from that
    G^T, which is then dropped.  With a cache path, the
    file (keyed by a 32-byte configuration hash) holds C: a hit costs no solve,
    a miss writes it, and a file of another format is a warned miss.  An
    ``n_t`` other than the map's ``G.obs.n_t`` is refused before any solve;
    ``noise`` is unused, as C does not depend on it.
    """
    if n_t != G.obs.n_t:
        raise ConfigError(f"n_t = {n_t}, but the forward map observes {G.obs.n_t} times")
    if cache_path is not None:
        if config_hash is None or len(config_hash) != 32:
            raise ConfigError("z cache needs a 32-byte configuration hash")
        if os.path.exists(cache_path):
            C = _zcache_read(cache_path, config_hash, G.n_y)
            if C is not None:
                return C
            warnings.warn("z cache is malformed or does not match configuration; recomputing", stacklevel=2)

    Gt = G.sensor_adjoints(np.arange(G.obs.n_s))
    C = Gt.T @ Gt
    if cache_path is not None:
        _zcache_write(cache_path, config_hash, C)
    return C


class DesignProblem:
    """Objective, gradient and KL estimators for one sensor-placement problem.

    Wraps the whitened forward map G, whose ``obs`` is the observation layout
    (n_s sensors times n_t times, time-major), and a noise model of one sigma
    per sensor.  The design's one z step gives C = G G^T: the estimators share
    the constants z read off its diagonal, and the frozen factor and the dense
    reference share C itself.
    """

    def __init__(self, G, noise: NoiseModel):
        self.G = G
        self.noise = noise
        self.n_s, self.n_t = G.obs.n_s, G.obs.n_t
        if noise.n_s != self.n_s:
            raise ConfigError(f"the noise model has {noise.n_s} sensors, the forward map {self.n_s}")
        self._C: np.ndarray | None = None
        self._dense: DenseReference | None = None
        self._op: MisfitHessianOp | None = None  # of the last design, with its estimator data
        self._frozen: tuple | None = None  # (k_f, factor) of the last build_frozen

    # -- constants ---------------------------------------------------------

    @property
    def rank_bound(self) -> int:
        return min(self.G.n_y, self.G.n)

    def ensure_z(self, cache_path=None, config_hash=None) -> np.ndarray:
        """C = G G^T of the design's one z step, run on the first call of any reader.

        The cache arguments apply to that first step only; a later call
        returns the held C whatever it is given.
        """
        if self._C is None:
            self._C = precompute_z(self.G, self.noise, self.n_t, cache_path, config_hash)
        return self._C

    @property
    def C(self) -> np.ndarray:
        """C = G G^T as an (n_y, n_y) array, from the design's one z step."""
        return self.ensure_z()

    @property
    def dense_allowed(self) -> bool:
        """Whether the exact reference may hold its n_y x n_y matrices (n_y <= DENSE_GUARD)."""
        return self.G.n_y <= DENSE_GUARD

    @property
    def z(self) -> np.ndarray:
        """z_j = tr(dH/dw_j) = sigma_j^{-2} sum over sensor j's rows r of C_rr, each >= 0."""
        return sensor_blocks(np.diag(self.C), self.n_s, self.n_t).sum(axis=0) / self.noise.sigma_sq

    def misfit_op(self, w) -> MisfitHessianOp:
        """H(w), held for the last design: the one place the Eig-k, randomized and MAP paths
        validate w and key their data.  A w of equal values gets the held operator, with its
        factor, Eig-k run and sketch; another w gets a new one, made and held on a copy of w."""
        w = check_design_weights(w, self.n_s)
        if self._op is None or not np.array_equal(self._op.w, w):
            self._op = MisfitHessianOp(self.G, w.copy(), self.noise)
        return self._op

    # -- shared gradient assembly -------------------------------------------

    def _gradient_from_pairs(self, lam: np.ndarray, Qhat: np.ndarray) -> np.ndarray:
        """z_j - sum_i [lam_i/(1+lam_i)] <q_i, E_j q_i>/sigma_j^2 for all j."""
        D = lam / (1.0 + lam)
        S = (sensor_blocks(Qhat, self.n_s, self.n_t) ** 2).sum(axis=0)  # (n_s, r)
        return self.z - (S @ D) / self.noise.sigma_sq

    # -- truncated spectral estimator ---------------------------------------

    def _top_eigs(self, w, k: int, images: bool = True):
        """(eig, G U): the top-k eigenpairs of H(w) and, if ``images``, their forward images.

        J, the gradient, the KL term and the MAP point of one design share
        one Eig-k run on :meth:`misfit_op`: it holds B^T's active columns
        and their thin SVD, so a repeat costs no solve and a new k slices the
        held SVD at no solve; G U is formed once per k, when asked for.  Past
        the factor's rank, eig has fewer than k pairs.
        """
        op = self.misfit_op(w)
        if k > self.rank_bound:
            raise ConfigError(f"k = {k} exceeds rank bound {self.rank_bound}")
        if op.eig_run is None or op.eig_run[0] != k:
            op.eig_run = [k, exact_eigs(op, k), None]
        _, eig, GU = op.eig_run
        if GU is None and images:
            op.eig_run[2] = GU = self._eig_images(op, eig)
        return eig, GU

    def _eig_images(self, op: MisfitHessianOp, eig) -> np.ndarray:
        """G U at one forward solve per pair, min(k, r), checked against the held
        B U = Bt^T U within rtol * sqrt(lam_max)."""
        rows = op.active_rows
        GU = self.G.apply(eig.U)
        gap = np.linalg.norm(np.sqrt(op.diag_w[rows])[:, None] * GU[rows] - op.held_factor.T @ eig.U, axis=0)
        if np.any(gap > _RTOL * np.sqrt(np.max(eig.lam, initial=0.0) or 1.0)):
            raise ConvergenceError("forward images disagree with the held adjoint factor", residuals=gap)
        return GU

    def objective_grad_eig(self, w, k: int, seed: int = 0):
        """Objective and gradient from the top-k exact eigenpairs of H(w); ``seed`` is unused.

        Costs one sensor sweep per design (r adjoint solves), shared with
        :meth:`objective_eig` and ``kl_estimate(method="eig")``, and G U adds
        min(k, r) forward solves, once per (w, k).
        """
        eig, GU = self._top_eigs(w, k)
        J = float(np.sum(np.log1p(eig.lam)))
        return J, self._gradient_from_pairs(eig.lam, GU)

    def objective_eig(self, w, k: int) -> float:
        """J from the top-k exact eigenpairs of H(w), at no forward solve."""
        eig, _ = self._top_eigs(w, k, images=False)
        return float(np.sum(np.log1p(eig.lam)))

    # -- randomized estimator ------------------------------------------------

    def objective_grad_rand(self, w, cfg: SketchConfig):
        """Objective and gradient from one randomized sketch of H(w).

        Costs exactly l(q+2) forward and l(q+1) adjoint solves on every call
        (l = k + p): the sketch spends l(q+1) of each and the gradient
        products G u_hat_i the remaining l forward solves; l forward only on a held
        design, whose sketch reads the Eig-k factor.  T is kept for :meth:`_sketch`.
        """
        op = self.misfit_op(w)
        self.ensure_z()
        Q, T = subspace_iteration(op, cfg)
        op.sketch_run = (cfg, T)
        eig = low_rank_eig(Q, T)
        Qhat = self.G.apply(eig.U)  # l forward solves
        return sketched_logdet(T), self._gradient_from_pairs(eig.lam, Qhat)

    def _sketch(self, w, cfg: SketchConfig) -> np.ndarray:
        """T = Q^T H(w) Q of the randomized sketch, kept for the last cfg on :meth:`misfit_op`.

        J, the spectrum and the KL term of one design share one sketch, made here
        or by :meth:`objective_grad_rand`, which sketches afresh at its exact cost.
        """
        op = self.misfit_op(w)
        if op.sketch_run is None or op.sketch_run[0] != cfg:
            op.sketch_run = (cfg, subspace_iteration(op, cfg)[1])
        return op.sketch_run[1]

    def objective_rand(self, w, cfg: SketchConfig) -> float:
        return sketched_logdet(self._sketch(w, cfg))

    # -- frozen low-rank estimator -------------------------------------------

    def build_frozen(self, k_f: int, seed: int = 0) -> np.ndarray:
        """The (n_y, k_f) factor U diag(s) of G's exact rank-k_f truncated SVD
        G ~ U diag(s) V^T, from the top eigenpairs of C = G G^T (s^2 the
        eigenvalues); ``seed`` is unused.

        Costs no PDE solve once the z step has run, else that step's.  The
        factor of the last k_f is kept, so a repeat runs no second eigh of C.
        """
        if not 1 <= k_f <= self.rank_bound:
            raise ConfigError(f"k_f = {k_f} is below 1 or exceeds min(n_y, n) = {self.rank_bound}")
        if self._frozen is None or self._frozen[0] != k_f:
            lam, U = np.linalg.eigh(self.C)
            self._frozen = (k_f, U[:, ::-1][:, :k_f] * np.sqrt(np.clip(lam[::-1][:k_f], 0.0, None)))
        return self._frozen[1]

    def objective_grad_frozen(self, w, frozen: np.ndarray):
        """Objective and gradient from the frozen factor A = U diag(s) of
        :meth:`build_frozen`; zero PDE solves.

        J_froz(w) = log det(I + A^T W A) with the noise scaling folded
        into W, and the gradient is the exact derivative of that k_f x k_f
        form.
        """
        w = check_design_weights(w, self.n_s)
        dw = weighted_diag(w, self.noise, self.n_t)
        A = frozen
        B = np.eye(A.shape[1]) + A.T @ (dw[:, None] * A)
        cf = sla.cho_factor(B)
        J = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
        X = sla.cho_solve(cf, A.T)  # (k_f, n_y) = B^{-1} A^T
        diag_proj = np.einsum("yk,ky->y", A, X)  # a_r^T B^{-1} a_r per row r
        per_sensor = sensor_blocks(diag_proj, self.n_s, self.n_t).sum(axis=0)
        grad = per_sensor / self.noise.sigma_sq
        return J, grad

    # -- KL divergence ---------------------------------------------------------

    def kl_estimate(
        self,
        w,
        y_obs: np.ndarray,
        method: str = "rand",
        k: int | None = None,
        cfg: SketchConfig | None = None,
        theta_post: np.ndarray | None = None,
        tol: float = 1e-8,
        seed: int = 0,
    ) -> float:
        """Posterior-to-prior KL divergence for the design w and data y_obs.

        :func:`kl_divergence` of the spectrum of the estimator ``method`` and
        the prior-precision norm of the MAP point: the norm of a supplied
        ``theta_post``, else the estimator's :meth:`Estimator.map_norm_sq`,
        read after the spectrum so that an Eig-k MAP reads the run's factor.
        A bad ``tol`` or a ``y_obs`` of the wrong length is refused before any
        solve.  ``seed`` is unused.
        """
        check_tol(tol)
        y_obs = check_observations(y_obs, self.G.n_y)
        est = self.estimator(method, k=k, cfg=cfg)
        lam = est.spectrum(w)
        if theta_post is None:
            return kl_divergence(lam, est.map_norm_sq(w, y_obs, tol))
        return kl_divergence(lam, self.G.prior.weighted_norm_sq(theta_post))

    # -- dense reference and estimator objects ----------------------------------

    def dense_reference(self) -> "DenseReference":
        if self._dense is None:
            self._dense = DenseReference(self)
        return self._dense

    def estimator(
        self,
        method: str,
        *,
        k: int | None = None,
        cfg: SketchConfig | None = None,
        frozen: np.ndarray | Callable[[], np.ndarray] | None = None,
    ) -> "Estimator":
        """The estimator named ``method``; the one place a method name is read.

        "eig" needs the rank k, "rand" a SketchConfig and "frozen" the factor
        of :meth:`build_frozen`, or a function that builds it and is called
        only for "frozen"; "dense" needs nothing.  An unknown name or a missing
        parameter is a :class:`ConfigError`.
        """
        if method == "eig":
            if k is None:
                raise ConfigError("the eig estimator needs k")
            return EigEstimator(self, k)
        if method == "rand":
            if cfg is None:
                raise ConfigError("the rand estimator needs a SketchConfig")
            return RandEstimator(self, cfg)
        if method == "frozen":
            if frozen is None:
                raise ConfigError("the frozen estimator needs a factor from build_frozen")
            return FrozenEstimator(self, frozen() if callable(frozen) else frozen)
        if method == "dense":
            return DenseEstimator(self)
        raise ConfigError(f"unknown estimator method {method!r}")


class DenseReference:
    """Exact J, gradient, spectrum and MAP norm from C = G G^T (n_y <= DENSE_GUARD).

    S = W^{1/2} is nonzero on the active rows a only; S_a C_aa S_a = V diag(lam)
    V^T gives all four: lam are H(w)'s nonzero eigenvalues (Sylvester), dJ/dw_j
    = sigma_j^{-2} sum over sensor j's rows r of [C - P (I + lam)^{-1} P^T]_rr,
    P = C_{:a} S_a V (Woodbury), and the whitened MAP point G^T S_a V c with
    c = (I + lam)^{-1} V^T S_a y_a has norm^2 sum lam c^2.  The decomposition
    of the last design is kept, keyed by the bytes of S.  No PDE solve.
    """

    def __init__(self, design: DesignProblem):
        if not design.dense_allowed:
            raise ConfigError(f"dense reference refused for n_y = {design.G.n_y} > {DENSE_GUARD}")
        # what it reads of the design, not the design, which holds its reference
        self.C = design.C  # runs the z step here, not in the first evaluation
        self.noise, self.n_t, self.n_s, self.n = design.noise, design.n_t, design.n_s, design.G.n
        self._eig: tuple | None = None  # (S bytes, a, S_a V, lam) of the last design

    def _row_scale(self, w) -> np.ndarray:
        """The diagonal of S = W^{1/2} over the time-major observation rows."""
        w = check_design_weights(w, self.n_s)
        return np.sqrt(weighted_diag(w, self.noise, self.n_t))

    def _decomposition(self, w):
        """(a, S_a V, lam) of S_a C_aa S_a = V diag(lam) V^T, lam clipped at 0; kept for the last S."""
        s = self._row_scale(w)
        if self._eig is None or self._eig[0] != s.tobytes():
            a = np.flatnonzero(s)
            lam, V = np.linalg.eigh(s[a, None] * self.C[np.ix_(a, a)] * s[a])
            self._eig = (s.tobytes(), a, s[a, None] * V, np.clip(lam, 0.0, None))
        return self._eig[1:]

    def spectrum(self, w) -> np.ndarray:
        """The n eigenvalues of H(w), descending: those of S_a C_aa S_a, zero-padded or cut to n."""
        lam = self._decomposition(w)[2][::-1][: self.n]
        out = np.zeros(self.n)
        out[: len(lam)] = lam
        return out

    def evaluate(self, w):
        """(J, grad, spectrum) for one design, all exact; J sums the spectrum."""
        a, SV, lam = self._decomposition(w)
        diag_proj = np.diag(self.C) - (self.C[:, a] @ SV) ** 2 @ (1.0 / (1.0 + lam))  # P^2 (I + lam)^{-1}
        per_sensor = sensor_blocks(diag_proj, self.n_s, self.n_t).sum(axis=0)
        spectrum = self.spectrum(w)
        return float(np.sum(np.log1p(spectrum))), per_sensor / self.noise.sigma_sq, spectrum

    def map_norm_sq(self, w, y_obs: np.ndarray) -> float:
        """||x||^2 = (S u)^T C (S u) = sum lam c^2 of the whitened MAP point; y_obs of another length is refused."""
        y_obs = check_observations(y_obs, self.n_s * self.n_t)
        a, SV, lam = self._decomposition(w)
        c = (SV.T @ y_obs[a]) / (1.0 + lam)
        return float(lam @ c**2)


# -- estimator objects ---------------------------------------------------------


def kl_divergence(lam, prior_norm_sq: float = 0.0) -> float:
    """KL divergence from the spectrum lam of H(w) and the MAP point's prior-precision norm.

    D = 1/2 [ sum log(1+lam_i) - sum lam_i/(1+lam_i) + ||theta_post||^2 ];
    with the default zero norm it is the spectral part alone.
    """
    lam = np.asarray(lam)
    return 0.5 * float(np.sum(np.log1p(lam)) - np.sum(lam / (1.0 + lam)) + prior_norm_sq)


class Estimator:
    """One estimator of J(w) = log det(I + H(w)), made by :meth:`DesignProblem.estimator`.

    ``evaluate(w)`` gives (J, grad), ``objective(w)`` J alone, and ``spectrum(w)``
    the eigenvalues of H(w) behind J, in the order J sums them (the sketch's ascending).
    """

    def __init__(self, design: DesignProblem):
        self.design = design
        self.n_s = design.n_s

    def objective(self, w) -> float:
        return float(np.sum(np.log1p(self.spectrum(w))))

    def map_norm_sq(self, w, y_obs: np.ndarray, tol: float = 1e-8) -> float:
        """Prior-precision norm of the MAP point, by matrix-free CG to ``tol``."""
        from .inverse import map_estimate

        theta_post = map_estimate(self.design, w, y_obs, tol=tol).theta_post
        return self.design.G.prior.weighted_norm_sq(theta_post)


class EigEstimator(Estimator):
    name = "eig"

    def __init__(self, design, k: int):
        super().__init__(design)
        self.k = k

    def evaluate(self, w):
        return self.design.objective_grad_eig(w, self.k)

    def spectrum(self, w) -> np.ndarray:
        return self.design._top_eigs(w, self.k, images=False)[0].lam


class RandEstimator(Estimator):
    """Randomized estimator; the sketch seed is fixed across evaluations so
    the objective seen by the optimizer is a deterministic function."""

    name = "rand"

    def __init__(self, design, cfg: SketchConfig):
        super().__init__(design)
        self.cfg = cfg

    def evaluate(self, w):
        return self.design.objective_grad_rand(w, self.cfg)

    def spectrum(self, w) -> np.ndarray:
        return np.clip(np.linalg.eigvalsh(self.design._sketch(w, self.cfg)), 0.0, None)


class FrozenEstimator(Estimator):
    name = "frozen"

    def __init__(self, design, frozen: np.ndarray):
        super().__init__(design)
        self.frozen = frozen

    def evaluate(self, w):
        return self.design.objective_grad_frozen(w, self.frozen)

    def spectrum(self, w) -> np.ndarray:
        raise ConfigError("the frozen estimator has no spectrum of H(w), so no KL form")

    def objective(self, w) -> float:
        return self.design.objective_grad_frozen(w, self.frozen)[0]


class DenseEstimator(Estimator):
    name = "dense"

    def __init__(self, design):
        super().__init__(design)
        self.ref = design.dense_reference()

    def evaluate(self, w):
        return self.ref.evaluate(w)[:2]

    def spectrum(self, w) -> np.ndarray:
        return self.ref.spectrum(w)

    def map_norm_sq(self, w, y_obs: np.ndarray, tol: float = 1e-8) -> float:
        """Exact, from C with no PDE solve; ``tol`` is unused."""
        return self.ref.map_norm_sq(w, y_obs)
