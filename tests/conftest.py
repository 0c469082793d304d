"""Shared fixtures: small assembled problems and dense oracles.

The fixtures are session-scoped; they build the operator stacks once and the
tests treat them as immutable.  Noise levels are chosen per fixture so the
spectra exercise the regime each test group needs (see comments).
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from oed_dopt.config import ExperimentConfig
from oed_dopt.oed import DesignProblem, NoiseModel, weighted_diag
from oed_dopt.problem import build_problem

warnings.filterwarnings("ignore", message="sketch subspace is numerically rank deficient")


def make_config(**overrides):
    base = {
        "mesh": {"nx": 6},
        "pde": {"kappa": 0.03, "T": 2.0, "n_steps": 20},
        "sensors": {"grid": [3, 3], "margin": [0.25, 0.25]},
        "obs": {"times": [0.5, 1.0, 2.0]},
        "noise": {"pct": 0.1},
    }
    for key, sub in overrides.items():
        base.setdefault(key, {}).update(sub)
    return ExperimentConfig.from_dict(base)


@pytest.fixture(scope="session")
def tiny_problem():
    """nx=4, 4 sensors, 2 times: n=25, n_y=8.  For dense operator oracles."""
    cfg = make_config(
        mesh={"nx": 4},
        pde={"kappa": 0.05, "T": 1.0, "n_steps": 5},
        sensors={"grid": [2, 2], "margin": [0.25, 0.25]},
        obs={"times": [0.4, 1.0]},
    )
    return build_problem(cfg)


@pytest.fixture(scope="session")
def small_problem():
    """nx=6, 9 sensors, 3 times: n=49, n_y=27."""
    return build_problem(make_config())


@pytest.fixture(scope="session")
def small_design(small_problem):
    """Small problem with sigma pinned for moderate spectra (lam_1 ~ 1e3)."""
    p = small_problem
    peak = float(np.max(np.abs(p.forward.apply(p.theta_true))))
    return DesignProblem(p.G, NoiseModel(np.full(p.obs.n_s, 3.0 * peak)))


@pytest.fixture(scope="session")
def desk_problem():
    """The optimization desk instance: nx=10, 35 sensors, 3 times (n=121)."""
    cfg = make_config(
        mesh={"nx": 10},
        pde={"kappa": 0.05, "T": 2.0, "n_steps": 20},
        sensors={"grid": [7, 5], "margin": [0.2, 0.3]},
        obs={"times": [0.5, 1.0, 2.0]},
    )
    return build_problem(cfg)


@pytest.fixture(scope="session")
def desk_design(desk_problem):
    """Desk instance with noise set so the relaxed l1 design is near-binary."""
    p = desk_problem
    peak = float(np.max(np.abs(p.forward.apply(p.theta_true))))
    return DesignProblem(p.G, NoiseModel(np.full(p.obs.n_s, 4.0 * peak)))


@pytest.fixture(scope="session")
def sweep_design(desk_problem):
    """Desk mesh with slower spectral decay (kappa=0.01) for rank sweeps."""
    cfg = make_config(
        mesh={"nx": 10},
        pde={"kappa": 0.01, "T": 2.0, "n_steps": 20},
        sensors={"grid": [7, 5], "margin": [0.2, 0.3]},
        obs={"times": [0.5, 1.0, 2.0]},
    )
    p = build_problem(cfg)
    peak = float(np.max(np.abs(p.forward.apply(p.theta_true))))
    return DesignProblem(p.G, NoiseModel(np.full(p.obs.n_s, peak)))


def dense_forward_matrix(problem):
    """Dense F by an independent dense implicit-Euler stepper (numpy only)."""
    ops, mass, obs = problem.ops, problem.mass, problem.obs
    kappa = problem.config.pde.kappa
    M = mass.M.toarray()
    A = M + obs.dt * (kappa * ops.K.toarray() + ops.N.toarray())
    n = ops.n
    F = np.zeros((obs.n_y, n))
    for i in range(n):
        u = np.zeros(n)
        u[i] = 1.0
        for m in range(1, obs.obs_steps[-1] + 1):
            u = np.linalg.solve(A, M @ u)
            hits = np.nonzero(obs.obs_steps == m)[0]
            if hits.size:
                b = hits[0]
                F[b * obs.n_s : (b + 1) * obs.n_s, i] = u[obs.sensor_nodes]
    return F


def dense_prior_sqrt(problem):
    """Dense L^{-1} M (covariance square root as an operator)."""
    L = (problem.prior.L).toarray()
    M = problem.mass.M.toarray()
    return np.linalg.solve(L, M)


def dense_G_matrix(problem):
    """Dense whitened map F L^{-1} R via numpy solves (independent route)."""
    F = dense_forward_matrix(problem)
    L = problem.prior.L.toarray()
    R = problem.mass.apply_R(np.eye(problem.G.n))
    return F @ np.linalg.solve(L, R)


def unit_probe_adjoints(F, sensors):
    """F^T on the unit probes of ``sensors``, one apply_transpose per observation time, time-major."""
    sensors = np.asarray(sensors, dtype=int)
    blocks = []
    for i in range(F.obs.n_t):
        probes = np.zeros((F.n_y, len(sensors)))
        probes[i * F.obs.n_s + sensors, np.arange(len(sensors))] = 1.0
        blocks.append(F.apply_transpose(probes))
    return np.hstack(blocks)


def dense_G(design):
    """The design's whitened map G as an (n_y, n) array: one sensor_adjoints sweep, n_y adjoint solves."""
    return design.G.sensor_adjoints(np.arange(design.n_s)).T


def dense_hessian(design, w):
    """H(w) = G^T W G as an (n, n) array: the rows of :func:`dense_G` scaled by the design's dense reference."""
    Gw = design.dense_reference()._row_scale(w)[:, None] * dense_G(design)
    return Gw.T @ Gw


def dense_theta_post(design, w, y_obs):
    """MAP point L^{-1} R x with x = G^T S u, S u = S (I + S C S)^{-1} S y (the Woodbury form of the normal
    equations, by a dense solve on the design's C); one adjoint solve."""
    s = np.sqrt(weighted_diag(np.asarray(w, dtype=float), design.noise, design.n_t))
    su = s * np.linalg.solve(np.eye(len(s)) + s[:, None] * design.C * s, s * y_obs)
    return design.G.field_from_whitened(design.G.apply_transpose(su))


def sensor_z_norms(design):
    """Spectral norms ||dH/dw_j||_2 = lam_max(C_jj) / sigma_j^2, C_jj sensor j's n_t x n_t block of C."""
    n_s = design.n_s
    top = [np.linalg.eigvalsh(design.C[j::n_s, j::n_s])[-1] for j in range(n_s)]
    return np.array(top) / design.noise.sigma**2


def frozen_from_dense(G_dense, k_f):
    """The factor U diag(s) of the exact rank-k_f truncation of a dense (n_y, n) G, by its SVD."""
    U, s, _ = np.linalg.svd(np.asarray(G_dense, dtype=float), full_matrices=False)
    return U[:, :k_f] * s[:k_f]


def random_psd(n, rng, decay=None):
    """Random PSD matrix, optionally with prescribed eigenvalue decay."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if decay is None:
        lam = rng.uniform(0.0, 1.0, size=n)
    else:
        lam = decay
    return (Q * lam) @ Q.T


class MatrixWhitenedMap:
    """Plain-matrix stand-in for the whitened forward map G (n_y x n, time-major rows), with the
    observation layout ``obs`` (n_s sensors, n_t times) that a design problem reads from the map."""

    def __init__(self, G: np.ndarray, n_t: int):
        self.G = np.asarray(G, dtype=float)
        self.n_y, self.n = self.G.shape
        self.obs = SimpleNamespace(n_s=self.n_y // n_t, n_t=n_t)

    def apply(self, x):
        return self.G @ x

    def apply_transpose(self, y):
        return self.G.T @ y

    def sensor_adjoints(self, sensors):
        """The columns of G^T at the given sensors, time-major (block i: every sensor at time i)."""
        rows = (np.arange(self.obs.n_t)[:, None] * self.obs.n_s + np.asarray(sensors, dtype=int).ravel()).ravel()
        return self.G[rows].T


def synthetic_design(n, n_s, n_t, spectrum, seed=0, sigma=1.0):
    """Design problem over a synthetic dense G with a prescribed spectrum.

    G = U diag(sqrt(spectrum)) V^T with random orthonormal factors, so the
    misfit Hessian at w = 1 (with unit sigma) has exactly ``spectrum`` as its
    eigenvalues.
    """
    n_y = n_s * n_t
    r = min(len(spectrum), n_y, n)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n_y, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    G = (U * np.sqrt(np.asarray(spectrum[:r], dtype=float))) @ V.T
    return DesignProblem(MatrixWhitenedMap(G, n_t), NoiseModel(np.full(n_s, sigma)))
