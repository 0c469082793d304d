"""Time-dependent advection-diffusion forward map and its discrete adjoint.

The forward map F takes a nodal initial state theta0, marches
(M + dt (kappa K + N)) u^m = M u^{m-1} with implicit Euler, and extracts the
state at the sensor nodes at the observation time steps.  The transpose map is
the exact discrete transpose of that recursion: a reverse-order sweep with the
transposed step matrix, injecting observation residuals at the observed steps.
Every sweep is one march, run gap by gap between observation steps: forward it
records the sensor rows after each gap, in reverse it injects data before each
gap.  The step matrix and its transpose are each factorized once, so both
directions solve blocks of columns with SuperLU's plain solve.  The transpose
is factorized with the map, because every problem reads it: its transposed
solve serves a single forward column (the clean data) and its plain solve the
adjoint blocks of the z sweep.  The step matrix itself is factorized on the
first solve that reads it, a forward block or a single adjoint column, so a
set-up that runs neither holds one factor.  A block wider than one column
panel (a multiple of 8 columns of n doubles within 256 KiB) marches panel by
panel through all of a gap's steps, so each panel stays in cache from step to
step; the lumped mass multiplies as a vector, and blocks stay Fortran-ordered
as SuperLU reads them.  The sensor sweep writes each gap's panels straight
into its one Fortran-ordered output.

Observation vectors are stacked time-major: block m holds all sensors at
observation time t_m, so entry (m, j) sits at position m * n_s + j (0-based).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .accounting import solve_counter
from .errors import ConfigError, NumericalError
from .fem import AssembledOperators, MassFactor, Mesh


@dataclass
class VelocityField:
    """Divergence-free gyre velocity on the unit square.

    Stream function psi(x, y) = (amplitude / pi) sin(pi x) sin(pi y), so
    v = (d psi / dy, -d psi / dx).  The field is analytically divergence
    free with v . n = 0 on the outer boundary; on hole boundaries it is not
    tangential, and assembly samples it only at retained cells' centroids.
    """

    amplitude: float = 1.0

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        x, y = points[:, 0], points[:, 1]
        vx = self.amplitude * np.sin(np.pi * x) * np.cos(np.pi * y)
        vy = -self.amplitude * np.cos(np.pi * x) * np.sin(np.pi * y)
        return np.column_stack([vx, vy])


@dataclass
class ObservationSetup:
    """Sensor locations and observation times snapped to the discrete grid.

    Attributes
    ----------
    sensor_nodes : (n_s,) int ndarray
        Mesh-node index of each sensor (all distinct).
    sensor_coords : (n_s, 2) ndarray
        Coordinates of the snapped sensor nodes.
    obs_steps : (n_t,) int ndarray
        Time-step indices (1-based steps of the uniform grid) at which
        observations are taken, strictly increasing; the snapped
        observation times are obs_steps * dt.
    """

    sensor_nodes: np.ndarray
    sensor_coords: np.ndarray
    obs_steps: np.ndarray
    n_steps: int
    T: float

    @property
    def n_s(self) -> int:
        return len(self.sensor_nodes)

    @property
    def n_t(self) -> int:
        return len(self.obs_steps)

    @property
    def n_y(self) -> int:
        return self.n_s * self.n_t

    @property
    def dt(self) -> float:
        return self.T / self.n_steps


def make_observation_setup(
    mesh: Mesh, sensor_coords, obs_times, T: float, n_steps: int
) -> ObservationSetup:
    """Snap requested sensor coordinates and times onto the mesh / time grid.

    Sensors must lie in the closed meshed domain (within h/2·(1+1e-9), max
    norm, of a retained cell's center; NaN and ±inf lie outside), snap to the
    Euclidean-nearest retained node (an exact tie goes to the lower node id)
    and land on distinct nodes; observation times must lie in (0, T] and snap
    to the nearest positive time-grid point, distinct for distinct times.
    """
    sensor_coords = np.atleast_2d(np.asarray(sensor_coords, dtype=float))
    times = np.atleast_1d(np.asarray(obs_times, dtype=float))
    if sensor_coords.size == 0:
        raise ConfigError("empty candidate sensor set")
    if times.size == 0:
        raise ConfigError("empty observation time set")
    if n_steps < 1 or T <= 0:
        raise ConfigError("need n_steps >= 1 and T > 0")
    nodes = mesh.nearest_nodes(sensor_coords)
    outside = nodes < 0
    if np.any(outside):
        raise ConfigError(f"sensor coordinates {sensor_coords[outside].tolist()} lie outside the meshed domain")
    if len(np.unique(nodes)) != len(nodes):
        raise ConfigError("sensors snap to coincident mesh nodes; refine the mesh or move sensors")

    outside = ~((times > 0) & (times <= T))
    if np.any(outside):
        raise ConfigError(f"observation times {times[outside].tolist()} lie outside (0, T] with T = {T}")
    dt = T / n_steps
    # a time in (0, dt/2) rounds to step 0, the initial state; it observes step 1
    steps = np.maximum(np.rint(times / dt).astype(int), 1)
    if len(np.unique(steps)) != len(steps):
        raise ConfigError("observation times snap to coincident time-grid points")
    if np.any(np.diff(steps) <= 0):
        raise ConfigError("observation times must be strictly increasing")

    return ObservationSetup(
        sensor_nodes=nodes,
        sensor_coords=mesh.nodes[nodes],
        obs_steps=steps,
        n_steps=n_steps,
        T=T,
    )


# A column panel holds at most this many bytes of a block (n doubles a column).
_PANEL_BYTES = 256 * 1024

# Minimum-degree ordering on the pattern of A^T + A: the step matrix is nearly
# symmetric and the prior operator symmetric, so it fills far less than COLAMD.
_ORDERING = dict(permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))


def _factorize(A: sp.csc_matrix, diag_pivot_thresh: float, what: str):
    """Sparse LU of a CSC matrix A with the symmetric-pattern ordering.

    ``diag_pivot_thresh`` is SuperLU's threshold for keeping the diagonal
    pivot: 0 for SPD matrices, small but positive for the nonsymmetric step.
    """
    try:
        return spla.splu(A, diag_pivot_thresh=diag_pivot_thresh, **_ORDERING)
    except RuntimeError as exc:
        raise NumericalError(f"{what} factorization failed: {exc}") from exc


def _wide(B: np.ndarray) -> bool:
    """The width rule: whether B is a block of two or more columns (not one column or a vector)."""
    return B.ndim == 2 and B.shape[1] > 1


def _solver(lu, B: np.ndarray):
    """The factor ``lu``'s solve for blocks as wide as B, picked once per block.

    A block of two or more columns takes the plain solve, SuperLU's blocked
    supernodal path.  A single column (or a vector) takes the transposed solve,
    a per-column triangular sweep that is faster for one right-hand side; so a
    caller hands it the factor of S for a block and of S^T for one column.
    """
    if _wide(B):
        return lu.solve
    return lambda b: lu.solve(b, trans="T")


def _panels(m: int, w: int):
    """Column slices of a block of m columns, w at a time from column 0.

    A 1-column tail joins the panel before it, so every panel of a block of two
    or more columns is itself wide.  With w a multiple of 8, each panel starts at
    a multiple of 8 columns, so each column meets the same BLAS kernels as in one
    whole-block solve, and the output is bitwise the same.
    """
    starts = list(range(0, m, w))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [m])]


class ForwardMap:
    """Matrix-free F and F^T built on a factorized implicit-Euler step.

    The step matrix A = M + dt (kappa K + N) and its transpose are each
    factorized once (``_lu`` and ``_lu_t``), so both sweep directions solve
    blocks with a plain solve.  ``_lu_t`` is built with the map; ``_lu`` on
    first use, by the first forward block or single adjoint column, and until
    then the map holds A in CSC form.  :meth:`_march` is the one loop over time
    steps; every sweep calls it once per gap between observation steps.
    ``_panel`` is its column-panel width: the largest multiple of 8 columns
    whose n doubles fit in 256 KiB, and never fewer than 8.
    Forward and transpose applications accept a vector or a matrix of
    stacked columns (each column counts as one PDE solve in the global tally).
    """

    def __init__(
        self,
        ops: AssembledOperators,
        mass: MassFactor,
        obs: ObservationSetup,
        kappa: float,
    ):
        if kappa < 0:
            raise ConfigError("kappa must be nonnegative")
        self.obs = obs
        self.M = mass.M  # effective mass matrix (lumped or consistent)
        self.mass = mass
        self.n = ops.n
        self._panel = max(8, _PANEL_BYTES // (8 * self.n) // 8 * 8)
        self._A = (self.M + obs.dt * (kappa * ops.K + ops.N)).tocsc()
        self._lu_t = _factorize(self._A.T.tocsc(), 0.1, "transposed time-step matrix")
        self._gaps = np.diff(obs.obs_steps, prepend=0).tolist()  # steps between observation steps, from step 0

    @cached_property
    def _lu(self):
        """The factor of A itself, built on first use; the map then drops its A."""
        lu = _factorize(self._A, 0.1, "time-step matrix")
        del self._A
        return lu

    @property
    def n_y(self) -> int:
        return self.obs.n_y

    def _march(self, X: np.ndarray, steps: int, adjoint: bool = False, out: np.ndarray | None = None) -> np.ndarray:
        """``steps`` implicit-Euler steps on the block X: A^{-1} M X per step, or
        M A^{-T} X if ``adjoint``.  The one place the step factors solve.

        The block is marched one column panel at a time (:func:`_panels`), each
        through all the steps, and each panel is written to ``out`` (a new array
        if None; X itself is allowed) once its last step is done.  A block of two
        or more columns takes its direction's own factor's plain solve, a single
        column the other factor's transposed solve (:func:`_solver`); the factor
        is picked before either is touched, so ``_lu`` is built only to solve.
        """
        B = np.asfortranarray(X.reshape(self.n, -1))
        solve = _solver(self._lu_t if adjoint == _wide(B) else self._lu, B)
        apply_M = self.mass.apply_M
        if out is None:
            out = np.empty(B.shape, order="F")
        for cols in _panels(B.shape[1], self._panel):
            P = B[:, cols]
            for _ in range(steps):
                P = apply_M(solve(P)) if adjoint else solve(apply_M(P))
            out[:, cols] = P
        return out.reshape(X.shape)

    def apply(self, theta: np.ndarray) -> np.ndarray:
        """y = F theta for a vector (n,) or matrix (n, m) of initial states."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape[0] != self.n:
            raise ConfigError(f"initial state must have leading dimension {self.n}")
        single = theta.ndim == 1
        U = theta.reshape(self.n, -1)
        ncols = U.shape[1]
        obs = self.obs
        Y = np.empty((obs.n_y, ncols))
        for i, gap in enumerate(self._gaps):
            U = self._march(U, gap)
            Y[i * obs.n_s : (i + 1) * obs.n_s, :] = U[obs.sensor_nodes, :]
        solve_counter.add_forward(ncols)
        return Y[:, 0] if single else Y

    def apply_transpose(self, ybar: np.ndarray) -> np.ndarray:
        """F^T ybar, the exact transpose of :meth:`apply`."""
        ybar = np.asarray(ybar, dtype=float)
        if ybar.shape[0] != self.obs.n_y:
            raise ConfigError(f"observation stack must have leading dimension {self.obs.n_y}")
        single = ybar.ndim == 1
        obs = self.obs
        Y = ybar.reshape(obs.n_y, -1)
        ncols = Y.shape[1]
        G = np.zeros((self.n, ncols))
        # the adjoint state is exactly zero until the latest observation that holds data
        live = np.flatnonzero(Y.reshape(obs.n_t, -1).any(axis=1))
        for i in range(live.max(initial=-1), -1, -1):
            G[obs.sensor_nodes, :] += Y[i * obs.n_s : (i + 1) * obs.n_s, :]
            G = self._march(G, self._gaps[i], adjoint=True)
        solve_counter.add_adjoint(ncols)
        return G[:, 0] if single else G

    def sensor_adjoints(self, sensors) -> np.ndarray:
        """F^T on the unit probes of ``sensors`` at every observation time: (n, n_t |sensors|), time-major.

        The reverse step is time-invariant, so a probe's adjoint at step m is the
        probe after m reverse steps: one sweep to the last observation step records
        every time's block.  The probes start in the first time's block, and each
        gap marches the previous block into the next, panel by panel, so the sweep
        holds the Fortran-ordered output and a few panels.  Each column counts one
        adjoint solve, as in apply_transpose.
        """
        sensors = np.asarray(sensors, dtype=int).ravel()
        obs, ns = self.obs, len(sensors)
        out = np.zeros((self.n, obs.n_t * ns), order="F")
        out[obs.sensor_nodes[sensors], np.arange(ns)] = 1.0
        prev = slice(0, ns)
        for i, gap in enumerate(self._gaps if ns else ()):
            cols = slice(i * ns, (i + 1) * ns)
            self._march(out[:, prev], gap, adjoint=True, out=out[:, cols])
            prev = cols
        solve_counter.add_adjoint(obs.n_t * ns)
        return out

    def solve_with_trajectory(self, theta0: np.ndarray):
        """Forward solve returning (snapshots, y); snapshots is (n_steps+1, n)."""
        obs = self.obs
        traj = np.empty((obs.n_steps + 1, self.n))
        traj[0] = np.asarray(theta0, dtype=float).ravel()
        for m in range(1, obs.n_steps + 1):
            traj[m] = self._march(traj[m - 1], 1)
        solve_counter.add_forward(1)
        return traj, traj[np.ix_(obs.obs_steps, obs.sensor_nodes)].ravel()


def synthesize_data(y_clean: np.ndarray, n_s: int, noise_pct: float, rng_seed: int):
    """Noisy observations from the clean ones, y_clean = F theta_true.

    The noise standard deviation is identical for all n_s sensors:
    sigma = noise_pct * max |y_clean|, noise_pct in [0, 1) as ``NoiseConfig`` checks.
    Returns (y_obs, sigma_per_sensor).
    """
    peak = np.max(np.abs(y_clean))
    if peak == 0.0:
        raise ConfigError("clean observations are identically zero; noise level undefined")
    sigma = noise_pct * peak
    rng = np.random.default_rng(rng_seed)
    y_obs = y_clean + sigma * rng.standard_normal(y_clean.shape)
    return y_obs, np.full(n_s, sigma)
