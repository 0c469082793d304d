"""Structured triangular meshes of the unit square and linear-element operators.

The mesh is a right-angle triangulation with two triangles per grid cell.
Axis-aligned rectangular holes (aligned to the grid) may be cut out; the
retained geometry gets compact node numbering.  Assembly produces the sparse
mass matrix M (consistent, exact integration), the stiffness matrix K for the
Neumann Laplacian, and the advection matrix N for a given velocity field using
one-point (centroid) quadrature.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import ConfigError, NumericalError
from .sketch import DENSE_GUARD

_ALIGN_TOL = 1e-12


@dataclass
class Mesh:
    """Triangulation of the unit square, possibly with rectangular holes.

    Attributes
    ----------
    nodes : (n, 2) ndarray
        Node coordinates in [0, 1]^2.
    triangles : (m, 3) int ndarray
        Node-index triples with positive signed area.
    nx : int
        Grid cells per side.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    nx: int

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def h(self) -> float:
        return 1.0 / self.nx

    def _cells(self, points) -> np.ndarray:
        """Index into ``triangles[0::2]`` of a retained cell whose center lies within
        h/2·(1+1e-9) of each point (max norm), or -1 when none does."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        # NaN and ±inf lie outside; clipping keeps every index finite and leaves the answer alone
        p = np.clip(np.where(np.isfinite(p), p, -1.0), -1.0, 2.0)
        lower = self.nodes[self.triangles[0::2, 0]]  # each retained cell's lower-left corner
        corner = np.rint(lower * self.nx).astype(int) + 1
        index = np.full((self.nx + 2, self.nx + 2), -1)  # [cj, ci] shifted by one: a ring of -1 around the grid
        index[corner[:, 1], corner[:, 0]] = np.arange(len(lower))
        reach = 0.5 * self.h * (1.0 + 1e-9)  # slack: a point on a cell edge may round outside
        # per axis, the upper of the two cells that can reach, shifted as in index
        top = np.floor(p * self.nx + 1e-9).astype(int) + 1
        cells = np.full(len(p), -1)
        for shift in ((0, 0), (1, 0), (0, 1), (1, 1)):
            ci, cj = np.clip(top - shift, 0, self.nx + 1).T
            k = index[cj, ci]
            near = np.abs(p - lower[k] - 0.5 * self.h).max(axis=1) <= reach
            cells = np.where((k >= 0) & near, k, cells)
        return cells

    def contains(self, points) -> np.ndarray:
        """Whether each (x, y) lies in the closed domain: within h/2·(1+1e-9) (max norm) of a
        retained cell's center.  NaN and ±inf coordinates lie outside.  ``nearest_nodes`` snaps
        such a point to its cell's nearest corner, an exact tie going to the lower node id."""
        return self._cells(points) >= 0

    def nearest_nodes(self, points) -> np.ndarray:
        """Node id nearest each (x, y) of the closed domain, -1 for a point outside it.

        The nearest grid node to a point of a retained cell (the reach of ``contains``) is a
        corner of that cell, so the Euclidean-nearest of its four corners is the nearest node
        of the mesh; an exact tie goes to the lower node id.
        """
        cells = self._cells(points)
        first, second = self.triangles[0::2][cells], self.triangles[1::2][cells]
        corners = np.column_stack([first[:, :2], second[:, 2], first[:, 2]])  # ascending node ids
        p = np.atleast_2d(np.asarray(points, dtype=float))
        d2 = ((self.nodes[corners] - p[:, None, :]) ** 2).sum(axis=2)
        return np.where(cells >= 0, corners[np.arange(len(cells)), np.argmin(d2, axis=1)], -1)


@dataclass
class AssembledOperators:
    """Sparse finite-element operators on a mesh.

    M is the consistent mass matrix, K the stiffness matrix of the Neumann
    Laplacian (zero row sums), N the advection matrix for v . grad with
    centroid quadrature.  All are n x n CSR.
    """

    M: sp.csr_matrix
    K: sp.csr_matrix
    N: sp.csr_matrix
    n: int


class MassFactor:
    """Products with R, R^T and R^{-1} for a factor R R^T = M of the chosen mass treatment.

    mode "lumped" replaces M by its row-sum lumped diagonal (R is the diagonal
    square root); this replacement is used consistently wherever the factor's
    ``M`` attribute is consumed.  mode "cholesky" keeps the consistent M and
    factors it densely, so it is refused for n > DENSE_GUARD nodes.
    """

    def __init__(self, M: sp.spmatrix, mode: str = "lumped"):
        if mode not in ("lumped", "cholesky"):
            raise ConfigError(f"unknown mass mode {mode!r}")
        if mode == "cholesky" and M.shape[0] > DENSE_GUARD:
            raise ConfigError(f"mass mode 'cholesky' is dense; refused for n = {M.shape[0]} > {DENSE_GUARD}")
        self.mode = mode
        M = sp.csr_matrix(M)
        if mode == "lumped":
            lumped = np.asarray(M.sum(axis=1)).ravel()
            if np.any(lumped <= 0):
                raise NumericalError("lumped mass has a nonpositive entry; M is not SPD")
            self._lumped = lumped
            self._diag = np.sqrt(lumped)
            self.M = sp.diags(lumped).tocsr()
        else:
            Md = M.toarray()
            try:
                C = np.linalg.cholesky(Md)
            except np.linalg.LinAlgError as exc:
                raise NumericalError("Cholesky factorization failed; M not SPD") from exc
            self._dense_R = C
            self.M = M

    def apply_M(self, x: np.ndarray) -> np.ndarray:
        """M x; lumped, a row scaling by the lumped entries that keeps x's memory order."""
        if self.mode == "lumped":
            return (x.T * self._lumped).T
        return self.M @ x

    def apply_R(self, x: np.ndarray) -> np.ndarray:
        if self.mode == "lumped":
            return (x.T * self._diag).T
        return self._dense_R @ x

    def apply_Rt(self, x: np.ndarray) -> np.ndarray:
        if self.mode == "lumped":
            return (x.T * self._diag).T
        return self._dense_R.T @ x

    def solve_R(self, b: np.ndarray) -> np.ndarray:
        if self.mode == "lumped":
            return (b.T / self._diag).T
        return sla.solve_triangular(self._dense_R, b, lower=True)


def _snap_index(coord: float, nx: int, what: str) -> int:
    scaled = coord * nx
    idx = round(scaled)
    if abs(scaled - idx) > _ALIGN_TOL * nx:
        raise ConfigError(f"{what} coordinate {coord} is not aligned to the 1/{nx} grid")
    return int(idx)


def build_mesh(nx: int, holes: list | None = None) -> Mesh:
    """Structured right-angle triangulation of [0,1]^2 with optional holes.

    Parameters
    ----------
    nx : int
        Cells per side, at least 2.
    holes : list of (x0, y0, x1, y1), optional
        Axis-aligned rectangles strictly inside (0,1)^2 and aligned to the
        grid.  Cells covered by a hole are dropped, and so are the nodes
        that no retained cell touches.
    """
    if nx < 2:
        raise ConfigError(f"nx must be at least 2, got {nx}")
    holes = [tuple(map(float, h)) for h in (holes or [])]

    nn = nx + 1
    open_cells = np.ones((nx, nx), dtype=bool)  # [cj, ci]
    for rect in holes:
        x0, y0, x1, y1 = rect
        if not (0.0 < x0 < x1 < 1.0 and 0.0 < y0 < y1 < 1.0):
            raise ConfigError(f"hole {rect} must be strictly inside (0,1)^2")
        i0, i1, j0, j1 = (_snap_index(c, nx, "hole") for c in (x0, x1, y0, y1))
        open_cells[j0:j1, i0:i1] = False

    # lower-left grid node of each open cell, in row order, split along its diagonal
    cj, ci = np.nonzero(open_cells)
    a = cj * nn + ci
    tris = np.column_stack([a, a + 1, a + nn + 1, a, a + nn + 1, a + nn]).reshape(-1, 3)
    # keep the grid nodes some triangle uses, in grid order: hole interiors and
    # nodes orphaned between adjacent holes drop out
    used, triangles = np.unique(tris, return_inverse=True)
    grid = np.arange(nn) / nx
    xs, ys = np.meshgrid(grid, grid)  # row index = y
    nodes = np.column_stack([xs.ravel(), ys.ravel()])[used]
    return Mesh(nodes=nodes, triangles=triangles.reshape(tris.shape), nx=nx)


def triangle_geometry(nodes: np.ndarray, triangles: np.ndarray):
    """Signed areas and shape-function gradient coefficients per triangle.

    For linear elements, grad(phi_i) = (b_i, c_i) / (2 A) with
    b_i = y_j - y_k and c_i = x_k - x_j (cyclic).
    """
    p0 = nodes[triangles[:, 0]]
    p1 = nodes[triangles[:, 1]]
    p2 = nodes[triangles[:, 2]]
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    area = 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    return area, b, c


def assemble(mesh: Mesh, velocity=None) -> AssembledOperators:
    """Assemble M, K and N on a mesh.

    M and K use exact linear-element integration; N uses the midpoint
    (centroid) rule for the integrals of (v . grad phi_j) phi_i.  Passing
    ``velocity=None`` gives N = 0.
    """
    nodes, tris = mesh.nodes, mesh.triangles
    n = mesh.n_nodes
    area, b, c = triangle_geometry(nodes, tris)
    if np.any(area <= 0):
        raise NumericalError("assembly aborted: degenerate or inverted triangle")

    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, 3).ravel()

    # consistent mass: (A/12) * [[2,1,1],[1,2,1],[1,1,2]]
    local_m = np.array([2, 1, 1, 1, 2, 1, 1, 1, 2], dtype=float) / 12.0
    m_vals = (area[:, None] * local_m[None, :]).ravel()
    M = sp.coo_matrix((m_vals, (rows, cols)), shape=(n, n)).tocsr()

    # stiffness: (b_i b_j + c_i c_j) / (4 A)
    k_local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (4.0 * area)[:, None, None]
    K = sp.coo_matrix((k_local.reshape(len(tris), 9).ravel(), (rows, cols)), shape=(n, n)).tocsr()

    if velocity is None:
        N = sp.csr_matrix((n, n))
    else:
        centroids = nodes[tris].mean(axis=1)
        v = np.asarray(velocity(centroids), dtype=float)
        if v.shape != centroids.shape:
            raise ConfigError("velocity field must return one 2-vector per point")
        # centroid rule: N_e[i, j] = (v . grad phi_j) * (A/3) = (vx b_j + vy c_j)/6
        flux = (v[:, 0:1] * b + v[:, 1:2] * c) / 6.0  # (m, 3) over j
        n_local = np.repeat(flux[:, None, :], 3, axis=1)  # same for every row i
        N = sp.coo_matrix((n_local.reshape(len(tris), 9).ravel(), (rows, cols)), shape=(n, n)).tocsr()
        N.eliminate_zeros()

    return AssembledOperators(M=M, K=K, N=N, n=n)


def peclet_number(velocity_amplitude: float, h: float, kappa: float) -> float:
    if kappa == 0:  # pure advection: unbounded, unless there is no flow either
        return np.inf if velocity_amplitude else 0.0
    return velocity_amplitude * h / (2.0 * kappa)


def warn_if_advection_dominated(velocity_amplitude: float, h: float, kappa: float) -> None:
    """Warn when the mesh Peclet number exceeds 20, the stability comfort zone."""
    pe = peclet_number(velocity_amplitude, h, kappa)
    if pe > 20.0:
        warnings.warn(
            f"mesh Peclet number {pe:.1f} exceeds 20.0; unstabilized Galerkin "
            "may oscillate (raise kappa or refine the mesh)",
            stacklevel=2,
        )
