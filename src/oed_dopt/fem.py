"""Structured triangular meshes of the unit square and linear-element operators.

The mesh is a right-angle triangulation with two triangles per grid cell.
Axis-aligned rectangular holes (aligned to the grid) may be cut out; the
retained geometry gets compact node numbering.  Assembly produces the sparse
mass matrix M (consistent, exact integration), the stiffness matrix K for the
Neumann Laplacian, and the advection matrix N for a given velocity field using
one-point (centroid) quadrature.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import ConfigError, NumericalError

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
    boundary : (n,) bool ndarray
        True for nodes on the outer boundary or on a hole boundary.
    holes : list of (x0, y0, x1, y1)
        Rectangles excluded from the domain.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    holes: list = field(default_factory=list)
    nx: int = 0

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def h(self) -> float:
        return 1.0 / self.nx

    def area(self) -> float:
        """Total domain area (1 minus the hole areas)."""
        cut = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in self.holes)
        return 1.0 - cut


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
    factors it densely (desk-scale problems only).
    """

    def __init__(self, M: sp.spmatrix, mode: str = "lumped"):
        if mode not in ("lumped", "cholesky"):
            raise ConfigError(f"unknown mass mode {mode!r}")
        self.mode = mode
        n = M.shape[0]
        M = sp.csr_matrix(M)
        if mode == "lumped":
            lumped = np.asarray(M.sum(axis=1)).ravel()
            if np.any(lumped <= 0):
                raise NumericalError("lumped mass has a nonpositive entry; M is not SPD")
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
        self.n = n

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
        grid.  Cells covered by a hole are dropped; nodes strictly interior
        to a hole are removed.
    """
    if nx < 2:
        raise ConfigError(f"nx must be at least 2, got {nx}")
    holes = [tuple(map(float, h)) for h in (holes or [])]

    hole_cells = []  # (i0, i1, j0, j1) cell-index ranges
    for rect in holes:
        x0, y0, x1, y1 = rect
        if not (0.0 < x0 < x1 < 1.0 and 0.0 < y0 < y1 < 1.0):
            raise ConfigError(f"hole {rect} must be strictly inside (0,1)^2")
        i0 = _snap_index(x0, nx, "hole")
        i1 = _snap_index(x1, nx, "hole")
        j0 = _snap_index(y0, nx, "hole")
        j1 = _snap_index(y1, nx, "hole")
        hole_cells.append((i0, i1, j0, j1))

    def cell_in_hole(ci, cj):
        return any(i0 <= ci < i1 and j0 <= cj < j1 for i0, i1, j0, j1 in hole_cells)

    def node_in_hole_interior(gi, gj):
        return any(i0 < gi < i1 and j0 < gj < j1 for i0, i1, j0, j1 in hole_cells)

    nn = nx + 1
    keep_node = np.ones(nn * nn, dtype=bool)
    for gj in range(nn):
        for gi in range(nn):
            if node_in_hole_interior(gi, gj):
                keep_node[gj * nn + gi] = False

    new_index = -np.ones(nn * nn, dtype=int)
    new_index[keep_node] = np.arange(int(keep_node.sum()))

    grid = np.arange(nn) / nx
    xs, ys = np.meshgrid(grid, grid)  # row index = y
    nodes = np.column_stack([xs.ravel(), ys.ravel()])[keep_node]

    tris = []
    for cj in range(nx):
        for ci in range(nx):
            if cell_in_hole(ci, cj):
                continue
            a = cj * nn + ci
            b = cj * nn + ci + 1
            c = (cj + 1) * nn + ci + 1
            d = (cj + 1) * nn + ci
            tris.append((a, b, c))
            tris.append((a, c, d))
    triangles = new_index[np.asarray(tris, dtype=int)]
    if np.any(triangles < 0):
        raise NumericalError("internal error: retained triangle references removed node")

    # every retained node must belong to a triangle (true for grid-aligned holes)
    used = np.zeros(nodes.shape[0], dtype=bool)
    used[triangles.ravel()] = True
    nodes = nodes[used]
    remap = -np.ones(used.shape[0], dtype=int)
    remap[used] = np.arange(int(used.sum()))
    triangles = remap[triangles]

    boundary = np.zeros(nodes.shape[0], dtype=bool)
    x, y = nodes[:, 0], nodes[:, 1]
    boundary |= (x < _ALIGN_TOL) | (x > 1 - _ALIGN_TOL)
    boundary |= (y < _ALIGN_TOL) | (y > 1 - _ALIGN_TOL)
    for x0, y0, x1, y1 in holes:
        on_rect = (
            (np.abs(x - x0) < _ALIGN_TOL) | (np.abs(x - x1) < _ALIGN_TOL)
        ) & (y >= y0 - _ALIGN_TOL) & (y <= y1 + _ALIGN_TOL)
        on_rect |= (
            (np.abs(y - y0) < _ALIGN_TOL) | (np.abs(y - y1) < _ALIGN_TOL)
        ) & (x >= x0 - _ALIGN_TOL) & (x <= x1 + _ALIGN_TOL)
        boundary |= on_rect

    return Mesh(nodes=nodes, triangles=triangles, boundary=boundary, holes=holes, nx=nx)


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


def export_mesh_csv(mesh: Mesh, nodes_path, triangles_path) -> None:
    """Write the node table (id,x,y) and triangle table (id,n0,n1,n2)."""
    with open(nodes_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "x", "y"])
        for i, (x, y) in enumerate(mesh.nodes):
            w.writerow([i, f"{x:.17g}", f"{y:.17g}"])
    with open(triangles_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "n0", "n1", "n2"])
        for i, (a, b, c) in enumerate(mesh.triangles):
            w.writerow([i, a, b, c])


def peclet_number(velocity_amplitude: float, h: float, kappa: float) -> float:
    return velocity_amplitude * h / (2.0 * kappa)


def warn_if_advection_dominated(velocity_amplitude: float, h: float, kappa: float, limit: float = 20.0) -> float:
    """Warn when the mesh Peclet number exceeds the stability comfort zone."""
    pe = peclet_number(velocity_amplitude, h, kappa)
    if pe > limit:
        warnings.warn(
            f"mesh Peclet number {pe:.1f} exceeds {limit}; unstabilized Galerkin "
            "may oscillate (raise kappa or refine the mesh)",
            stacklevel=2,
        )
    return pe
