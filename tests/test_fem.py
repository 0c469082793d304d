"""Mesh construction, operator assembly, and mass factorization."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oed_dopt.errors import ConfigError, NumericalError
from oed_dopt.fem import (
    MassFactor,
    assemble,
    build_mesh,
    peclet_number,
    triangle_geometry,
)
from oed_dopt.transport import VelocityField, make_observation_setup


def brute_force_retained_cells(nx, holes):
    """Oracle: enumerate grid cells and drop those a hole covers, on integer cell ranges
    (i0, j0, i1, j1), so that no float product meets a hole coordinate."""
    ranges = [tuple(round(c * nx) for c in hole) for hole in holes]
    return [
        (ci, cj)
        for cj in range(nx)
        for ci in range(nx)
        if not any(i0 <= ci < i1 and j0 <= cj < j1 for i0, j0, i1, j1 in ranges)
    ]


def test_structured_counts_nx2():
    mesh = build_mesh(2)
    assert mesh.n_nodes == 9
    assert len(mesh.triangles) == 8


def hole_area(holes):
    return sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in holes)


# two holes sharing the edge x = 0.5: the nodes strictly inside that edge
# belong to no retained cell and must go too
EDGE_SHARING = [(0.25, 0.25, 0.5, 0.75), (0.5, 0.25, 0.75, 0.75)]


def test_hole_removes_expected_cells():
    # the single hole's interior contains no grid nodes at nx=4, so all 25
    # remain; the edge-sharing pair orphans the node (0.5, 0.5); at nx=10 the
    # hole drops the 2 x 5 cells ci in [1, 3), cj in [1, 6), though ci = 2 ends
    # at 0.2 + 0.1 > 0.3 in floats, and its 4 interior nodes
    for nx, holes, n_cells, n_nodes in [
        (4, [(0.25, 0.25, 0.5, 0.5)], 15, 25),
        (4, EDGE_SHARING, 12, 24),
        (10, [(0.1, 0.1, 0.3, 0.6)], 90, 117),
    ]:
        mesh = build_mesh(nx, holes)
        kept = brute_force_retained_cells(nx, holes)
        assert len(mesh.triangles) == 2 * len(kept) == 2 * n_cells
        assert mesh.n_nodes == n_nodes
        area, _, _ = triangle_geometry(mesh.nodes, mesh.triangles)
        assert area.sum() == pytest.approx(1.0 - hole_area(holes))


def test_hole_removes_interior_nodes():
    mesh = build_mesh(8, [(0.25, 0.25, 0.75, 0.75)])
    kept = brute_force_retained_cells(8, [(0.25, 0.25, 0.75, 0.75)])
    assert len(mesh.triangles) == 2 * len(kept)
    # interior nodes of the hole (3x3 of them) are removed
    assert mesh.n_nodes == 81 - 9
    # splitting the hole along x = 0.5 leaves the same mesh: the split's
    # nodes, not interior to either half, belong to no retained cell
    split = build_mesh(8, EDGE_SHARING)
    assert np.array_equal(split.nodes, mesh.nodes)
    assert np.array_equal(split.triangles, mesh.triangles)


def test_mesh_contains_the_closed_domain():
    """A point is in the domain when some retained cell's closed square holds it: the square's
    boundary and a hole's edges are in, the square's outside, a hole's interior and the split
    between two holes that share an edge are out."""
    mesh = build_mesh(8, EDGE_SHARING)
    points = {
        (0.0, 0.0): True,
        (1.0, 0.6): True,
        (0.25, 0.5): True,  # a hole's edge
        (0.5, 0.75): True,  # the end of the split, on the holes' top edge
        (0.1, 0.9): True,
        (1.0 + 1e-6, 0.5): False,
        (-0.5, 0.5): False,
        (0.4, 0.4): False,  # a hole's interior
        (0.5, 0.5): False,  # the split between the two holes
        (np.nan, 0.5): False,
        (np.inf, 0.5): False,
        (0.5, -np.inf): False,
    }
    # a non-finite point is outside, never cast to an index (numpy warns on that cast)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert mesh.contains(np.array(list(points))).tolist() == list(points.values())
        for bad in ([np.nan, 0.5], [0.5, np.inf], [-np.inf, -np.inf]):
            with pytest.raises(ConfigError, match="outside the meshed domain"):
                make_observation_setup(mesh, [[0.1, 0.1], bad], [1.0], 2.0, 10)


@st.composite
def meshes_with_holes(draw):
    """nx 2-16 and up to three grid-aligned holes as cell ranges (i0, j0, i1, j1), some as
    pairs that share an edge."""
    nx = draw(st.integers(2, 16))
    holes = []
    if nx >= 3:
        for _ in range(draw(st.integers(0, 3))):
            i0, j0 = draw(st.integers(1, nx - 2)), draw(st.integers(1, nx - 2))
            i1, j1 = draw(st.integers(i0 + 1, nx - 1)), draw(st.integers(j0 + 1, nx - 1))
            holes.append((i0, j0, i1, j1))
            if i1 < nx - 1 and draw(st.booleans()):  # its neighbour across the edge x = i1 / nx
                holes.append((i1, j0, draw(st.integers(i1 + 1, nx - 1)), j1))
    return nx, holes


@settings(max_examples=100, deadline=None)
@given(meshes_with_holes(), st.data())
def test_grid_lookup_matches_brute_force(mesh_spec, data):
    """contains is a max-norm test against every retained cell's center, and nearest_nodes the
    Euclidean argmin over all nodes (the lower id on an exact tie), on points at cell corners,
    edges and centers, the outer boundary and hole edges, exact half-cell ties, and just
    inside (0.4e-9 h) and just outside (0.6e-9 h) the 0.5e-9 h slack past a cell's edge."""
    nx, holes = mesh_spec
    mesh = build_mesh(nx, [np.array(hole) / nx for hole in holes])
    h = 1.0 / nx
    half_steps = st.integers(-1, 2 * nx + 1).map(lambda k: k * 0.5 * h)
    offsets = st.sampled_from([0.0, 0.0, 0.4e-9, -0.4e-9, 0.6e-9, -0.6e-9, 1e-3]).map(lambda s: s * h)
    coordinate = st.one_of(st.tuples(half_steps, offsets).map(sum), st.floats(-0.1, 1.1))
    points = np.array(data.draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40)))

    open_cells = np.ones((nx, nx), dtype=bool)  # [cj, ci], on integer indices
    for i0, j0, i1, j1 in holes:
        open_cells[j0:j1, i0:i1] = False
    cj, ci = np.nonzero(open_cells)
    centers = np.column_stack([ci, cj]) / nx + 0.5 * h
    reach = 0.5 * h * (1.0 + 1e-9)
    inside = (np.abs(points[:, None, :] - centers[None]).max(axis=2) <= reach).any(axis=1)
    assert mesh.contains(points).tolist() == inside.tolist()
    nearest = np.argmin(((mesh.nodes[None] - points[:, None, :]) ** 2).sum(axis=2), axis=1)
    assert mesh.nearest_nodes(points).tolist() == np.where(inside, nearest, -1).tolist()


def test_nx_below_minimum_rejected():
    with pytest.raises(ConfigError):
        build_mesh(1)


def test_misaligned_hole_rejected():
    with pytest.raises(ConfigError, match="aligned"):
        build_mesh(4, [(0.3, 0.25, 0.5, 0.5)])
    with pytest.raises(ConfigError, match="inside"):
        build_mesh(4, [(0.0, 0.25, 0.5, 0.5)])


def test_triangle_areas_positive_and_nodes_used():
    for holes in ([(0.2, 0.2, 0.4, 0.6)], [(0.2, 0.2, 0.4, 0.6), (0.4, 0.2, 0.6, 0.6)]):
        mesh = build_mesh(5, holes)
        area, _, _ = triangle_geometry(mesh.nodes, mesh.triangles)
        assert np.all(area > 0)
        used = np.zeros(mesh.n_nodes, dtype=bool)
        used[mesh.triangles.ravel()] = True
        assert used.all()


@pytest.mark.parametrize("holes", [[], [(0.25, 0.25, 0.5, 0.75)], EDGE_SHARING])
def test_mass_sum_equals_area(holes):
    mesh = build_mesh(4, holes)
    ops = assemble(mesh)
    assert ops.M.sum() == pytest.approx(1.0 - hole_area(holes), rel=1e-12)


def test_stiffness_annihilates_constants():
    mesh = build_mesh(5)
    ops = assemble(mesh, VelocityField(amplitude=2.0))
    c = np.ones(ops.n)
    assert np.linalg.norm(ops.K @ c) <= 1e-12 * np.linalg.norm(ops.K.toarray())


def test_zero_velocity_gives_zero_advection():
    mesh = build_mesh(4)
    ops = assemble(mesh, VelocityField(amplitude=0.0))
    assert ops.N.nnz == 0


def test_advection_against_quadrature_oracle():
    # one-triangle check of the centroid rule: N_e[i, j] = (v . grad phi_j)/6 * 2A...
    # assembled on the smallest mesh and compared against direct evaluation
    mesh = build_mesh(2)
    v = VelocityField(amplitude=0.7)
    ops = assemble(mesh, v)
    area, b, c = triangle_geometry(mesh.nodes, mesh.triangles)
    N_ref = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for t, tri in enumerate(mesh.triangles):
        centroid = mesh.nodes[tri].mean(axis=0)
        vel = v(centroid)[0]
        for local_i, gi in enumerate(tri):
            for local_j, gj in enumerate(tri):
                grad_j = np.array([b[t, local_j], c[t, local_j]]) / (2 * area[t])
                N_ref[gi, gj] += area[t] * (vel @ grad_j) * (1.0 / 3.0)
    assert np.allclose(ops.N.toarray(), N_ref, atol=1e-14)


def test_spd_quadratic_forms():
    mesh = build_mesh(6, [(1 / 6, 1 / 6, 2 / 6, 3 / 6)])
    ops = assemble(mesh, VelocityField())
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(ops.n)
        assert x @ (ops.M @ x) > 0
        assert x @ (ops.K @ x) >= -1e-12


def test_refinement_preserves_total_mass():
    total = [assemble(build_mesh(nx)).M.sum() for nx in (3, 6, 12)]
    assert np.allclose(total, 1.0, atol=1e-10)
    ns = [build_mesh(nx).n_nodes for nx in (3, 6, 12)]
    assert ns[0] < ns[1] < ns[2]


def test_mass_factor_diagonal_trivial():
    M = sp.diags([4.0, 9.0]).tocsr()
    for mode in ("lumped", "cholesky"):
        mf = MassFactor(M, mode)
        assert np.allclose(mf.apply_R(np.eye(2)), np.diag([2.0, 3.0]))


def test_mass_factor_cholesky_identity():
    M = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    mf = MassFactor(M, "cholesky")
    R = mf.apply_R(np.eye(2))
    assert np.linalg.norm(R @ R.T - M.toarray()) <= 1e-14


def test_lumped_factor_matches_row_sum_oracle():
    ops = assemble(build_mesh(4))
    mf = MassFactor(ops.M, "lumped")
    row_sums = np.asarray(ops.M.sum(axis=1)).ravel()
    assert np.allclose(mf.apply_R(np.eye(ops.n)).diagonal() ** 2, row_sums, rtol=1e-14)


@pytest.mark.parametrize("mode", ["lumped", "cholesky"])
def test_factor_identity_frobenius(mode):
    ops = assemble(build_mesh(5))
    mf = MassFactor(ops.M, mode)
    M_eff = mf.M.toarray()
    R = mf.apply_R(np.eye(ops.n))
    assert np.linalg.norm(R @ R.T - M_eff) <= 1e-12 * np.linalg.norm(M_eff)


@pytest.mark.parametrize("mode", ["lumped", "cholesky"])
def test_mass_factor_round_trip(mode):
    ops = assemble(build_mesh(4))
    mf = MassFactor(ops.M, mode)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal(ops.n)
        lhs = mf.apply_R(mf.apply_Rt(x))
        rhs = mf.M @ x
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("mode", ["lumped", "cholesky"])
def test_mass_factor_solves(mode):
    ops = assemble(build_mesh(3))
    mf = MassFactor(ops.M, mode)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(ops.n)
    assert np.allclose(mf.solve_R(mf.apply_R(x)), x, atol=1e-10)


def test_degenerate_triangle_aborts_assembly():
    mesh = build_mesh(2)
    tri = mesh.triangles[0]
    mesh.nodes[tri[2]] = mesh.nodes[tri[0]]  # collapse one triangle
    with pytest.raises(NumericalError, match="degenerate"):
        assemble(mesh)


def test_non_spd_rejected():
    M = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(NumericalError):
        MassFactor(M, "cholesky")
    M2 = sp.csr_matrix(np.array([[1.0, -3.0], [-3.0, 1.0]]))
    with pytest.raises(NumericalError):
        MassFactor(M2, "lumped")


def test_unknown_mass_mode_rejected():
    with pytest.raises(ConfigError):
        MassFactor(sp.eye(3).tocsr(), "diagonal")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=9))
def test_structured_counts_formula(nx):
    mesh = build_mesh(nx)
    assert mesh.n_nodes == (nx + 1) ** 2
    assert len(mesh.triangles) == 2 * nx**2
    on_edge = np.any((mesh.nodes == 0.0) | (mesh.nodes == 1.0), axis=1)
    assert on_edge.sum() == 4 * nx


def test_peclet_number():
    assert peclet_number(1.0, 0.1, 0.01) == pytest.approx(5.0)
    assert peclet_number(1.0, 0.1, 0.0) == np.inf
    assert peclet_number(0.0, 0.1, 0.0) == 0.0
