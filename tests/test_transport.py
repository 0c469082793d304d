"""Forward map, discrete adjoint, observation layout, and data synthesis."""

import numpy as np
import pytest

from conftest import dense_forward_matrix, make_config, unit_probe_adjoints
from oed_dopt import transport
from oed_dopt.accounting import count_solves
from oed_dopt.errors import ConfigError
from oed_dopt.fem import build_mesh
from oed_dopt.optimize import solve_l1
from oed_dopt.problem import build_problem
from oed_dopt.transport import VelocityField, _solver, _wide, make_observation_setup, synthesize_data


def test_velocity_divergence_free_and_tangential():
    v = VelocityField(amplitude=1.3)
    # no normal flow on the outer boundary
    edge = np.linspace(0.0, 1.0, 11)
    assert np.allclose(v(np.column_stack([np.zeros(11), edge]))[:, 0], 0.0, atol=1e-14)
    assert np.allclose(v(np.column_stack([np.ones(11), edge]))[:, 0], 0.0, atol=1e-14)
    assert np.allclose(v(np.column_stack([edge, np.zeros(11)]))[:, 1], 0.0, atol=1e-14)
    assert np.allclose(v(np.column_stack([edge, np.ones(11)]))[:, 1], 0.0, atol=1e-14)
    # divergence by central differences
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.1, 0.9, size=(50, 2))
    h = 1e-6
    dx = (v(pts + [h, 0])[:, 0] - v(pts - [h, 0])[:, 0]) / (2 * h)
    dy = (v(pts + [0, h])[:, 1] - v(pts - [0, h])[:, 1]) / (2 * h)
    assert np.max(np.abs(dx + dy)) < 1e-8


def test_observation_indexing_time_major(tiny_problem):
    obs = tiny_problem.obs
    # entry (m, j) sits at position m * n_s + j: probing theta that is nonzero
    # only at sensor j must light up exactly those positions
    j = 1
    theta = np.zeros(tiny_problem.G.n)
    theta[obs.sensor_nodes[j]] = 1.0
    y = tiny_problem.forward.apply(theta)
    Y = y.reshape(obs.n_t, obs.n_s)
    assert Y.shape == (obs.n_t, obs.n_s)
    # the seeded sensor dominates its own column at the first observation time
    assert Y[0, j] == np.max(np.abs(Y))


def test_sensor_snapping_distinct():
    cfg = make_config(sensors={"grid": [2, 2], "margin": [0.26, 0.26]})
    p = build_problem(cfg)
    assert len(np.unique(p.obs.sensor_nodes)) == 4
    with pytest.raises(ConfigError, match="coincident"):
        make_observation_setup(p.mesh, [[0.5, 0.5], [0.51, 0.51]], [1.0], 2.0, 20)


DESK_SENSORS = {"grid": [7, 5], "margin": [0.2, 0.3]}
# node ids the desk sensors snapped to under a KD-tree query over all nodes: row-major
# (x fastest) over the 7 x 5 grid, rows of nx + 1 nodes
PINNED_SNAP = {
    10: [j * 11 + i for j in range(3, 8) for i in range(2, 9)],
    32: [j * 33 + i for j in (10, 13, 16, 19, 22) for i in (6, 10, 13, 16, 19, 22, 26)],
}


@pytest.mark.parametrize("nx", sorted(PINNED_SNAP))
def test_desk_sensor_snap_pinned(nx):
    """The desk sensors land on the same nodes at the desk size and the nx = 32 workload size."""
    coords = make_config(mesh={"nx": nx}, sensors=DESK_SENSORS).sensor_coordinates()
    obs = make_observation_setup(build_mesh(nx), coords, [1.0], 2.0, 20)
    assert obs.sensor_nodes.tolist() == PINNED_SNAP[nx]


def test_observation_times_validation(small_problem):
    mesh = small_problem.mesh
    with pytest.raises(ConfigError):
        make_observation_setup(mesh, [[0.5, 0.5]], [1.0, 1.01], 2.0, 10)  # same step
    obs = make_observation_setup(mesh, [[0.5, 0.5]], [0.55, 1.24], 2.0, 10)
    assert obs.obs_steps.tolist() == [3, 6]
    assert np.allclose(obs.obs_steps * obs.dt, [0.6, 1.2])


def test_observation_times_outside_horizon_rejected(small_problem):
    mesh = small_problem.mesh
    # a time past T used to be clipped to T without a word
    with pytest.raises(ConfigError, match=r"outside \(0, T\]"):
        make_observation_setup(mesh, [[0.5, 0.5]], [0.5, 1.0, 3.7], 2.0, 10)
    for bad in ([0.0, 1.0], [-0.5, 1.0], [float("nan")]):
        with pytest.raises(ConfigError, match="outside"):
            make_observation_setup(mesh, [[0.5, 0.5]], bad, 2.0, 10)
    # the end points of (0, T]: a time below dt/2 observes the first step
    obs = make_observation_setup(mesh, [[0.5, 0.5]], [0.05, 2.0], 2.0, 10)
    assert obs.obs_steps.tolist() == [1, 10]


def test_forward_zero_initial_state(tiny_problem):
    y = tiny_problem.forward.apply(np.zeros(tiny_problem.G.n))
    assert np.allclose(y, 0.0)


def test_constant_state_preserved_without_advection():
    cfg = make_config(velocity={"amplitude": 0.0})
    p = build_problem(cfg)
    c = 2.7
    y = p.forward.apply(np.full(p.G.n, c))
    assert np.allclose(y, c, rtol=1e-10)


def test_forward_matches_dense_stepper_oracle(tiny_problem):
    F = dense_forward_matrix(tiny_problem)
    n = tiny_problem.G.n
    for i in (0, n // 2, n - 1):
        e = np.zeros(n)
        e[i] = 1.0
        assert np.allclose(tiny_problem.forward.apply(e), F[:, i], atol=1e-12)
    rng = np.random.default_rng(5)
    theta = rng.standard_normal(n)
    assert np.allclose(tiny_problem.forward.apply(theta), F @ theta, rtol=1e-10)


def test_transpose_matches_dense_oracle(tiny_problem):
    F = dense_forward_matrix(tiny_problem)
    e1 = np.zeros(tiny_problem.G.n_y)
    e1[0] = 1.0
    assert np.allclose(tiny_problem.forward.apply_transpose(e1), F.T[:, 0], atol=1e-12)
    assert np.allclose(tiny_problem.forward.apply_transpose(np.zeros_like(e1)), 0.0)


@pytest.mark.parametrize(
    "overrides",
    [
        {"mesh": {"nx": 4}, "pde": {"kappa": 0.05, "T": 1.0, "n_steps": 5}, "obs": {"times": [0.4, 1.0]}},
        {"mesh": {"nx": 7, "holes": [[2 / 7, 2 / 7, 3 / 7, 4 / 7]]}, "pde": {"kappa": 0.02, "T": 2.0, "n_steps": 12}},
        {"mesh": {"nx": 10}, "pde": {"kappa": 0.01, "T": 3.0, "n_steps": 30}},
    ],
)
def test_adjoint_consistency_matrix(overrides):
    p = build_problem(make_config(**overrides))
    rng = np.random.default_rng(11)
    for _ in range(50):
        theta = rng.standard_normal(p.G.n)
        ybar = rng.standard_normal(p.G.n_y)
        lhs = p.forward.apply(theta) @ ybar
        rhs = theta @ p.forward.apply_transpose(ybar)
        scale = np.linalg.norm(p.forward.apply(theta)) * np.linalg.norm(ybar)
        assert abs(lhs - rhs) <= 1e-10 * max(scale, 1e-30)


def test_linearity(small_problem):
    rng = np.random.default_rng(7)
    t1, t2 = rng.standard_normal((2, small_problem.G.n))
    a, b = 1.7, -0.4
    lhs = small_problem.forward.apply(a * t1 + b * t2)
    rhs = a * small_problem.forward.apply(t1) + b * small_problem.forward.apply(t2)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_mass_conservation_pure_diffusion():
    cfg = make_config(velocity={"amplitude": 0.0})
    p = build_problem(cfg)
    rng = np.random.default_rng(9)
    theta = rng.standard_normal(p.G.n) ** 2
    traj, _ = p.forward.solve_with_trajectory(theta)
    masses = np.array([np.ones(p.G.n) @ (p.mass.M @ u) for u in traj])
    assert np.max(np.abs(masses - masses[0])) <= 1e-10 * abs(masses[0])


def test_matrix_rhs_matches_vector_rhs(tiny_problem):
    rng = np.random.default_rng(13)
    X = rng.standard_normal((tiny_problem.G.n, 4))
    Y = tiny_problem.forward.apply(X)
    for i in range(4):
        assert np.allclose(Y[:, i], tiny_problem.forward.apply(X[:, i]))


def test_solve_counting(tiny_problem):
    with count_solves() as c:
        tiny_problem.forward.apply(np.zeros(tiny_problem.G.n))
    assert (c.delta.forward, c.delta.adjoint) == (1, 0)
    with count_solves() as c:
        tiny_problem.forward.apply_transpose(np.zeros((tiny_problem.G.n_y, 3)))
    assert (c.delta.forward, c.delta.adjoint) == (0, 3)


def test_synthesize_sigma_rule(small_problem):
    y_obs, sigma = synthesize_data(small_problem.y_clean, small_problem.obs.n_s, 0.02, 123)
    y_clean = small_problem.forward.apply(small_problem.theta_true)
    assert np.allclose(sigma, 0.02 * np.max(np.abs(y_clean)))
    assert sigma.shape == (small_problem.obs.n_s,)


def test_synthesize_zero_noise(small_problem):
    y_obs, sigma = synthesize_data(small_problem.y_clean, small_problem.obs.n_s, 0.0, 1)
    assert np.array_equal(y_obs, small_problem.forward.apply(small_problem.theta_true))
    assert np.all(sigma == 0.0)


def test_synthesize_deterministic(small_problem):
    y1, _ = synthesize_data(small_problem.y_clean, small_problem.obs.n_s, 0.05, 42)
    y2, _ = synthesize_data(small_problem.y_clean, small_problem.obs.n_s, 0.05, 42)
    assert np.array_equal(y1, y2)
    y3, _ = synthesize_data(small_problem.y_clean, small_problem.obs.n_s, 0.05, 43)
    assert not np.array_equal(y1, y3)


def test_synthesize_rejects_zero_signal(small_problem):
    with pytest.raises(ConfigError, match="identically zero"):
        synthesize_data(np.zeros(small_problem.G.n_y), small_problem.obs.n_s, 0.02, 0)


# -- solve paths: blocked plain solves and single-column transposed solves ----


@pytest.fixture(scope="module", params=["desk", "advection"])
def path_problem(request, desk_problem):
    """The desk instance and an advection-dominated one (mesh Peclet 50)."""
    if request.param == "desk":
        return desk_problem
    cfg = make_config(
        mesh={"nx": 10},
        pde={"kappa": 0.001, "T": 2.0, "n_steps": 20},
        sensors={"grid": [7, 5], "margin": [0.2, 0.3]},
        obs={"times": [0.5, 1.0, 2.0]},
    )
    with pytest.warns(UserWarning, match="Peclet"):
        return build_problem(cfg)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_blocked_solves_match_per_column(path_problem):
    fwd = path_problem.forward
    n_s = fwd.obs.n_s
    rng = np.random.default_rng(17)
    X = rng.standard_normal((fwd.n, 5))
    Y = fwd.apply(X)
    Yb = rng.standard_normal((fwd.n_y, 5))
    # data only up to the first and the second observation time: the block's
    # sweep starts at the last time, each of these columns' own sweep earlier
    Yb[n_s:, 0] = 0.0
    Yb[2 * n_s :, 1] = 0.0
    Z = fwd.apply_transpose(Yb)
    for i in range(5):
        assert _rel(Y[:, i], fwd.apply(X[:, i])) <= 1e-12
        assert _rel(Z[:, i], fwd.apply_transpose(Yb[:, i])) <= 1e-12
    _, y = fwd.solve_with_trajectory(X[:, 0])
    assert _rel(y, Y[:, 0]) <= 1e-12


@pytest.mark.parametrize("width", [1, 4])
def test_adjoint_identity_at_each_width(path_problem, width):
    fwd = path_problem.forward
    rng = np.random.default_rng(19 + width)
    X = rng.standard_normal((fwd.n, width))
    FX = fwd.apply(X)
    full = rng.standard_normal((fwd.n_y, width))
    early = full.copy()
    early[fwd.obs.n_s :] = 0.0  # data only at the first observation time
    for Yb in (full, early):
        lhs = FX.T @ Yb
        rhs = X.T @ fwd.apply_transpose(Yb)
        scale = np.outer(np.linalg.norm(FX, axis=0), np.linalg.norm(Yb, axis=0))
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


@pytest.mark.parametrize("width", [1, 4])
def test_solve_tallies_per_call(path_problem, width):
    fwd = path_problem.forward
    with count_solves() as c:
        fwd.apply(np.ones((fwd.n, width)))
    assert (c.delta.forward, c.delta.adjoint) == (width, 0)
    with count_solves() as c:
        fwd.apply_transpose(np.ones((fwd.n_y, width)))
    assert (c.delta.forward, c.delta.adjoint) == (0, width)
    with count_solves() as c:
        Z = fwd.apply_transpose(np.zeros((fwd.n_y, width)))
    assert not Z.any()  # no sweep runs, and the columns still count
    assert (c.delta.forward, c.delta.adjoint) == (0, width)
    with count_solves() as c:
        path_problem.G.apply(np.ones((fwd.n, width)))
        path_problem.G.apply_transpose(np.ones((fwd.n_y, width)))
    assert (c.delta.forward, c.delta.adjoint) == (width, width)
    with count_solves() as c:
        fwd.solve_with_trajectory(np.ones(fwd.n))
    assert (c.delta.forward, c.delta.adjoint) == (1, 0)


@pytest.mark.parametrize("which", ["raw", "whitened"])
@pytest.mark.parametrize("pick", ["all", "subset", "one"])
def test_sensor_adjoints_equal_unit_probe_adjoints(path_problem, which, pick):
    """One reverse sweep of the sensors' probes gives, bit for bit, what apply_transpose
    gives on the same probes one observation time at a time, at n_t |J| adjoint solves."""
    F = path_problem.forward if which == "raw" else path_problem.G
    n_s, n_t = F.obs.n_s, F.obs.n_t
    sensors = {"all": np.arange(n_s), "subset": np.array([0, 3, n_s - 2]), "one": np.array([n_s // 2])}[pick]
    oracle = unit_probe_adjoints(F, sensors)
    with count_solves() as c:
        Gt = F.sensor_adjoints(sensors)
    assert (c.delta.forward, c.delta.adjoint) == (0, n_t * len(sensors))
    assert Gt.shape == (F.n, n_t * len(sensors))
    assert np.array_equal(Gt, oracle)


@pytest.mark.parametrize("which", ["raw", "whitened"])
def test_sensor_adjoints_of_no_sensor(path_problem, which):
    F = path_problem.forward if which == "raw" else path_problem.G
    with count_solves() as c:
        Gt = F.sensor_adjoints([])
    assert Gt.shape == (F.n, 0)
    assert (c.delta.forward, c.delta.adjoint) == (0, 0)


def test_forward_factor_is_built_on_first_use(monkeypatch):
    """A frozen-only desk pipeline (build_problem, the z step, build_frozen and a frozen l1
    solve) never factors the step matrix itself: its one forward column takes the transposed
    factor, and its sweep is adjoint.  The first forward block builds that factor once and
    drops the CSC step matrix; the next block reuses the factor."""
    built = []
    factorize = transport._factorize

    def counted(A, diag_pivot_thresh, what):
        built.append(what)
        return factorize(A, diag_pivot_thresh, what)

    monkeypatch.setattr(transport, "_factorize", counted)
    problem = build_problem(
        make_config(
            mesh={"nx": 10},
            pde={"kappa": 0.05, "T": 2.0, "n_steps": 20},
            sensors={"grid": [7, 5], "margin": [0.2, 0.3]},
        )
    )
    design, fwd = problem.design, problem.forward
    design.ensure_z()
    solve_l1(design.estimator("frozen", frozen=design.build_frozen(20)), 0.6)
    assert built == ["transposed time-step matrix"]
    assert "_lu" not in vars(fwd)

    theta = np.random.default_rng(5).standard_normal((fwd.n, 3))
    fwd.apply(theta)
    lu = fwd._lu
    assert built == ["transposed time-step matrix", "time-step matrix"] and not hasattr(fwd, "_A")
    fwd.apply(theta)
    assert fwd._lu is lu and built.count("time-step matrix") == 1


# -- the one time march, bit for bit against the per-step loops it replaced ----


def _loop_apply(fwd, theta):
    U = theta.reshape(fwd.n, -1)
    obs = fwd.obs
    Y = np.empty((obs.n_y, U.shape[1]))
    obs_lookup = {step: i for i, step in enumerate(obs.obs_steps)}
    for m in range(1, obs.obs_steps[-1] + 1):
        U = _solver(fwd._lu if _wide(U) else fwd._lu_t, U)(fwd.M @ U)
        i = obs_lookup.get(m)
        if i is not None:
            Y[i * obs.n_s : (i + 1) * obs.n_s, :] = U[obs.sensor_nodes, :]
    return Y[:, 0] if theta.ndim == 1 else Y


def _loop_apply_transpose(fwd, ybar):
    obs = fwd.obs
    Y = ybar.reshape(obs.n_y, -1)
    G = np.zeros((fwd.n, Y.shape[1]))
    obs_lookup = {step: i for i, step in enumerate(obs.obs_steps)}
    live = np.flatnonzero(Y.reshape(obs.n_t, -1).any(axis=1))
    for m in range(obs.obs_steps[live[-1]] if live.size else 0, 0, -1):
        i = obs_lookup.get(m)
        if i is not None:
            G[obs.sensor_nodes, :] += Y[i * obs.n_s : (i + 1) * obs.n_s, :]
        G = fwd.M @ _solver(fwd._lu_t if _wide(G) else fwd._lu, G)(G)
    return G[:, 0] if ybar.ndim == 1 else G


def _loop_sensor_adjoints(fwd, sensors):
    obs, ns = fwd.obs, len(sensors)
    out = np.empty((fwd.n, obs.n_t * ns))
    X = np.zeros((fwd.n, ns))
    X[obs.sensor_nodes[sensors], np.arange(ns)] = 1.0
    done = 0
    for i, step in enumerate(obs.obs_steps if ns else ()):
        for _ in range(done, step):
            X = fwd.M @ _solver(fwd._lu_t if _wide(X) else fwd._lu, X)(X)
        done = step
        out[:, i * ns : (i + 1) * ns] = X
    return out


def _loop_trajectory(fwd, theta0):
    obs = fwd.obs
    traj = np.empty((obs.n_steps + 1, fwd.n))
    traj[0] = theta0
    y = np.empty(obs.n_y)
    obs_lookup = {step: i for i, step in enumerate(obs.obs_steps)}
    u = theta0
    for m in range(1, obs.n_steps + 1):
        u = _solver(fwd._lu if _wide(u) else fwd._lu_t, u)(fwd.M @ u)
        traj[m] = u
        i = obs_lookup.get(m)
        if i is not None:
            y[i * obs.n_s : (i + 1) * obs.n_s] = u[obs.sensor_nodes]
    return traj, y


@pytest.fixture(scope="module", params=[10, 32, "cholesky"])
def march_problem(request, desk_problem):
    """The desk instance (nx = 10), its sensors and times on the nx = 32 mesh, and the
    desk instance with the consistent ("cholesky") mass in place of the lumped one."""
    if request.param == 10:
        return desk_problem
    return build_problem(
        make_config(
            mesh={"nx": 10 if request.param == "cholesky" else 32},
            pde={"kappa": 0.05, "T": 2.0, "n_steps": 20},
            sensors={"grid": [7, 5], "margin": [0.2, 0.3]},
            obs={"times": [0.5, 1.0, 2.0]},
            mass={"mode": "cholesky" if request.param == "cholesky" else "lumped"},
        )
    )


@pytest.mark.parametrize("nx, panel", [(10, 264), (32, 24), (64, 8)])
def test_march_panel_width(nx, panel):
    """The column panel is the largest multiple of 8 columns of n doubles within 256 KiB,
    and never fewer than 8: desk blocks (n = 121) are never split."""
    problem = build_problem(make_config(mesh={"nx": nx}))
    assert problem.forward._panel == panel


def test_march_matches_step_loops_bitwise(march_problem):
    """Every sweep through ``ForwardMap._march`` runs each column through the same solves
    in the same order as the per-step loops: outputs equal bit for bit at every width, with adjoint data that
    ends early or is absent, and for all, several, one or no sensors, raw and whitened.
    Blocks wider than a column panel are split, with a ragged tail of 5 columns or of 1."""
    fwd, G = march_problem.forward, march_problem.G
    n_s, n_t = fwd.obs.n_s, fwd.obs.n_t
    rng = np.random.default_rng(31)
    for width in (None, 45, 1, 0, 2 * fwd._panel + 5, 2 * fwd._panel + 1):
        shape = () if width is None else (width,)
        theta = rng.standard_normal((fwd.n, *shape))
        assert np.array_equal(fwd.apply(theta), _loop_apply(fwd, theta))
        Yb = rng.standard_normal((fwd.n_y, *shape))
        for end in range(n_t, -1, -1):  # data up to the end-th observation time only
            Yb[end * n_s :] = 0.0
            assert np.array_equal(fwd.apply_transpose(Yb), _loop_apply_transpose(fwd, Yb))
    Yb = rng.standard_normal((fwd.n_y, 45))
    Yb[n_s : 2 * n_s] = 0.0  # a silent middle time between two that hold data
    assert np.array_equal(fwd.apply_transpose(Yb), _loop_apply_transpose(fwd, Yb))
    theta0 = rng.standard_normal(fwd.n)
    for got, want in zip(fwd.solve_with_trajectory(theta0), _loop_trajectory(fwd, theta0)):
        assert np.array_equal(got, want)
    whiten = G.prior.mass.apply_Rt
    for sensors in (np.arange(n_s), np.array([0, 3, n_s - 2]), np.array([n_s // 2]), np.array([], dtype=int)):
        raw = _loop_sensor_adjoints(fwd, sensors)
        assert np.array_equal(fwd.sensor_adjoints(sensors), raw)
        ns = len(sensors)
        blocks = [whiten(G.prior.solve_Lt(raw[:, i * ns : (i + 1) * ns])) for i in range(n_t if ns else 0)]
        assert np.array_equal(G.sensor_adjoints(sensors), np.hstack(blocks) if ns else raw)
