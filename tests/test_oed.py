"""Misfit-Hessian estimators: z constants, Eig-k, randomized, frozen, KL, dense."""

import gc
import hashlib
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from conftest import (
    dense_G,
    dense_hessian,
    dense_theta_post,
    frozen_from_dense,
    make_config,
    sensor_z_norms,
    synthetic_design,
    unit_probe_adjoints,
)
from oed_dopt.accounting import count_solves
from oed_dopt.bench import error_vs_rank_sweep
from oed_dopt.errors import ConfigError, ConvergenceError
from oed_dopt.inverse import map_estimate
from oed_dopt.oed import (
    DesignProblem,
    MisfitHessianOp,
    NoiseModel,
    check_design_weights,
    kl_divergence,
    precompute_z,
    sensor_blocks,
    weighted_diag,
)
from oed_dopt.problem import build_problem
from oed_dopt.sketch import LowRankEig, SketchConfig, SpectrumSplit, cge_constant, error_bounds, exact_eigs


def test_noise_model_validation():
    with pytest.raises(ConfigError):
        NoiseModel(np.array([1.0, 0.0]))
    assert NoiseModel(np.array([1.0, 2.0])).n_s == 2


def test_design_problem_reads_its_layout_from_the_map(desk_problem):
    """n_s and n_t come from G.obs; a noise model of another sensor count is refused at
    construction, even where n_s * n_t still equals n_y (7 sigma x 15 times = 105)."""
    G = desk_problem.G
    d = DesignProblem(G, NoiseModel(np.ones(35)))
    assert (d.n_s, d.n_t) == (G.obs.n_s, G.obs.n_t) == (35, 3)
    with count_solves() as c, pytest.raises(ConfigError, match="noise model has 7 sensors"):
        DesignProblem(G, NoiseModel(np.ones(7)))
    assert c.delta.total == 0


def test_design_weight_validation():
    with pytest.raises(ConfigError):
        check_design_weights([0.5, 1.2], 2)
    with pytest.raises(ConfigError):
        check_design_weights([0.5, np.nan], 2)
    with pytest.raises(ConfigError):
        check_design_weights([0.5], 2)


def test_weighted_diag_layout():
    d = weighted_diag(np.array([1.0, 0.5]), NoiseModel(np.array([2.0, 1.0])), 3)
    assert np.allclose(d, [0.25, 0.5] * 3)


def test_misfit_op_matches_dense(small_design):
    rng = np.random.default_rng(0)
    w = rng.uniform(0, 1, small_design.n_s)
    H = dense_hessian(small_design, w)
    op = small_design.misfit_op(w)
    x = rng.standard_normal(small_design.G.n)
    assert np.allclose(op.matvec(x), H @ x, rtol=1e-9)
    assert np.allclose(op.matmat(np.column_stack([x, 2 * x])), np.column_stack([H @ x, 2 * (H @ x)]), rtol=1e-9)


def test_z_matches_dense_trace_oracle(small_design):
    d = small_design
    blocks = sensor_blocks(dense_G(d), d.n_s, d.n_t)
    # tr(dH/dw_j) with the dense dH/dw_j = G^T E_j G / sigma_j^2
    z_ref = np.array([np.trace(blocks[:, j, :].T @ blocks[:, j, :]) / d.noise.sigma[j] ** 2 for j in range(d.n_s)])
    assert np.allclose(small_design.z, z_ref, rtol=1e-8)


def test_z_sum_hutchinson_oracle(small_design):
    """sum_j z_j = tr(G^T Gamma^{-1} G), checked by a stochastic trace estimate."""
    rng = np.random.default_rng(1)
    n = small_design.G.n
    dinv = weighted_diag(np.ones(small_design.n_s), small_design.noise, small_design.n_t)
    samples = np.empty(50)
    for i in range(50):
        x = rng.standard_normal(n)
        gx = small_design.G.apply(x)
        samples[i] = x @ small_design.G.apply_transpose(dinv * gx)
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(samples.mean() - small_design.z.sum()) <= 3.0 * se


def test_z_sigma_scaling(small_problem):
    peak = float(np.max(np.abs(small_problem.forward.apply(small_problem.theta_true))))
    d1 = DesignProblem(small_problem.G, NoiseModel(np.full(9, peak)))
    d2 = DesignProblem(small_problem.G, NoiseModel(np.full(9, 2 * peak)))
    assert np.allclose(d2.z, d1.z / 4.0, rtol=1e-12)


def test_z_cache_round_trip(tmp_path, small_design):
    h = hashlib.sha256(b"payload-a").digest()
    path = tmp_path / "z.bin"
    n_y = small_design.G.n_y
    with count_solves() as c1:
        C1 = precompute_z(small_design.G, small_design.noise, small_design.n_t, path, h)
    assert c1.delta.adjoint == n_y
    assert isinstance(C1, np.ndarray) and C1.shape == (n_y, n_y)
    # magic, hash, n_y and C
    assert path.read_bytes()[:8] == b"OEDZ0003" and path.stat().st_size == 8 + 32 + 4 + 8 * n_y**2
    with count_solves() as c2:
        C2 = precompute_z(small_design.G, small_design.noise, small_design.n_t, path, h)
    assert c2.delta.adjoint == 0  # served from cache
    assert np.array_equal(C1, C2)
    with pytest.warns(UserWarning, match="cache"):
        C3 = precompute_z(small_design.G, small_design.noise, small_design.n_t, path, hashlib.sha256(b"payload-b").digest())
    assert np.allclose(C3, C1)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: raw[:-5],  # truncated inside C
        lambda raw: raw[:20],  # truncated inside the header
        lambda raw: raw + b"\x00" * 8,  # trailing bytes
        lambda raw: raw[:40] + b"\xff\xff\xff\xff" + raw[44:],  # absurd length field
        lambda raw: b"",
    ],
    ids=["truncated", "short-header", "trailing", "bad-length", "empty"],
)
def test_z_cache_malformed_is_a_miss(tmp_path, small_design, corrupt):
    d = small_design
    h = hashlib.sha256(b"payload-a").digest()
    path = tmp_path / "z.bin"
    C1 = precompute_z(d.G, d.noise, d.n_t, path, h)
    path.write_bytes(corrupt(path.read_bytes()))
    with count_solves() as c, pytest.warns(UserWarning, match="malformed"):
        C2 = precompute_z(d.G, d.noise, d.n_t, path, h)
    assert (c.delta.forward, c.delta.adjoint) == (0, d.G.n_y)
    assert np.array_equal(C1, C2)
    # rewritten whole, with no temp file left beside it
    assert [p.name for p in tmp_path.iterdir()] == ["z.bin"]
    with count_solves() as c:
        precompute_z(d.G, d.noise, d.n_t, path, h)
    assert c.delta.adjoint == 0


def test_z_cache_old_format_is_recomputed(tmp_path, small_design):
    """A well-formed cache of either earlier format (z alone, magic OEDZ0001; z and C,
    magic OEDZ0002) is a warned miss at n_y adjoint solves, and is rewritten in the
    current format, C alone."""
    import struct

    d = small_design
    h = hashlib.sha256(b"payload-a").digest()
    z, C = (np.asarray(a, dtype="<f8").tobytes() for a in (d.z, d.C))
    older = {
        b"OEDZ0001": struct.pack("<I", d.n_s) + z,
        b"OEDZ0002": struct.pack("<II", d.n_s, d.G.n_y) + z + C,
    }
    for magic, body in older.items():
        path = tmp_path / f"{magic.decode()}.bin"
        path.write_bytes(magic + h + body)
        with count_solves() as c, pytest.warns(UserWarning, match="malformed"):
            C1 = precompute_z(d.G, d.noise, d.n_t, path, h)
        assert (c.delta.forward, c.delta.adjoint) == (0, d.G.n_y), magic
        assert path.read_bytes()[:8] == b"OEDZ0003"
        with count_solves() as c:
            C2 = precompute_z(d.G, d.noise, d.n_t, path, h)
        assert c.delta.total == 0
        assert np.array_equal(C2, C1)
    # with or without a cache file, the z step returns the same C
    assert np.array_equal(precompute_z(d.G, d.noise, d.n_t), C1)


def test_objective_grad_eig_zero_design(small_design):
    """H(0) = 0 has rank bound 0: the factor has no column, so lam = 0 and grad = z at 0 solves."""
    small_design.ensure_z()
    with count_solves() as c:
        J, grad = small_design.objective_grad_eig(np.zeros(small_design.n_s), k=5)
    assert c.delta.total == 0
    assert J == 0.0
    assert np.allclose(grad, small_design.z, rtol=1e-12)


def test_misfit_op_rank_bound_counts_active_sensors(small_design):
    w = np.zeros(small_design.n_s)
    w[[1, 4, 7]] = [1.0, 0.3, 1e-9]
    assert small_design.misfit_op(w).rank_bound == small_design.n_t * 3
    assert small_design.misfit_op(np.zeros(small_design.n_s)).rank_bound == 0


def test_misfit_op_factor_t_from_one_sensor_sweep(small_design):
    """factor_t() is G^T W^{1/2} on the unit probes of the r active rows; its first call
    sweeps the active sensors at r adjoint solves and holds the columns, later calls are
    free.  op X costs one forward and one adjoint solve per column of X before factor_t,
    and no solve after it."""
    d = fresh_design(small_design)
    rng = np.random.default_rng(40)
    w = np.zeros(d.n_s)
    w[[1, 4, 7]] = [1.0, 0.3, 1e-9]
    op = d.misfit_op(w)
    r = op.rank_bound
    for m in (1, 4):
        with count_solves() as c:
            op.matmat(rng.standard_normal((d.G.n, m)))
        assert (c.delta.forward, c.delta.adjoint) == (m, m)
    assert np.array_equal(op.active_rows, np.flatnonzero(weighted_diag(w, d.noise, d.n_t)))
    spent = []
    for _ in range(3):
        with count_solves() as c:
            Bt = op.factor_t()
        spent.append((c.delta.forward, c.delta.adjoint))
        assert Bt is op.held_factor
    assert spent == [(0, r), (0, 0), (0, 0)]
    probes = np.zeros((d.G.n_y, r))
    probes[op.active_rows, np.arange(r)] = np.sqrt(op.diag_w[op.active_rows])
    expect = d.G.apply_transpose(probes)
    assert np.linalg.norm(Bt - expect) <= 1e-12 * np.linalg.norm(expect)
    for m in (1, 4):
        with count_solves() as c:
            op.matmat(rng.standard_normal((d.G.n, m)))
        assert (c.delta.forward, c.delta.adjoint) == (0, 0)


def desk_weights(d, case, rng):
    """16 of desk's 35 sensors on (r = 48), or every sensor at a weight in [0.1, 1)."""
    if case == "blocked":
        return np.isin(np.arange(d.n_s), rng.choice(d.n_s, 16, replace=False)).astype(float)
    return rng.uniform(0.1, 1.0, d.n_s)


@pytest.mark.parametrize("case", ["blocked", "all_sensors"])
def test_factor_path_matches_the_sweep_path(desk_design, case):
    """On desk, H(w) X from B^T's held columns equals the forward and adjoint sweeps'
    within 1e-12 relative; and after an Eig-k run the randomized J, spectrum and KL term,
    whose sketch then costs no solve, equal those of a design that holds no factor."""
    rng = np.random.default_rng(50)
    w = desk_weights(desk_design, case, rng)
    op = MisfitHessianOp(desk_design.G, w, desk_design.noise)
    X = rng.standard_normal((desk_design.G.n, 7))
    swept, swept_v = op.matmat(X), op.matvec(X[:, 0])
    op.factor_t()
    assert np.linalg.norm(op.matmat(X) - swept) <= 1e-12 * np.linalg.norm(swept)
    assert np.linalg.norm(op.matvec(X[:, 0]) - swept_v) <= 1e-12 * np.linalg.norm(swept_v)

    cfg = SketchConfig(k=40, p=5, q=1, seed=9)
    theta = dense_theta_post(desk_design, w, rng.standard_normal(desk_design.G.n_y) * desk_design.noise.sigma[0])
    read = {}
    for name in ("held", "cold"):
        d = fresh_design(desk_design)
        if name == "held":
            d.objective_eig(w, 10)
        with count_solves() as c:
            J = d.objective_rand(w, cfg)
            lam = d.estimator("rand", cfg=cfg).spectrum(w)
            kl = d.kl_estimate(w, np.zeros(desk_design.G.n_y), "rand", cfg=cfg, theta_post=theta)
        read[name] = (J, lam, kl, c.delta.total)
    (J_h, lam_h, kl_h, spent_h), (J_c, lam_c, kl_c, spent_c) = read["held"], read["cold"]
    assert (spent_h, spent_c) == (0, 2 * cfg.l * (cfg.q + 1))
    assert J_h == pytest.approx(J_c, rel=1e-12)
    assert kl_h == pytest.approx(kl_c, rel=1e-12)
    assert np.max(np.abs(lam_h - lam_c)) <= 1e-12 * lam_c.max()


@pytest.mark.parametrize("case", ["blocked", "all_sensors"])
def test_sweep_rand_rows_read_the_held_factor(desk_design, case, monkeypatch):
    """error_vs_rank_sweep runs each rank's Eig-k row first, so every randomized row after
    it sketches from the held factor: each (J, grad) spends exactly l forward solves (G U)
    and 0 adjoint, and its spectrum reads that sketch.  The whole sweep spends one sensor
    sweep (r adjoint) and min(k, r) forward per Eig-k row besides."""
    d = fresh_design(desk_design)
    w = desk_weights(d, case, np.random.default_rng(51))
    r = d.misfit_op(w).rank_bound
    spent = []
    objective_grad_rand = DesignProblem.objective_grad_rand

    def counted(self, w, cfg):
        with count_solves() as c:
            out = objective_grad_rand(self, w, cfg)
        spent.append((c.delta.forward, c.delta.adjoint, cfg.l))
        return out

    monkeypatch.setattr(DesignProblem, "objective_grad_rand", counted)
    ks, p, n_seeds = (5, 20), 5, 2
    with count_solves() as c:
        error_vs_rank_sweep(d, w, ks, p=p, q=1, n_seeds=n_seeds, seed0=3)
    assert len(spent) == len(ks) * n_seeds
    assert all((f, a) == (l, 0) for f, a, l in spent)
    forward = sum(min(k, r) + n_seeds * (k + p) for k in ks)
    assert (c.delta.forward, c.delta.adjoint) == (forward, r)


def dense_top_pairs(d, w, k):
    """The top-k eigenpairs of the dense H(w) of :func:`dense_hessian` (n_y adjoint solves)."""
    lam, U = np.linalg.eigh(dense_hessian(d, w))
    return LowRankEig(U=U[:, ::-1][:, :k], lam=np.clip(lam[::-1][:k], 0.0, None))


@pytest.mark.parametrize("n_active, k", [(2, 8), (3, 8)])
def test_eig_blocked_branch_on_sparse_binary_design(small_design, n_active, k):
    """A binary design with r = n_t |supp w| <= k, or r = 9 just above k = 8, takes the
    factored branch: one sensor sweep for the r nonzero columns of B^T (r adjoint
    solves), whose thin SVD gives the pairs and the residual check at no solve, and
    min(k, r) forward solves for the gradient's G U; no warning, and J, gradient and
    spectrum as the exact reference and the dense Hessian's top-k pairs give them.  The
    spectrum has min(k, r) values: past r there is no pair."""
    d = fresh_design(small_design)
    ref = d.dense_reference()
    w = np.zeros(d.n_s)
    w[np.random.default_rng(30 + n_active).choice(d.n_s, n_active, replace=False)] = 1.0
    r = d.n_t * n_active
    with count_solves() as c, warnings.catch_warnings():
        warnings.simplefilter("error")
        J, g = d.objective_grad_eig(w, k)
    assert (c.delta.forward, c.delta.adjoint) == (min(k, r), r)
    J_ref, g_ref, lam_ref = ref.evaluate(w)
    assert abs(J_ref - J) == pytest.approx(np.sum(np.log1p(lam_ref[k:])), rel=1e-8, abs=1e-10)
    lam = d.estimator("eig", k=k).spectrum(w)
    assert lam.shape == (min(k, r),)
    assert np.allclose(lam, lam_ref[: min(k, r)], rtol=1e-8, atol=1e-10 * lam_ref[0])
    if n_active * d.n_t <= k:  # the whole spectrum: J and the gradient are exact
        assert J == pytest.approx(J_ref, rel=1e-8)
        assert np.linalg.norm(g - g_ref) <= 1e-8 * np.linalg.norm(g_ref)
    J_a, g_a, _, lam_a = separate_eig_run(d, w, k, dense_top_pairs(d, w, k))
    assert J == pytest.approx(J_a, rel=1e-8)
    assert np.allclose(lam, lam_a[: min(k, r)], rtol=1e-8, atol=1e-10 * lam[0])
    assert np.linalg.norm(g - g_a) <= 1e-8 * np.linalg.norm(g_a)


def test_eig_factor_disagreeing_with_forward_map_raises(small_design, monkeypatch):
    """A held factor that is not B^T of the forward map (here scaled by 1 + 1e-6) gives
    pairs that pass the residual check, being exact for that factor; the gradient path
    compares the active rows of W^{1/2} G U with Bt^T U and raises ConvergenceError
    instead of returning them, on every call."""
    d = fresh_design(small_design)
    w = np.isin(np.arange(d.n_s), [0, 4, 8]).astype(float)
    op = d.misfit_op(w)
    op.held_factor = op.factor_t() * (1.0 + 1e-6)
    monkeypatch.setattr(d, "misfit_op", lambda w: op)
    for _ in range(2):
        with count_solves() as c, pytest.raises(ConvergenceError, match="disagree with the held adjoint factor"):
            d.objective_grad_eig(w, 8)
        assert (c.delta.forward, c.delta.adjoint) == (8, 0)


@pytest.mark.parametrize("k", [10, 20, 40])
def test_eig_all_sensor_design_takes_the_factor(desk_design, k):
    """All 35 desk sensors (r = n_y = 105): (J, grad) costs exactly r adjoint solves for
    B^T's columns and k forward solves for G U, the MAP point after it costs no solve and
    no CG iteration and matches the dense MAP point, and the eigenvalues match the exact
    reference's within 1e-8 of lam_max; J and the gradient match the dense Hessian's
    top-k pairs."""
    d = fresh_design(desk_design)
    rng = np.random.default_rng(21)
    w = rng.uniform(0.2, 1.0, d.n_s)
    y = rng.standard_normal(d.G.n_y) * d.noise.sigma[0]
    with count_solves() as c:
        J, g = d.objective_grad_eig(w, k)
    assert (c.delta.forward, c.delta.adjoint) == (k, 105)
    with count_solves() as c:
        rep = map_estimate(d, w, y)
    assert (c.delta.forward, c.delta.adjoint, rep.iterations) == (0, 0, 0)
    theta_ref = dense_theta_post(d, w, y)
    assert np.linalg.norm(rep.theta_post - theta_ref) <= 1e-8 * np.linalg.norm(theta_ref)
    lam_ref = d.dense_reference().spectrum(w)
    lam = d.estimator("eig", k=k).spectrum(w)
    assert np.all(np.abs(lam - lam_ref[:k]) <= 1e-8 * lam_ref[0])
    J_d, g_d, _, _ = separate_eig_run(d, w, k, dense_top_pairs(d, w, k))
    assert J == pytest.approx(J_d, rel=1e-8)
    assert np.linalg.norm(g - g_d) <= 1e-8 * np.linalg.norm(g_d)


def test_objective_grad_eig_full_rank_matches_dense(small_design):
    ref = small_design.dense_reference()
    rng = np.random.default_rng(2)
    w = rng.uniform(0.2, 1.0, small_design.n_s)
    J_ref, g_ref, _ = ref.evaluate(w)
    J, g = small_design.objective_grad_eig(w, k=small_design.rank_bound)
    assert J == pytest.approx(J_ref, rel=1e-8)
    assert np.linalg.norm(g - g_ref) <= 1e-8 * np.linalg.norm(g_ref)


def test_eig_truncation_error_equality(small_design):
    """|J - J_eig| equals the sum of discarded log(1 + lam_i) exactly."""
    ref = small_design.dense_reference()
    rng = np.random.default_rng(3)
    w = rng.uniform(0.3, 1.0, small_design.n_s)
    J_ref, _, lam = ref.evaluate(w)
    for k in (3, 7, 12):
        J_k = small_design.objective_eig(w, k)
        tail = np.sum(np.log1p(lam[k:]))
        assert abs(J_ref - J_k) == pytest.approx(tail, rel=1e-8, abs=1e-10)


def test_eig_gradient_bound(small_design):
    ref = small_design.dense_reference()
    rng = np.random.default_rng(4)
    w = rng.uniform(0.2, 1.0, small_design.n_s)
    _, g_ref, lam = ref.evaluate(w)
    k = 6
    _, g_k = small_design.objective_grad_eig(w, k)
    split = SpectrumSplit.from_spectrum(lam, k)
    z_norms = sensor_z_norms(small_design)
    for j in range(small_design.n_s):
        bound = error_bounds(split, None, "grad_eig_component", z_norm=z_norms[j])
        assert abs(g_ref[j] - g_k[j]) <= bound + 1e-10
    norm_bound = error_bounds(split, None, "grad_norm_eig", z_norms=z_norms)
    assert np.linalg.norm(g_ref - g_k) <= norm_bound + 1e-10


def fresh_design(d):
    """A new DesignProblem over d's map, with its z constants computed."""
    out = DesignProblem(d.G, d.noise)
    out.ensure_z()
    return out


def separate_eig_run(d, w, k, eig=None):
    """J, gradient, KL spectral term and spectrum from the pairs ``eig``, by default a
    separate exact_eigs run of an operator of its own, not d's held one, plus G.apply(U)."""
    eig = exact_eigs(MisfitHessianOp(d.G, np.array(w, dtype=float), d.noise), k) if eig is None else eig
    lam = eig.lam
    S = (sensor_blocks(d.G.apply(eig.U), d.n_s, d.n_t) ** 2).sum(axis=0)
    grad = d.z - (S @ (lam / (1.0 + lam))) / d.noise.sigma**2
    kl_spectral = 0.5 * float(np.sum(np.log1p(lam)) - np.sum(lam / (1.0 + lam)))
    return float(np.sum(np.log1p(lam))), grad, kl_spectral, lam


def assert_matches_separate_run(d, w, k, with_kl=True):
    J_ref, g_ref, kl_ref, _ = separate_eig_run(d, w, k)
    J, g = d.objective_grad_eig(w, k)
    assert J == pytest.approx(J_ref, rel=1e-12, abs=1e-300)
    assert d.objective_eig(w, k) == J
    assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)
    if with_kl:  # a zero MAP point leaves the spectral term alone
        kl = d.kl_estimate(w, np.zeros(d.G.n_y), "eig", k=k, theta_post=np.zeros(d.G.n))
        assert kl == pytest.approx(kl_ref, rel=1e-12, abs=1e-300)


def test_eig_rank_guard_is_shared(desk_design):
    """Every Eig-k reader refuses k above min(n_y, n), before any solve."""
    d = desk_design
    k = d.rank_bound + 1
    w = np.ones(d.n_s)
    y = np.zeros(d.G.n_y)
    theta = np.zeros(d.G.n)
    calls = {
        "objective_grad_eig": lambda: d.objective_grad_eig(w, k),
        "objective_eig": lambda: d.objective_eig(w, k),
        "kl_estimate": lambda: d.kl_estimate(w, y, "eig", k=k, theta_post=theta),
    }
    for name, call in calls.items():
        with count_solves() as c, pytest.raises(ConfigError, match="exceeds rank bound"):
            call()
        assert c.delta.total == 0, name


def test_eig_run_is_shared_by_J_grad_and_kl(small_design):
    """One Eig-k run per design: KL, J and the gradient again on the same (w, k) cost no
    solve."""
    d = fresh_design(small_design)
    rng = np.random.default_rng(21)
    w = rng.uniform(0.2, 1.0, d.n_s)
    y = np.zeros(d.G.n_y)
    theta = np.zeros(d.G.n)
    k = 8
    with count_solves() as c:
        J, g = d.objective_grad_eig(w, k)
    assert (c.delta.forward, c.delta.adjoint) == (k, d.G.n_y)  # G U, and the factor's sweep
    with count_solves() as c:
        kl = d.kl_estimate(w, y, "eig", k=k, theta_post=theta)
        J2 = d.objective_eig(w, k)
        J3, g3 = d.objective_grad_eig(w, k)
    assert c.delta.total == 0
    assert J2 == J == J3 and np.array_equal(g3, g)
    assert kl == pytest.approx(separate_eig_run(d, w, k)[2], rel=1e-12)


def test_eig_run_misses_on_new_w_k_or_seed(small_design):
    """The run is keyed by w's bytes: a new w (here changed in place) costs the factor's
    r adjoint solves and min(k, r) forward ones, a new k on the same w only the forward
    ones, and a new seed, which the estimator does not read, nothing."""
    d = fresh_design(small_design)
    rng = np.random.default_rng(22)
    w = rng.uniform(0.2, 1.0, d.n_s)
    k, r = 6, d.G.n_y
    d.objective_grad_eig(w, k, seed=0)
    w[2] *= 0.5  # changed in place after the first call
    for k_new, seed, cost in ((k, 0, (k, r)), (k + 1, 0, (k + 1, 0)), (k + 1, 1, (0, 0))):
        with count_solves() as c:
            d.objective_grad_eig(w, k_new, seed=seed)
        assert (c.delta.forward, c.delta.adjoint) == cost, (k_new, seed)
        assert_matches_separate_run(d, w, k_new)


def test_eig_estimates_match_separate_run(small_design):
    """J, gradient and KL from the shared run equal exact_eigs + G.apply(U)."""
    d = fresh_design(small_design)
    rng = np.random.default_rng(23)
    for k in (4, 11, d.rank_bound):
        assert_matches_separate_run(d, rng.uniform(0.1, 1.0, d.n_s), k)
    # all-zero design: rank bound 0, an empty factor and no G U
    w0 = np.zeros(d.n_s)
    with count_solves() as c:
        J, g = d.objective_grad_eig(w0, 5)
    assert (J, c.delta.total) == (0.0, 0)
    assert_matches_separate_run(d, w0, 5)


def test_eig_k_near_n_matches_separate_run():
    """k = n - 1 and k = n on a full-rank factor (r = n_y = n = 20)."""
    spectrum = 2.0 ** -np.arange(1, 21, dtype=float)
    d = synthetic_design(20, 5, 4, spectrum, seed=3)
    rng = np.random.default_rng(24)
    for k in (19, 20):
        assert_matches_separate_run(d, rng.uniform(0.1, 1.0, d.n_s), k, with_kl=False)


@pytest.mark.parametrize("branch", ["blocked", "all_sensors", "k_near_n"])
def test_held_block_is_the_last_runs_block(small_design, desk_design, branch):
    """misfit_op(w) is the operator of the last Eig-k run while w's values match, any k: it
    holds B^T's r columns, which span U, for a sparse design, all 35 desk sensors or
    k = n - 1.  A w = 0 run holds B^T's 0 columns.  Before a run, and for w changed in
    place, misfit_op(w) holds no factor."""
    if branch == "k_near_n":  # r = n = 20
        d = synthetic_design(20, 5, 4, 2.0 ** -np.arange(1, 21, dtype=float), seed=3)
        w, k, r = np.full(d.n_s, 0.5), 19, 20
    elif branch == "all_sensors":  # r = n_y = 105
        d = fresh_design(desk_design)
        w, k, r = np.full(d.n_s, 0.5), 10, 105
    else:  # rank bound 9
        d = fresh_design(small_design)
        w, k, r = np.isin(np.arange(d.n_s), [0, 4, 8]).astype(float), 9, 9
    assert d.misfit_op(w).held_factor is None
    d.objective_grad_eig(w, k)
    eig = d._top_eigs(w, k)[0]
    op = d.misfit_op(w.copy())
    assert op.rank_bound == r and op.held_factor.shape == (d.G.n, r)
    assert np.linalg.norm(eig.U - op.held_factor @ np.linalg.lstsq(op.held_factor, eig.U)[0]) <= 1e-10
    d.objective_eig(w, k - 1)
    assert d.misfit_op(w) is op
    w[0] = 0.25  # changed in place
    assert d.misfit_op(w) is not op and d.misfit_op(w).held_factor is None
    d.objective_grad_eig(np.zeros(d.n_s), k)
    assert d.misfit_op(np.zeros(d.n_s)).held_factor.shape == (d.G.n, 0)


def test_misfit_op_holds_a_copy_of_w(small_design):
    """misfit_op validates and copies w: after an in-place change of the caller's w, the
    held operator keeps the original design's r columns of B^T, and misfit_op of the
    changed w is a miss that holds a new operator."""
    d = fresh_design(small_design)
    w = np.random.default_rng(41).uniform(0.2, 1.0, d.n_s)
    original, r = w.copy(), d.G.n_y
    op = d.misfit_op(w)
    w[0] = 0.0  # changed in place
    Bt = op.factor_t()
    assert Bt.shape == (d.G.n, r) and np.array_equal(op.w, original)
    expect = MisfitHessianOp(d.G, original, d.noise).factor_t()
    assert np.linalg.norm(Bt - expect) <= 1e-12 * np.linalg.norm(expect)
    changed = d.misfit_op(w)
    assert changed is not op and changed.rank_bound == r - d.n_t and changed.held_factor is None
    assert d.misfit_op(w) is changed


def test_one_held_operator_serves_one_design(small_design):
    """The Eig-k run, the sketch and the MAP point share misfit_op's one operator: after
    an Eig-k run on w1, a randomized evaluation on w2 holds w2's operator, so the MAP
    point of w1 no longer reads the factor and takes the CG path, at 1 adjoint solve
    plus 1 forward and 1 adjoint per iteration."""
    d = fresh_design(small_design)
    rng = np.random.default_rng(42)
    w1, w2 = rng.uniform(0.2, 1.0, d.n_s), rng.uniform(0.2, 1.0, d.n_s)
    y = rng.standard_normal(d.G.n_y) * d.noise.sigma[0]
    d.objective_grad_eig(w1, 8)
    d.objective_grad_rand(w2, SketchConfig(k=8, p=3, q=1, seed=6))
    assert d.misfit_op(w2).sketch_run is not None
    with count_solves() as c:
        rep = map_estimate(d, w1, y)
    assert rep.iterations > 0
    assert (c.delta.forward, c.delta.adjoint) == (rep.iterations, rep.iterations + 1)
    assert d.misfit_op(w1).held_factor is None


def test_eig_k_near_n_with_r_above_n_takes_the_factor():
    """nx = 3 (n = 16) with 4 sensors x 5 times: r = n_y = 20 >= n, at k = n - 1 = 15.
    The factor's eigenvalues match the dense
    Hessian's within 1e-8 of lam_max, J with the gradient costs exactly r adjoint and
    min(k, r) forward solves, and J and the gradient match the dense Hessian's top-k pairs."""
    problem = build_problem(
        make_config(
            mesh={"nx": 3},
            sensors={"grid": [2, 2], "margin": [0.25, 0.25]},
            obs={"times": [0.4, 0.8, 1.2, 1.6, 2.0]},
        )
    )
    d = fresh_design(problem.design)
    n, k = d.G.n, d.G.n - 1
    w = np.random.default_rng(50).uniform(0.2, 1.0, d.n_s)
    r = d.misfit_op(w).rank_bound
    assert (n, r, k) == (16, 20, 15)
    with count_solves() as c:
        J, g = d.objective_grad_eig(w, k)
    assert (c.delta.forward, c.delta.adjoint) == (min(k, r), r)
    assert d.misfit_op(w).held_factor.shape == (n, r)
    dense = dense_top_pairs(d, w, k)
    lam = d.estimator("eig", k=k).spectrum(w)
    assert np.all(np.abs(lam - dense.lam) <= 1e-8 * dense.lam[0])
    J_d, g_d, _, _ = separate_eig_run(d, w, k, dense)
    assert J == pytest.approx(J_d, rel=1e-8)
    assert np.linalg.norm(g - g_d) <= 1e-8 * np.linalg.norm(g_d)


def test_first_reader_runs_the_one_z_step(tmp_path, small_design):
    """Whichever reader comes first runs the design's one z step (n_y adjoint solves);
    every later reader and ensure_z cost 0 and share its C.  The cache arguments of
    ensure_z apply to that first step only."""
    h = hashlib.sha256(b"payload-a").digest()
    n_y = small_design.G.n_y
    for first in ("ensure_z", "dense", "frozen"):
        path = tmp_path / f"{first}.bin"
        readers = {
            "ensure_z": lambda d: d.ensure_z(path, h),
            "dense": lambda d: d.dense_reference(),
            "frozen": lambda d: d.build_frozen(8),
        }
        d = DesignProblem(small_design.G, small_design.noise)
        spent = []
        for name in [first] + [name for name in readers if name != first] + ["ensure_z"]:
            with count_solves() as c:
                readers[name](d)
            spent.append((c.delta.forward, c.delta.adjoint))
        assert spent == [(0, n_y), (0, 0), (0, 0), (0, 0)], first
        assert d.C is d.dense_reference().C
        assert np.array_equal(d.z, small_design.z)
        assert path.exists() == (first == "ensure_z")


def test_z_step_C_and_dense_G(small_design):
    """Without a cache file the z step's C is the Gram matrix of G^T, formed by
    apply_transpose on unit probes, bit for bit; G itself costs n_y adjoint solves
    and equals that G^T transposed, and the exact MAP point costs one adjoint solve."""
    d = DesignProblem(small_design.G, small_design.noise)
    Gt = unit_probe_adjoints(d.G, np.arange(d.n_s))
    assert np.array_equal(d.ensure_z(), Gt.T @ Gt)
    with count_solves() as c:
        G = dense_G(d)
    assert (c.delta.forward, c.delta.adjoint) == (0, d.G.n_y)
    assert np.array_equal(G, Gt.T)
    rng = np.random.default_rng(30)
    with count_solves() as c:
        dense_theta_post(d, rng.uniform(0.2, 1.0, d.n_s), rng.standard_normal(d.G.n_y))
    assert (c.delta.forward, c.delta.adjoint) == (0, 1)


def test_objective_grad_rand_zero_design(small_design):
    cfg = SketchConfig(k=4, p=2, q=1, seed=5)
    with pytest.warns(UserWarning, match="rank deficient"):
        J, grad = small_design.objective_grad_rand(np.zeros(small_design.n_s), cfg)
    assert J == 0.0
    assert np.allclose(grad, small_design.z, rtol=1e-12)


def test_objective_grad_rand_full_capture_matches_dense(small_design):
    ref = small_design.dense_reference()
    rng = np.random.default_rng(6)
    w = rng.uniform(0.2, 1.0, small_design.n_s)
    J_ref, g_ref, _ = ref.evaluate(w)
    cfg = SketchConfig(k=small_design.rank_bound, p=2, q=1, seed=6)
    with pytest.warns(UserWarning, match="rank deficient"):
        J, g = small_design.objective_grad_rand(w, cfg)
    assert J == pytest.approx(J_ref, rel=1e-8)
    assert np.linalg.norm(g - g_ref) <= 1e-8 * np.linalg.norm(g_ref)


def test_rand_objective_never_exceeds_true(small_design):
    ref = small_design.dense_reference()
    rng = np.random.default_rng(7)
    for seed in range(5):
        w = rng.uniform(0.0, 1.0, small_design.n_s)
        J_ref = ref.evaluate(w)[0]
        J = small_design.objective_rand(w, SketchConfig(k=8, p=3, q=1, seed=seed))
        assert J <= J_ref + 1e-9


def test_frozen_full_rank_exact(small_design):
    ref = small_design.dense_reference()
    rng = np.random.default_rng(8)
    w = rng.uniform(0.1, 1.0, small_design.n_s)
    J_ref, g_ref, _ = ref.evaluate(w)
    frozen = small_design.build_frozen(small_design.rank_bound, seed=0)
    J, g = small_design.objective_grad_frozen(w, frozen)
    assert J == pytest.approx(J_ref, rel=1e-8)
    assert np.linalg.norm(g - g_ref) <= 1e-8 * np.linalg.norm(g_ref)
    with count_solves() as c:
        small_design.objective_grad_frozen(w, frozen)
    assert c.delta.total == 0


def test_frozen_truncation_bound_20_designs(small_design):
    """0 <= J - J_froz <= logdet(I + discarded sigma^2), noise-whitened."""
    ref = small_design.dense_reference()
    Gd = dense_G(small_design)
    Gw = Gd / small_design.noise.sigma[0]  # uniform sigma
    s = np.linalg.svd(Gw, compute_uv=False)
    k_f = 10
    frozen = frozen_from_dense(Gd, k_f)
    split = SpectrumSplit(lam1=s[:k_f] ** 2, lam2=s[k_f:] ** 2, n=len(s))
    bound = error_bounds(split, None, "frozen")
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = rng.uniform(0.0, 1.0, small_design.n_s)
        J_ref = ref.evaluate(w)[0]
        J_f = small_design.objective_grad_frozen(w, frozen)[0]
        gap = J_ref - J_f
        assert -1e-9 <= gap <= bound + 1e-9


def test_single_sensor_rank_structure(small_design):
    """With one active sensor, rank(H) = n_t: Eig-k at k=n_t is exact while the
    frozen estimator at k_f=n_t generally is not."""
    ref = small_design.dense_reference()
    w = np.zeros(small_design.n_s)
    w[0] = 1.0
    J_ref, _, lam = ref.evaluate(w)
    assert np.sum(lam > 1e-10 * max(lam[0], 1.0)) <= small_design.n_t
    J_eig = small_design.objective_eig(w, k=small_design.n_t)
    assert abs(J_eig - J_ref) <= 1e-8 * abs(J_ref)
    frozen = frozen_from_dense(dense_G(small_design), small_design.n_t)
    J_froz = small_design.objective_grad_frozen(w, frozen)[0]
    assert abs(J_froz - J_ref) > 1e-6 * abs(J_ref)


def test_frozen_gradient_is_exact_derivative(small_design):
    """Central differences of the frozen objective match its gradient even at
    reduced rank (the frozen gradient differentiates its own objective)."""
    frozen = small_design.build_frozen(8, seed=3)
    rng = np.random.default_rng(10)
    w = rng.uniform(0.2, 0.8, small_design.n_s)
    _, g = small_design.objective_grad_frozen(w, frozen)
    h = 1e-5
    for j in range(0, small_design.n_s, 3):
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        est = small_design.estimator("frozen", frozen=frozen)
        fd = (est.objective(wp) - est.objective(wm)) / (2 * h)
        assert fd == pytest.approx(g[j], rel=1e-5, abs=1e-10)


def test_build_frozen_is_dense_truncation(small_design):
    Gd = dense_G(small_design)
    rng = np.random.default_rng(20)
    w = rng.uniform(0.1, 1.0, small_design.n_s)
    for k in (5, 12, small_design.rank_bound):
        J, g = small_design.objective_grad_frozen(w, small_design.build_frozen(k))
        J_d, g_d = small_design.objective_grad_frozen(w, frozen_from_dense(Gd, k))
        assert J == pytest.approx(J_d, rel=1e-12)
        assert np.linalg.norm(g - g_d) <= 1e-12 * np.linalg.norm(g_d)
    for k_f in (small_design.rank_bound + 1, 0, -3):
        with count_solves() as c, pytest.raises(ConfigError, match="below 1 or exceeds"):
            small_design.build_frozen(k_f)
        assert c.delta.total == 0


@pytest.mark.parametrize("first", ["frozen", "dense"])
def test_held_Gt_is_built_once(tmp_path, small_design, first):
    """The frozen factor and the dense reference read the z cache's C: after a
    cache miss or hit both cost 0 solves.  Only G itself needs G^T, which no
    design holds: building it costs n_y adjoint solves."""
    readers = {"frozen": lambda d: d.build_frozen(8), "dense": lambda d: d.dense_reference()}
    order = [first] + [name for name in readers if name != first]
    h = hashlib.sha256(b"payload-a").digest()
    n_y = small_design.G.n_y
    for cache_hit in (False, True):
        d = DesignProblem(small_design.G, small_design.noise)
        d.ensure_z(tmp_path / "z.bin", h)
        spent = []
        for name in order:
            with count_solves() as c:
                readers[name](d)
            spent.append((c.delta.forward, c.delta.adjoint))
        with count_solves() as c:
            dense_G(d)
        spent.append((c.delta.forward, c.delta.adjoint))
        assert spent == [(0, 0), (0, 0), (0, n_y)], f"cache hit: {cache_hit}"
        assert d.C is d.ensure_z()


def test_kl_zero_design_is_zero(small_design):
    y = np.zeros(small_design.G.n_y)
    kl = small_design.kl_estimate(np.zeros(small_design.n_s), y, "dense")
    assert kl == pytest.approx(0.0, abs=1e-12)


def test_kl_dense_matches_textbook_oracle(small_problem, small_design):
    """The trace-form KL equals the covariance-ratio form computed densely."""
    from conftest import dense_forward_matrix

    p = small_problem
    d = small_design
    rng = np.random.default_rng(11)
    w = rng.uniform(0.3, 1.0, d.n_s)
    y_obs = rng.standard_normal(d.G.n_y) * d.noise.sigma[0]

    F = dense_forward_matrix(p)
    M = p.mass.M.toarray()
    L = p.prior.L.toarray()
    n = p.G.n
    dw = weighted_diag(w, d.noise, d.n_t)
    H_m = np.linalg.solve(M, F.T) @ (dw[:, None] * F)  # F* W F as an operator
    cov_pr = np.linalg.solve(L, M) @ np.linalg.solve(L, M) @ np.linalg.inv(M)  # L^{-1} M L^{-1}
    cov_pr_op = cov_pr @ M  # operator representation Gamma_pr = A^{-2}
    cov_post_op = np.linalg.inv(H_m + np.linalg.inv(cov_pr_op))
    theta_post = cov_post_op @ np.linalg.solve(M, F.T @ (dw * y_obs))
    c = theta_post @ (L @ np.linalg.solve(M, L @ theta_post))
    logdet_ratio = np.linalg.slogdet(cov_post_op)[1] - np.linalg.slogdet(cov_pr_op)[1]
    kl_ref = 0.5 * (-logdet_ratio - n + np.trace(np.linalg.solve(cov_pr_op, cov_post_op)) + c)

    kl = d.kl_estimate(w, y_obs, "dense", tol=1e-12)
    assert kl == pytest.approx(kl_ref, rel=1e-8)


def test_kl_eig_truncation_bound(small_design):
    """Deterministic KL truncation error <= (logdet tail + trace tail)/2."""
    ref = small_design.dense_reference()
    w = np.ones(small_design.n_s)
    lam = ref.evaluate(w)[2]
    theta0 = np.zeros(small_design.G.n)
    y0 = np.zeros(small_design.G.n_y)
    kl_true = small_design.kl_estimate(w, y0, "dense", theta_post=theta0)
    for k in (3, 8, 15):
        kl_k = small_design.kl_estimate(w, y0, "eig", k=k, theta_post=theta0)
        split = SpectrumSplit.from_spectrum(lam, k)
        assert abs(kl_true - kl_k) <= error_bounds(split, None, "kl_eig") + 1e-12


def test_kl_rand_bound_monte_carlo(small_design):
    """Mean randomized KL error sits below the expectation bound (c cancels)."""
    ref = small_design.dense_reference()
    w = np.ones(small_design.n_s)
    lam = ref.evaluate(w)[2]
    k = 8
    cfg = SketchConfig(k=k, p=5, q=1)
    split = SpectrumSplit.from_spectrum(lam, k)
    bound = error_bounds(split, cfg, "kl_rand")
    theta0 = np.zeros(small_design.G.n)
    kl_true = small_design.kl_estimate(w, np.zeros(small_design.G.n_y), "dense", theta_post=theta0)
    errs = np.empty(60)
    for s in range(60):
        kl_hat = small_design.kl_estimate(
            w,
            np.zeros(small_design.G.n_y),
            "rand",
            cfg=SketchConfig(k=k, p=5, q=1, seed=100 + s),
            theta_post=theta0,
        )
        errs[s] = abs(kl_true - kl_hat)
    assert errs.mean() <= bound
    c = split.gap_ratio ** (2 * cfg.q - 1) * cge_constant(k, 5, split.n)
    assert errs.mean() <= (1.0 + c) * np.sum(split.lam2)


@pytest.mark.parametrize("method", ["eig", "rand", "dense", "frozen"])
def test_estimator_matches_kernels_bit_for_bit(small_design, method):
    """Each estimator's objective is its kernel's J; its spectrum is the one
    behind J, and kl_estimate is kl_divergence of that spectrum."""
    d = fresh_design(small_design)
    cfg = SketchConfig(k=8, p=3, q=1, seed=4)
    frozen = d.build_frozen(10)
    params = {"eig": {"k": 6}, "rand": {"cfg": cfg}, "dense": {}, "frozen": {"frozen": frozen}}[method]
    kernel = {
        "eig": lambda w: d.objective_grad_eig(w, 6)[0],
        "rand": lambda w: d.objective_grad_rand(w, cfg)[0],  # a fresh sketch
        "dense": lambda w: d.dense_reference().evaluate(w)[0],
        "frozen": lambda w: d.objective_grad_frozen(w, frozen)[0],
    }[method]
    est = d.estimator(method, **params)
    assert est.name == method
    rng = np.random.default_rng(30)
    w = rng.uniform(0.1, 1.0, d.n_s)
    J = kernel(w)
    assert est.objective(w) == J
    assert est.evaluate(w)[0] == J
    if method == "frozen":
        return
    lam = est.spectrum(w)
    assert float(np.sum(np.log1p(lam))) == J
    theta = rng.standard_normal(d.G.n)
    kl = d.kl_estimate(w, np.zeros(d.G.n_y), method, theta_post=theta, **params)
    assert kl == kl_divergence(lam, d.G.prior.weighted_norm_sq(theta))


def test_estimator_dispatch_refusals(small_design):
    """An unknown name, a missing parameter and frozen's spectrum are config
    errors, at no solve; the frozen factory runs only for "frozen"."""
    d = small_design
    w = np.ones(d.n_s)
    y, theta = np.zeros(d.G.n_y), np.zeros(d.G.n)
    factor = d.build_frozen(5)
    with count_solves() as c:
        for method in ("bogus", "exact_dense"):
            with pytest.raises(ConfigError, match="unknown estimator method"):
                d.estimator(method)
            with pytest.raises(ConfigError, match="unknown estimator method"):
                d.kl_estimate(w, y, method, theta_post=theta)
        for method, needs in (("eig", "needs k"), ("rand", "needs a SketchConfig"), ("frozen", "needs a factor")):
            with pytest.raises(ConfigError, match=needs):
                d.estimator(method)
            with pytest.raises(ConfigError, match=needs):
                d.kl_estimate(w, y, method, theta_post=theta)
        with pytest.raises(ConfigError, match="no KL form"):
            d.estimator("frozen", frozen=factor).spectrum(w)
    assert c.delta.total == 0
    built = []
    d.estimator("eig", k=3, frozen=lambda: built.append(1))
    assert built == []


def test_rand_sketch_shared_by_J_spectrum_and_kl(small_design):
    """J, spectrum and KL of one (w, cfg) share one sketch; (J, grad) always
    pays its full l(q+2) / l(q+1) solves."""
    d = fresh_design(small_design)
    cfg = SketchConfig(k=8, p=3, q=1, seed=5)
    est = d.estimator("rand", cfg=cfg)
    w = np.random.default_rng(31).uniform(0.2, 1.0, d.n_s)
    with count_solves() as c:
        lam = est.spectrum(w)
    assert (c.delta.forward, c.delta.adjoint) == (cfg.l * (cfg.q + 1),) * 2
    with count_solves() as c:
        J = est.objective(w)
        kl = d.kl_estimate(w, np.zeros(d.G.n_y), "rand", cfg=cfg, theta_post=np.zeros(d.G.n))
        assert J == d.objective_rand(w, cfg)
    assert c.delta.total == 0
    assert kl == kl_divergence(lam)
    for _ in range(2):
        with count_solves() as c:
            J_g, _ = est.evaluate(w)
        assert (c.delta.forward, c.delta.adjoint) == (cfg.l * (cfg.q + 2), cfg.l * (cfg.q + 1))
        assert J_g == J


def test_info_gain_monotone_in_weights(small_design):
    ref = small_design.dense_reference()
    rng = np.random.default_rng(13)
    w = rng.uniform(0.1, 0.7, small_design.n_s)
    J0 = ref.evaluate(w)[0]
    for j in range(small_design.n_s):
        w2 = w.copy()
        w2[j] = min(1.0, w2[j] + 0.25)
        assert ref.evaluate(w2)[0] >= J0 - 1e-10


def test_dense_reference_zero_design(small_design):
    """At w = 0 no row is active: J = 0, the gradient is z, the spectrum and the MAP norm are 0."""
    ref = small_design.dense_reference()
    w = np.zeros(small_design.n_s)
    J, grad, lam = ref.evaluate(w)
    assert J == 0.0
    assert np.allclose(grad, small_design.z, rtol=1e-8)
    assert np.array_equal(lam, np.zeros(small_design.G.n))
    assert ref.map_norm_sq(w, np.random.default_rng(5).standard_normal(small_design.G.n_y)) == 0.0


@pytest.mark.parametrize("n_obs", [50, 112], ids=["short", "long"])
def test_dense_map_norm_refuses_y_obs_of_wrong_length(desk_design, n_obs):
    """A direct DenseEstimator.map_norm_sq call checks y_obs's length: a long one is not
    read in part, a short one is no IndexError.  Both are a ConfigError at 0 solves."""
    est, w = desk_design.estimator("dense"), np.ones(desk_design.n_s)
    with count_solves() as c, pytest.raises(ConfigError, match="y_obs has wrong length"):
        est.map_norm_sq(w, np.ones(n_obs))
    assert c.delta.total == 0


def test_precompute_z_refuses_another_n_t_before_any_solve(desk_design):
    """An n_t that is not the map's is a ConfigError before the z step's sweep, not a
    reshape error after it."""
    d = desk_design
    with count_solves() as c, pytest.raises(ConfigError, match="observes 3 times"):
        precompute_z(d.G, d.noise, 5)
    assert c.delta.total == 0


@pytest.mark.parametrize("case", ["small", "rows_above_n"])
def test_dense_reference_binary_design_matches_dense_route(small_design, case):
    """On a binary design with inactive sensors the exact core agrees with the dense route:
    J = log det(I + H), every gradient entry tr((I + H)^{-1} dH/dw_j), the inactive sensors'
    too, the spectrum of H and the norm of the normal equations' MAP point.  The second case
    has more active rows (15) than n (12), so the spectrum is cut to n."""
    d = small_design if case == "small" else synthetic_design(12, 8, 3, 2.0 ** -np.arange(12.0), seed=3)
    w = np.isin(np.arange(d.n_s), [0, 2, 3, 5, 7]).astype(float)
    ref = d.dense_reference()
    G, H = dense_G(d), dense_hessian(d, w)
    A = np.eye(d.G.n) + H
    J, grad, lam = ref.evaluate(w)
    assert J == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-12)
    rows = np.einsum("rn,nr->r", G, np.linalg.solve(A, G.T))  # g_r^T (I + H)^{-1} g_r
    grad_ref = sensor_blocks(rows, d.n_s, d.n_t).sum(axis=0) / d.noise.sigma**2
    assert np.all(grad_ref[w == 0] > 0)
    assert np.allclose(grad, grad_ref, rtol=1e-10, atol=0)
    assert np.allclose(lam, np.clip(np.linalg.eigvalsh(H)[::-1], 0, None), rtol=0, atol=1e-12 * lam[0])
    assert np.array_equal(ref.spectrum(w), lam)
    y = np.random.default_rng(6).standard_normal(d.G.n_y)
    x = np.linalg.solve(A, G.T @ (weighted_diag(w, d.noise, d.n_t) * y))
    assert ref.map_norm_sq(w, y) == pytest.approx(x @ x, rel=1e-10)


def count_decompositions(monkeypatch):
    """The names of the numpy/scipy decompositions called from here on, in call order."""
    import scipy.linalg as sla

    calls = []

    def counted(real, name):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "svd"), (np.linalg, "cholesky"),
                         (sla, "cholesky"), (sla, "cho_factor")):
        monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    return calls


def test_dense_reference_one_decomposition_per_design(small_design, monkeypatch):
    """objective, kl_estimate(..., "dense") and evaluate on one w share one eigh and no other
    factorization; a new w runs one more, and the reference holds only the last design."""
    d = DesignProblem(small_design.G, small_design.noise)
    d.ensure_z()
    calls = count_decompositions(monkeypatch)
    rng = np.random.default_rng(7)
    w, w2 = rng.uniform(0.1, 1.0, d.n_s), rng.uniform(0.1, 1.0, d.n_s)
    y = rng.standard_normal(d.G.n_y)
    est = d.estimator("dense")
    est.objective(w)
    d.kl_estimate(w, y, "dense")
    est.evaluate(w)
    assert calls == ["eigh"]
    est.evaluate(w2)
    est.evaluate(w)
    assert calls == ["eigh"] * 3


def test_eig_one_svd_per_design_for_every_reader(small_design, monkeypatch):
    """On one w, objective_grad_eig at k1, objective_eig at k2, kl_estimate(..., "eig") and
    map_estimate share one SVD of the held factor and no other decomposition; a new w runs
    one more."""
    d = fresh_design(small_design)
    calls = count_decompositions(monkeypatch)
    rng = np.random.default_rng(8)
    w, w2 = rng.uniform(0.1, 1.0, d.n_s), rng.uniform(0.1, 1.0, d.n_s)
    y = rng.standard_normal(d.G.n_y) * d.noise.sigma[0]
    d.objective_grad_eig(w, 6)
    d.objective_eig(w, 11)
    d.kl_estimate(w, y, "eig", k=9)
    rep = map_estimate(d, w, y)
    assert calls == ["svd"] and rep.iterations == 0
    d.objective_grad_eig(w2, 6)
    map_estimate(d, w2, y)
    assert calls == ["svd"] * 2


def test_dense_reference_accuracy_at_high_lambda(small_problem):
    """The exact core (eigh of S_a C_aa S_a, the gradient by subtraction) against a 40-digit
    evaluation of the same G^T, J = log det(I + S C S) and the gradient from
    diag(C - C S (I + S C S)^{-1} S C), at sigma = rel * peak for lam_max from 2e3 to 1.8e12,
    with 3 sensors off and 2 at weight 0.3: J within 1e-12 and the gradient within 1e-10,
    both relative to the reference's largest magnitude."""
    import mpmath as mp

    p = small_problem
    peak = float(np.max(np.abs(p.forward.apply(p.theta_true))))
    n_s, n_t = p.obs.n_s, p.obs.n_t
    Gt = p.G.sensor_adjoints(np.arange(n_s))
    w = np.ones(n_s)
    w[[1, 4, 7]] = 0.0
    w[[2, 6]] = 0.3
    lam_max = []
    with mp.workdps(40):
        Gt_mp = mp.matrix(Gt.tolist())
        C = Gt_mp.T * Gt_mp
        n_y = C.rows
        for rel in (3.0, 0.05, 1e-3, 1e-4):
            d = DesignProblem(p.G, NoiseModel(np.full(n_s, rel * peak)))
            J, g, lam = d.dense_reference().evaluate(w)
            lam_max.append(lam[0])
            sig_sq = [mp.mpf(float(sig)) ** 2 for sig in d.noise.sigma]
            S = mp.diag([mp.sqrt(mp.mpf(float(w[i % n_s])) / sig_sq[i % n_s]) for i in range(n_y)])
            CS = C * S
            A = mp.eye(n_y) + S * CS
            J_ref = float(mp.log(mp.det(A)))
            P = CS * mp.inverse(A) * CS.T
            g_ref = np.array([float(sum(C[i, i] - P[i, i] for i in range(j, n_y, n_s)) / sig_sq[j]) for j in range(n_s)])
            assert abs(J - J_ref) <= 1e-12 * abs(J_ref), rel
            assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref)), rel
    assert 1e3 < lam_max[0] < 1e4 and 1e12 < lam_max[-1] < 1e13


def test_dense_gradient_matches_finite_differences(small_design):
    ref = small_design.dense_reference()
    rng = np.random.default_rng(14)
    h = 1e-5
    for _ in range(3):
        w = rng.uniform(0.1, 0.9, small_design.n_s)
        _, grad, _ = ref.evaluate(w)
        for j in range(0, small_design.n_s, 4):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (ref.evaluate(wp)[0] - ref.evaluate(wm)[0]) / (2 * h)
            assert fd == pytest.approx(grad[j], rel=1e-5, abs=1e-12)


def test_dense_spectrum_rank_bound(small_design):
    ref = small_design.dense_reference()
    rng = np.random.default_rng(15)
    w = rng.uniform(0.0, 1.0, small_design.n_s)
    lam = ref.spectrum(w)
    assert np.sum(lam > 1e-10 * max(lam[0], 1.0)) <= small_design.rank_bound


def test_dense_reference_guard():
    """The exact reference's limit is n_y, whatever n is; it is refused before any solve."""
    d = synthetic_design(20, 301, 2, np.ones(20))  # n_y = 602, n = 20
    for build in (d.dense_reference, lambda: d.estimator("dense")):
        with count_solves() as c, pytest.raises(ConfigError, match="refused for n_y = 602 > 600"):
            build()
        assert c.delta.total == 0
    assert d._C is None


def test_dense_reference_leaves_no_cycle(small_design):
    """The dense reference keeps what it reads of its design, not the design, so a design
    with a dense reference and a dense estimator is freed, with its factors, C and held
    operators, as soon as its last reference goes: no cycle waits for a gc pass."""
    gc.disable()
    try:
        d = DesignProblem(small_design.G, small_design.noise)
        d.dense_reference()
        est = d.estimator("dense")
        est.evaluate(np.ones(d.n_s))
        alive = weakref.ref(d)
        del d, est
        assert alive() is None
    finally:
        gc.enable()


def test_nonnegative_objective_all_estimators(small_design):
    rng = np.random.default_rng(16)
    w = rng.uniform(0.0, 1.0, small_design.n_s)
    assert small_design.dense_reference().evaluate(w)[0] >= 0.0
    assert small_design.objective_eig(w, 5) >= 0.0
    assert small_design.objective_rand(w, SketchConfig(k=5, p=3, seed=1)) >= 0.0


def test_gradient_nonnegative_on_box(small_design):
    ref = small_design.dense_reference()
    rng = np.random.default_rng(17)
    for _ in range(5):
        w = rng.uniform(0.0, 1.0, small_design.n_s)
        assert np.all(ref.evaluate(w)[1] >= -1e-10)


def test_rand_solve_count_matches_table(small_design):
    """Randomized objective+gradient costs exactly l(q+2) forward, l(q+1) adjoint."""
    small_design.ensure_z()
    rng = np.random.default_rng(18)
    w = rng.uniform(0.2, 1.0, small_design.n_s)
    for k, p, q in [(5, 3, 1), (4, 2, 2), (10, 5, 1)]:
        cfg = SketchConfig(k=k, p=p, q=q, seed=19)
        with count_solves() as c:
            small_design.objective_grad_rand(w, cfg)
        assert c.delta.forward == cfg.l * (q + 2)
        assert c.delta.adjoint == cfg.l * (q + 1)


def test_synthetic_design_spectrum_construction():
    spectrum = 2.0 ** -np.arange(1, 22, dtype=float)
    d = synthetic_design(40, 7, 3, spectrum, seed=1)
    lam = d.dense_reference().evaluate(np.ones(7))[2]
    assert np.allclose(lam[:21], spectrum, rtol=1e-9, atol=1e-12)


@pytest.fixture(scope="module")
def nx32_problem():
    """The desk sensor layout at nx = 32: n = 1,089 > DENSE_GUARD, n_y = 105."""
    from oed_dopt.problem import build_problem

    return build_problem(
        make_config(
            mesh={"nx": 32},
            pde={"kappa": 0.05, "T": 2.0, "n_steps": 20},
            sensors={"grid": [7, 5], "margin": [0.2, 0.3]},
            noise={"pct": 0.3},
        )
    )


def test_exact_core_past_dense_n_limit(nx32_problem):
    """At nx = 32 (n = 1,089 > DENSE_GUARD) the exact reference, which needs only
    n_y = 105 <= DENSE_GUARD, agrees with three independent routes: the full-rank
    frozen SVD of G, Eig-k at the rank of a 16-sensor binary design, and MAP CG."""
    from oed_dopt.sketch import DENSE_GUARD

    problem = nx32_problem
    d = problem.design
    assert d.G.n == 1089 > DENSE_GUARD and d.G.n_y == 105
    ref = d.dense_reference()
    rng = np.random.default_rng(32)

    w = rng.uniform(0.1, 1.0, d.n_s)
    J, g, _ = ref.evaluate(w)
    J_f, g_f = d.objective_grad_frozen(w, frozen_from_dense(dense_G(d), d.rank_bound))
    assert J_f == pytest.approx(J, rel=1e-10)
    assert np.linalg.norm(g_f - g) <= 1e-10 * np.linalg.norm(g)

    wb = np.zeros(d.n_s)
    wb[rng.choice(d.n_s, size=16, replace=False)] = 1.0
    assert d.objective_eig(wb, d.n_t * 16) == pytest.approx(ref.evaluate(wb)[0], rel=1e-8)

    y_obs, _ = problem.synthesize()
    theta = map_estimate(d, w, y_obs, tol=1e-10).theta_post
    assert ref.map_norm_sq(w, y_obs) == pytest.approx(d.G.prior.weighted_norm_sq(theta), rel=1e-8)


def test_eig_k_at_nx32_against_exact_core(nx32_problem):
    """Eig-k (k = 40) on a 16-sensor binary design at nx = 32 (r = 48) takes the factored
    branch: exactly k forward and r adjoint solves.  Its top-k spectrum matches the exact
    core's to rtol 1e-8 above roundoff (the spectrum spans 17 decades, and both sides
    hold each eigenvalue to about eps * lam_max), its J error is within the truncation
    oracle plus the residual check's k * rtol * lam_max and equals the discarded tail,
    and the MAP point comes from the held factor: 0 solves, 0 CG iterations."""

    d, k, rtol = nx32_problem.design, 40, 1e-8
    ref = d.dense_reference()
    w = np.zeros(d.n_s)
    w[np.random.default_rng(320).choice(d.n_s, size=16, replace=False)] = 1.0
    r = d.n_t * 16
    with count_solves() as c:
        J, _ = d.objective_grad_eig(w, k)
    assert (c.delta.forward, c.delta.adjoint) == (k, r) == (40, 48)
    J_ref, _, lam_ref = ref.evaluate(w)
    lam = d.estimator("eig", k=k).spectrum(w)
    assert np.allclose(lam, lam_ref[:k], rtol=rtol, atol=1e-12 * lam_ref[0])
    tail = error_bounds(SpectrumSplit.from_spectrum(lam_ref, k), None, "frozen")  # sum of log(1 + lam_i), i > k
    assert abs(J_ref - J) <= tail + k * rtol * lam_ref[0]
    assert abs(J_ref - J) == pytest.approx(tail, rel=1e-8, abs=1e-10)

    y_obs, _ = nx32_problem.synthesize()
    with count_solves() as c:
        rep = map_estimate(d, w, y_obs)
    assert (c.delta.forward, c.delta.adjoint, rep.iterations) == (0, 0, 0)
    assert d.G.prior.weighted_norm_sq(rep.theta_post) == pytest.approx(ref.map_norm_sq(w, y_obs), rel=1e-8)


def test_mesh_eig_shape_costs_and_bounds(nx32_problem):
    """The benchmark's mesh-eig shape at nx = 32: 16 of 35 sensors, k = 40, r = 48.
    (J, grad) costs exactly k forward and r adjoint solves; the MAP point and KL with a
    given MAP point then cost none.  J lies within the "frozen" tail bound of the exact
    core and each gradient entry within its "grad_eig_component" bound; at k = r the
    factor's spectrum is the whole spectrum and J matches the exact core to 1e-10."""

    d = DesignProblem(nx32_problem.design.G, nx32_problem.design.noise)
    d.ensure_z()
    ref = d.dense_reference()
    k = 40
    w = np.zeros(d.n_s)
    w[np.random.default_rng(321).choice(d.n_s, size=16, replace=False)] = 1.0
    r = d.n_t * 16
    y_obs, _ = nx32_problem.synthesize()
    with count_solves() as c:
        J, g = d.objective_grad_eig(w, k)
    assert (c.delta.forward, c.delta.adjoint) == (k, r) == (40, 48)
    with count_solves() as c:
        rep = map_estimate(d, w, y_obs)
        kl = d.kl_estimate(w, y_obs, "eig", k=k, theta_post=rep.theta_post)
    assert (c.delta.forward, c.delta.adjoint, rep.iterations) == (0, 0, 0)

    J_ref, g_ref, lam_ref = ref.evaluate(w)
    split = SpectrumSplit.from_spectrum(lam_ref, k)
    assert abs(J_ref - J) <= error_bounds(split, None, "frozen") + k * 1e-8 * lam_ref[0]
    kl_ref = d.kl_estimate(w, y_obs, "dense", theta_post=rep.theta_post)
    assert abs(kl_ref - kl) <= error_bounds(split, None, "kl_eig") + k * 1e-8 * lam_ref[0]
    z_norms = sensor_z_norms(d)
    for j in range(d.n_s):
        bound = error_bounds(split, None, "grad_eig_component", z_norm=z_norms[j])
        assert abs(g_ref[j] - g[j]) <= bound + 1e-10 * np.abs(g_ref).max()

    assert d.objective_eig(w, r) == pytest.approx(J_ref, rel=1e-10)


def test_z_step_peak_is_one_gt_and_a_few_panels():
    """At nx = 64 (n = 4,225, n_y = 105) the traced peak of the z step stays under 1.4 times the
    8 n n_y bytes of G^T: the sweep marches into its one output and whitens it in column panels
    (measured 1.23x; 2.23x when the sweep copied each gap's block and whitened each time whole)."""
    design = build_problem(
        make_config(
            mesh={"nx": 64},
            pde={"kappa": 0.05, "T": 2.0, "n_steps": 20},
            sensors={"grid": [7, 5], "margin": [0.2, 0.3]},
        )
    ).design  # the noise scale spends its one forward solve here, outside the trace
    tracemalloc.start()
    try:
        design.ensure_z()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * 8 * design.G.n * design.G.n_y


@pytest.mark.parametrize("which", ["desk", "nx32"])
def test_z_is_read_off_the_diagonal_of_C(request, which):
    """z is sigma^-2 times each sensor's share of diag(C), bit for bit, and agrees to 1e-14
    relative with its definition: the squared norms of sensor j's columns of G^T."""
    d = request.getfixturevalue("desk_design") if which == "desk" else request.getfixturevalue("nx32_problem").design
    assert np.array_equal(d.z, sensor_blocks(np.diag(d.C), d.n_s, d.n_t).sum(axis=0) / d.noise.sigma**2)
    Gt = d.G.sensor_adjoints(np.arange(d.n_s))
    z_cols = sensor_blocks(np.einsum("ny,ny->y", Gt, Gt), d.n_s, d.n_t).sum(axis=0) / d.noise.sigma**2
    assert np.max(np.abs(d.z - z_cols) / z_cols) <= 1e-14


def test_rand_ladder_at_nx32_within_expectation_bounds(nx32_problem):
    """At nx = 32 (n = 1,089) and w = 0.5, the randomized estimator (k=40 p=5 q=1) over 5 seeds
    has a mean J error within the "logdet_rand" bound and a mean gradient-norm error within
    the "grad_norm_rand" bound of the exact core's spectrum.  That bound reads 1.39e7 here, so
    the gradient error also stays under 1e-6, about 3x its measured 3.45e-7 (||grad|| 7.30)."""
    d = nx32_problem.design
    w = np.full(d.n_s, 0.5)
    J_ref, g_ref, lam = d.dense_reference().evaluate(w)
    cfg = SketchConfig(k=40, p=5, q=1)
    split = SpectrumSplit.from_spectrum(lam, cfg.k)
    e_J, e_grad = [], []
    for seed in range(5):
        J, g = d.estimator("rand", cfg=SketchConfig(k=40, p=5, q=1, seed=seed)).evaluate(w)
        e_J.append(abs(J_ref - J))
        e_grad.append(np.linalg.norm(g_ref - g))
    assert np.mean(e_J) <= error_bounds(split, cfg, "logdet_rand")
    assert np.mean(e_grad) <= error_bounds(split, cfg, "grad_norm_rand", z_norms=sensor_z_norms(d))
    assert np.mean(e_grad) <= 1e-6


def test_frozen_ladder_at_nx32_within_truncation_bound(nx32_problem):
    """At nx = 32 the frozen factor of build_frozen(45) gives 0 <= J - J_froz <= the "frozen"
    bound on 20 random designs; the discarded part is that of eig(C) / sigma^2, the squared
    singular values of the noise-whitened G (one sigma for every sensor)."""
    d = nx32_problem.design
    sigma = d.noise.sigma[0]
    assert np.all(d.noise.sigma == sigma)
    k_f = 45
    frozen = d.build_frozen(k_f)
    bound = error_bounds(SpectrumSplit.from_spectrum(np.linalg.eigvalsh(d.C) / sigma**2, k_f), None, "frozen")
    ref = d.dense_reference()
    rng = np.random.default_rng(33)
    for _ in range(20):
        w = rng.uniform(0.0, 1.0, d.n_s)
        gap = ref.evaluate(w)[0] - d.objective_grad_frozen(w, frozen)[0]
        assert -1e-10 <= gap <= bound + 1e-10
