"""Prior operator, whitened forward map, norms, and prior sampling."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import dense_G_matrix, dense_prior_sqrt, make_config
from oed_dopt.config import ExperimentConfig
from oed_dopt.errors import ConfigError
from oed_dopt.fem import MassFactor, assemble, build_mesh
from oed_dopt.prior import PriorOperator
from oed_dopt.problem import build_problem


@pytest.fixture(scope="module")
def tiny_default_prior():
    """nx=4 problem with the reference prior coefficients alpha=2e-3, beta=0.1."""
    cfg = make_config(
        mesh={"nx": 4},
        pde={"kappa": 0.05, "T": 1.0, "n_steps": 5},
        sensors={"grid": [2, 2], "margin": [0.25, 0.25]},
        obs={"times": [0.4, 1.0]},
        prior={"alpha": 2e-3, "beta": 0.1},
    )
    return build_problem(cfg)


def _prior_with(alpha, beta, nx=4):
    ops = assemble(build_mesh(nx))
    mass = MassFactor(ops.M, "lumped")
    return PriorOperator(ops, mass, alpha, beta)


def test_identity_prior_when_L_equals_M():
    prior = _prior_with(0.0, 1.0)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(prior.L.shape[0])
    assert np.allclose(prior.solve_L(prior.mass.M @ v), v, atol=1e-12)


def test_sqrt_composition_equals_covariance():
    prior = _prior_with(3e-3, 0.2)
    L = prior.L.toarray()
    M = prior.mass.M.toarray()
    cov = np.linalg.solve(L, M) @ np.linalg.solve(L, M)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(prior.L.shape[0])
    twice = prior.solve_L(prior.mass.M @ prior.solve_L(prior.mass.M @ v))
    assert np.allclose(twice, cov @ v, rtol=1e-10)


def test_sqrt_matches_dense_oracle(tiny_default_prior):
    S = dense_prior_sqrt(tiny_default_prior)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(tiny_default_prior.G.n)
    prior = tiny_default_prior.prior
    assert np.allclose(prior.solve_L(prior.mass.M @ v), S @ v, rtol=1e-10)


def test_invalid_coefficients_rejected():
    with pytest.raises(ConfigError):
        _prior_with(-1e-3, 0.1)
    with pytest.raises(ConfigError):
        _prior_with(1e-3, 0.0)


def test_G_transpose_identity(small_problem):
    G = small_problem.G
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.standard_normal(G.n)
        y = rng.standard_normal(G.n_y)
        lhs = G.apply(x) @ y
        rhs = x @ G.apply_transpose(y)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)


def test_G_zero_maps_to_zero(small_problem):
    assert np.allclose(small_problem.G.apply(np.zeros(small_problem.G.n)), 0.0)
    with pytest.raises(ConfigError):
        small_problem.G.apply(np.zeros(small_problem.G.n + 1))


def test_G_matches_independent_dense_oracle(tiny_default_prior):
    Gd = dense_G_matrix(tiny_default_prior)  # independent numpy construction
    G = tiny_default_prior.G
    Gm = G.apply_transpose(np.eye(G.n_y)).T  # matrix-free probes
    assert np.allclose(Gd, Gm, rtol=1e-9, atol=1e-12)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(tiny_default_prior.G.n)
    assert np.allclose(tiny_default_prior.G.apply(x), Gd @ x, rtol=1e-9)


def test_prior_weighted_norm_properties(tiny_default_prior):
    prior = tiny_default_prior.prior
    assert prior.weighted_norm_sq(np.zeros(prior.L.shape[0])) == 0.0
    rng = np.random.default_rng(5)
    theta = rng.standard_normal(prior.L.shape[0])
    # dense oracle: theta^T L M^{-1} L theta
    L = prior.L.toarray()
    M = prior.mass.M.toarray()
    ref = theta @ (L @ np.linalg.solve(M, L @ theta))
    assert prior.weighted_norm_sq(theta) == pytest.approx(ref, rel=1e-10)


def test_prior_weighted_norm_identity_prior():
    prior = _prior_with(0.0, 1.0)
    rng = np.random.default_rng(6)
    theta = rng.standard_normal(prior.L.shape[0])
    assert prior.weighted_norm_sq(theta) == pytest.approx(theta @ (prior.mass.M @ theta), rel=1e-12)


def _whitened_map_nx3():
    """Whitened map of an nx=3 problem with the prior of ``_prior_with(2e-3, 0.1, nx=3)``;
    ``field_from_whitened`` maps standard-normal xi to a prior sample L^{-1} R xi."""
    cfg = make_config(mesh={"nx": 3}, sensors={"grid": [2, 2], "margin": [0.25, 0.25]}, prior={"alpha": 2e-3, "beta": 0.1})
    return build_problem(cfg).G


def test_sample_covariance_matches_dense_oracle():
    G = _whitened_map_nx3()
    prior, n = G.prior, G.n
    L = prior.L.toarray()
    M = prior.mass.M.toarray()
    C = np.linalg.solve(L, np.linalg.solve(L, M).T)  # L^{-1} M L^{-1}
    rng = np.random.default_rng(7)
    N = 50_000
    samples = G.field_from_whitened(rng.standard_normal((n, N)))
    emp = (samples @ samples.T) / N
    # CLT band: Var(x_i x_j) = C_ii C_jj + C_ij^2 for Gaussians
    se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / N)
    assert np.all(np.abs(emp - C) <= 5.0 * se)


def test_sample_whitened_norm_chi_square():
    G = _whitened_map_nx3()
    prior, n = G.prior, G.n
    rng = np.random.default_rng(8)
    N = 20_000
    xs = G.field_from_whitened(rng.standard_normal((n, N)))
    vals = np.array([prior.weighted_norm_sq(xs[:, i]) for i in range(N)])
    se = np.sqrt(2.0 * n / N)
    assert abs(vals.mean() - n) <= 5.0 * se


def test_scale_equivariance_quarter_ratio():
    """With alpha=0, scaling beta by 4 scales ||G x|| by exactly 1/4."""
    cfg1 = make_config(
        mesh={"nx": 4},
        pde={"kappa": 0.05, "T": 1.0, "n_steps": 5},
        sensors={"grid": [2, 2], "margin": [0.25, 0.25]},
        obs={"times": [0.4, 1.0]},
        prior={"alpha": 0.0, "beta": 0.05},
    )
    cfg4 = make_config(
        mesh={"nx": 4},
        pde={"kappa": 0.05, "T": 1.0, "n_steps": 5},
        sensors={"grid": [2, 2], "margin": [0.25, 0.25]},
        obs={"times": [0.4, 1.0]},
        prior={"alpha": 0.0, "beta": 0.2},
    )
    p1, p4 = build_problem(cfg1), build_problem(cfg4)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(p1.G.n)
    r = np.linalg.norm(p4.G.apply(x)) / np.linalg.norm(p1.G.apply(x))
    assert r == pytest.approx(0.25, rel=1e-10)


def test_singular_value_product_bound(tiny_default_prior):
    """sigma_max(G) <= sigma_max(F) * sigma_max(L^{-1} R)."""
    from conftest import dense_forward_matrix

    F = dense_forward_matrix(tiny_default_prior)
    L = tiny_default_prior.prior.L.toarray()
    R = tiny_default_prior.mass.apply_R(np.eye(tiny_default_prior.G.n))
    P = np.linalg.solve(L, R)
    G = tiny_default_prior.G.apply_transpose(np.eye(tiny_default_prior.G.n_y)).T
    s_G = np.linalg.svd(G, compute_uv=False)[0]
    s_F = np.linalg.svd(F, compute_uv=False)[0]
    s_P = np.linalg.svd(P, compute_uv=False)[0]
    assert s_G <= s_F * s_P * (1 + 1e-12)


def test_GtG_positive_semidefinite(small_problem):
    G = small_problem.G
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = rng.standard_normal(G.n)
        gx = G.apply(x)
        assert x @ G.apply_transpose(gx) >= -1e-12 * (gx @ gx + 1.0)


def test_cholesky_mode_whitened_map_consistency():
    """G built with the consistent-mass Cholesky factor keeps the adjoint exact."""
    cfg = make_config(
        mesh={"nx": 4},
        mass={"mode": "cholesky"},
        pde={"kappa": 0.05, "T": 1.0, "n_steps": 5},
        sensors={"grid": [2, 2], "margin": [0.25, 0.25]},
        obs={"times": [0.4, 1.0]},
    )
    p = build_problem(cfg)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(p.G.n)
    y = rng.standard_normal(p.G.n_y)
    lhs = p.G.apply(x) @ y
    rhs = x @ p.G.apply_transpose(y)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)
    Gd = dense_G_matrix(p)
    assert np.allclose(p.G.apply(x), Gd @ x, rtol=1e-9)


@pytest.mark.parametrize("mode", ["lumped", "cholesky"])
def test_solve_Lt_matches_transposed_solve(desk_problem, mode):
    """One factor serves L^{-1} and L^{-T}: L is assembled exactly symmetric."""
    cfg = desk_problem.config.to_dict()
    cfg["mass"] = {"mode": mode}
    prior = build_problem(ExperimentConfig.from_dict(cfg)).prior
    assert (prior.L != prior.L.T).nnz == 0
    Lt = prior.L.T.tocsc()
    rng = np.random.default_rng(12)
    for B in (rng.standard_normal(prior.L.shape[0]), rng.standard_normal((prior.L.shape[0], 6))):
        ref = spla.spsolve(Lt, B)
        assert np.linalg.norm(prior.solve_Lt(B) - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(prior.solve_L(B) - ref) <= 1e-12 * np.linalg.norm(ref)
