"""MAP estimation, and the prior pointwise variance of the whitened map's field transform."""

import numpy as np
import pytest

from conftest import dense_G, dense_hessian, dense_theta_post
from oed_dopt import inverse
from oed_dopt.accounting import count_solves
from oed_dopt.config import ExperimentConfig
from oed_dopt.errors import ConfigError, ConvergenceError
from oed_dopt.inverse import map_estimate
from oed_dopt.oed import DesignProblem, NoiseModel, weighted_diag
from oed_dopt.problem import build_problem
from oed_dopt.sketch import SketchConfig


@pytest.fixture(scope="module")
def y_obs(small_design):
    rng = np.random.default_rng(0)
    return rng.standard_normal(small_design.G.n_y) * small_design.noise.sigma[0]


def fresh(d):
    """A DesignProblem over d's map that holds no Eig-k run."""
    return DesignProblem(d.G, d.noise)


def binary(n_s, active):
    return np.isin(np.arange(n_s), active).astype(float)


def test_map_zero_design_returns_prior_mean(small_design, y_obs):
    """w = 0 gives the prior mean at 0 iterations: 1 adjoint solve for b = 0 with no run
    held, and 0 solves after a w = 0 Eig-k run, which holds B^T's 0 columns."""
    d, w0 = fresh(small_design), np.zeros(small_design.n_s)
    for held in (False, True):
        if held:
            d.objective_grad_eig(w0, 5)
        with count_solves() as c:
            rep = map_estimate(d, w0, y_obs)
        assert np.allclose(rep.theta_post, 0.0)
        assert rep.iterations == 0
        assert (c.delta.forward, c.delta.adjoint) == (0, 0 if held else 1)


def test_map_matches_dense_solve(small_design, y_obs):
    rng = np.random.default_rng(1)
    w = rng.uniform(0.3, 1.0, small_design.n_s)
    rep = map_estimate(small_design, w, y_obs, tol=1e-12)
    theta_ref = dense_theta_post(small_design, w, y_obs)
    assert np.linalg.norm(rep.theta_post - theta_ref) <= 1e-8 * np.linalg.norm(theta_ref)
    assert rep.rel_residual <= 1e-12


def test_map_noise_scaling_shrinks_posterior(small_problem):
    """Scaling all sigma_j up drives the MAP point toward the prior mean."""
    peak = float(np.max(np.abs(small_problem.forward.apply(small_problem.theta_true))))
    rng = np.random.default_rng(2)
    y = rng.standard_normal(small_problem.G.n_y)
    w = np.ones(9)
    norms = []
    for scale in [1.0, 10.0, 100.0, 1000.0]:
        d = DesignProblem(small_problem.G, NoiseModel(np.full(9, scale * peak)))
        theta = dense_theta_post(d, w, y)
        norms.append(np.sqrt(theta @ (small_problem.mass.M @ theta)))
    assert np.all(np.diff(norms) < 0)


def test_map_iteration_cap_raises(small_design, y_obs, monkeypatch):
    monkeypatch.setattr(inverse, "MAX_CG_ITER", 2)
    with pytest.raises(ConvergenceError, match="after 2 iterations"):
        map_estimate(small_design, np.ones(small_design.n_s), y_obs, tol=1e-14)


def test_map_validation(small_design):
    with pytest.raises(ConfigError):
        map_estimate(small_design, np.ones(small_design.n_s), np.zeros(3))
    with pytest.raises(ConfigError):
        map_estimate(small_design, np.ones(small_design.n_s), np.zeros(small_design.G.n_y), tol=-1.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0])
def test_map_refuses_a_bad_tol_before_any_solve(desk_design, tol):
    """A tol that is not a finite number > 0 is a ConfigError at 0 solves; a NaN tol
    used to run CG past convergence into a ZeroDivisionError."""
    d, w, y = desk_design, np.ones(desk_design.n_s), np.ones(desk_design.G.n_y)
    with count_solves() as c, pytest.raises(ConfigError, match="tol"):
        map_estimate(d, w, y, tol=tol)
    assert c.delta.total == 0


@pytest.mark.parametrize("method", ["eig", "rand", "dense"])
@pytest.mark.parametrize("n_obs", [50, 112], ids=["short", "long"])
def test_kl_refuses_y_obs_of_wrong_length_before_any_solve(desk_design, method, n_obs):
    """kl_estimate checks y_obs's length as map_estimate does, before the estimator runs.
    Without it a long y_obs passes the dense path unread, a short one raises IndexError
    there, and the eig path spends its sensor sweep before map_estimate refuses it."""
    d, w, y = fresh(desk_design), np.ones(desk_design.n_s), np.ones(n_obs)
    with count_solves() as c, pytest.raises(ConfigError, match="y_obs has wrong length"):
        d.kl_estimate(w, y, method, k=10, cfg=SketchConfig(k=10, p=5, q=1))
    assert c.delta.total == 0


def test_map_breakdown_raises_convergence_error(small_design):
    """p^T A p that is not > 0 before the residual meets tol (here a NaN datum) is a
    breakdown: ConvergenceError at the first iteration, not 500 NaN iterations."""
    y = np.ones(small_design.G.n_y)
    y[3] = np.nan
    with count_solves() as c, pytest.raises(ConvergenceError):
        map_estimate(fresh(small_design), np.ones(small_design.n_s), y)
    assert (c.delta.forward, c.delta.adjoint) == (1, 2)


def test_cg_energy_error_monotone(small_design, y_obs):
    """The operator-energy-norm error is nonincreasing across CG iterates: a ladder of
    tolerances stops CG at increasing iteration counts, and each stop's iterate is
    x = R^{-1} L theta_post, read back from the returned MAP point."""
    w = np.full(small_design.n_s, 0.7)
    prior = small_design.G.prior
    A = np.eye(small_design.G.n) + dense_hessian(small_design, w)
    dw = weighted_diag(w, small_design.noise, small_design.n_t)
    b = dense_G(small_design).T @ (dw * y_obs)
    x_star = np.linalg.solve(A, b)
    stops = {}
    for tol in 10.0 ** -np.arange(1, 11):
        rep = map_estimate(fresh(small_design), w, y_obs, tol=tol)
        stops[rep.iterations] = prior.mass.solve_R(prior.L @ rep.theta_post)
    errors = [np.sqrt((x - x_star) @ (A @ (x - x_star))) for _, x in sorted(stops.items())]
    assert len(errors) >= 8  # a held Eig-k block for w would leave nothing to compare
    assert all(e2 <= e1 + 1e-9 * errors[0] for e1, e2 in zip(errors, errors[1:]))


def test_map_from_held_factor_costs_no_solve(small_design, y_obs):
    """After a factored Eig-k run the MAP point is Bt (I + Bt^T Bt)^{-1} S_a y_a from the
    held columns Bt of B^T: 0 forward + 0 adjoint solves, 0 iterations, exact to
    roundoff; J alone (no gradient) spends only the factor's r adjoint solves."""
    d, w = fresh(small_design), binary(small_design.n_s, [0, 4, 8])
    r = d.n_t * 3
    with count_solves() as eig_cost:
        d.objective_eig(w, 9)
    assert (eig_cost.delta.forward, eig_cost.delta.adjoint) == (0, r)
    with count_solves() as c:
        rep = map_estimate(d, w, y_obs)
    assert (c.delta.forward, c.delta.adjoint, rep.iterations) == (0, 0, 0)
    assert rep.rel_residual <= 1e-12
    ref = small_design.dense_reference()
    theta_ref = dense_theta_post(small_design, w, y_obs)
    assert np.linalg.norm(rep.theta_post - theta_ref) <= 1e-10 * np.linalg.norm(theta_ref)
    assert d.G.prior.weighted_norm_sq(rep.theta_post) == pytest.approx(ref.map_norm_sq(w, y_obs), rel=1e-10)


@pytest.mark.parametrize("case", ["blocked", "all_sensors"])
def test_map_warm_start_iterates_to_tol(desk_design, case):
    """From the held factor's start, CG iterates to a tol below its residual r0: fewer
    iterations than from zero, each a product with B^T's held columns at no solve, and the
    same answer; from zero it costs 1 adjoint solve and 1 forward + 1 adjoint per
    iteration.  The start is the MAP point from the held columns (16 sensors at k = 40,
    or all 35 at k = 10), so r0 is roundoff at no solve, and tol = r0 / 10."""
    rng = np.random.default_rng(7)
    d = fresh(desk_design)
    w = binary(d.n_s, rng.choice(d.n_s, 16, replace=False)) if case == "blocked" else rng.uniform(0.1, 1.0, d.n_s)
    y = rng.standard_normal(d.G.n_y) * d.noise.sigma[0]
    d.objective_grad_eig(w, 40 if case == "blocked" else 10)
    r0 = map_estimate(d, w, y, tol=1.0).rel_residual
    assert 0 < r0 <= 1e-12
    tol = r0 / 10
    with count_solves() as c_cold:
        cold = map_estimate(fresh(d), w, y, tol=tol)
    with count_solves() as c:
        rep = map_estimate(d, w, y, tol=tol)
    assert 1 <= rep.iterations < cold.iterations and rep.rel_residual <= tol
    assert (c.delta.forward, c.delta.adjoint) == (0, 0)
    assert (c_cold.delta.forward, c_cold.delta.adjoint) == (cold.iterations, cold.iterations + 1)
    theta_ref = dense_theta_post(desk_design, w, y)
    for theta in (rep.theta_post, cold.theta_post):
        assert np.linalg.norm(theta - theta_ref) <= 1e-8 * np.linalg.norm(theta_ref)


def test_map_ignores_a_block_held_for_other_weights(small_design, y_obs):
    """A run held for other weights, or for a w since changed in place, leaves the
    cold start: the same solves, iterations and bytes as a design that holds no run."""

    def solve(d, w):
        with count_solves() as c:
            rep = map_estimate(d, w, y_obs)
        return c.delta, rep.iterations, rep.theta_post

    d = fresh(small_design)
    w = binary(d.n_s, [0, 4, 8])
    d.objective_grad_eig(binary(d.n_s, [1, 3, 5]), 9)
    other = solve(d, w)
    d.objective_grad_eig(w, 9)
    w[2] = 1.0  # changed in place after the run
    in_place = solve(d, w)
    for got, cold in ((other, solve(fresh(d), binary(d.n_s, [0, 4, 8]))), (in_place, solve(fresh(d), w))):
        assert got[:2] == cold[:2] and got[1] > 0
        assert got[0].adjoint == got[0].forward + 1
        assert np.array_equal(got[2], cold[2])


def prior_variance(G) -> np.ndarray:
    """Nodal prior variance diag(L^{-1} M L^{-1}) = rowsum((L^{-1} R)^2), from the whitened
    map's field transform L^{-1} R on the identity."""
    X = G.field_from_whitened(np.eye(G.n))
    return np.sum(X * X, axis=1)


def test_prior_variance_matches_dense(small_problem):
    G = small_problem.G
    L = small_problem.prior.L.toarray()
    M = small_problem.mass.M.toarray()
    cov = np.linalg.solve(L, np.linalg.solve(L, M).T)
    assert np.allclose(prior_variance(G), np.diag(cov), rtol=1e-9)


@pytest.mark.parametrize("mode", ["lumped", "cholesky"])
@pytest.mark.parametrize("nx", [10, 20])
def test_prior_variance_matches_dense_R_formula(desk_problem, mode, nx):
    """The field transform through apply_R equals the dense-R formula."""
    cfg = desk_problem.config.to_dict()
    cfg["mesh"] = {"nx": nx}
    cfg["mass"] = {"mode": mode}
    G = build_problem(ExperimentConfig.from_dict(cfg)).G
    X = G.prior.solve_L(G.prior.mass.apply_R(np.eye(G.n)))
    ref = np.sum(X * X, axis=1)
    assert np.max(np.abs(prior_variance(G) - ref) / ref) <= 1e-12


def test_synthesize_invert_round_trip():
    """Inverting synthetic data at w=1 recovers a smoothed true state; the
    reconstruction error shrinks as the data noise shrinks."""
    from conftest import make_config
    from oed_dopt.problem import build_problem

    errors = []
    # prior marginal scale matched to the unit-amplitude true state
    for pct in (0.3, 0.1, 0.02):
        cfg = make_config(noise={"pct": pct}, prior={"alpha": 0.1, "beta": 5.0})
        p = build_problem(cfg)
        y_obs, _ = p.synthesize()
        rep = map_estimate(p.design, np.ones(p.design.n_s), y_obs, tol=1e-10)
        diff = rep.theta_post - p.theta_true
        M = p.mass.M
        rel = np.sqrt(diff @ (M @ diff)) / np.sqrt(p.theta_true @ (M @ p.theta_true))
        errors.append(rel)
    assert errors[0] < 1.0
    assert errors[0] > errors[1] > errors[2]


def test_kl_chain_whitened_vs_dense_paths(small_design, y_obs):
    """KL with the CG MAP equals KL with the dense-path MAP: the randomized estimator holds
    no factor, so its MAP norm runs CG at map_estimate's default tol, each iteration one
    forward and one adjoint solve past the sketch's l(q+1) forward solves."""
    w, cfg = np.full(small_design.n_s, 0.9), SketchConfig(k=27, p=5, q=1, seed=0)
    d = fresh(small_design)
    with count_solves() as c:
        kl_cg = d.kl_estimate(w, y_obs, "rand", cfg=cfg)
    assert c.delta.forward > cfg.l * (cfg.q + 1)
    theta_dense = dense_theta_post(small_design, w, y_obs)
    kl_direct = d.kl_estimate(w, y_obs, "rand", cfg=cfg, theta_post=theta_dense)
    assert kl_cg == pytest.approx(kl_direct, rel=1e-8)
