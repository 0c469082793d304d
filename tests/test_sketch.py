"""Subspace iteration, eigen-reconstruction, exact eigensolver, bound formulas."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import aslinearoperator

from conftest import random_psd
from oed_dopt.errors import ConfigError
from oed_dopt.sketch import (
    DENSE_GUARD,
    LowRankEig,
    SketchConfig,
    SpectrumSplit,
    cge_constant,
    error_bounds,
    exact_eigs,
    low_rank_eig,
    sketched_logdet,
    subspace_iteration,
)


def test_sketch_config_validation():
    with pytest.raises(ConfigError):
        SketchConfig(k=0)
    with pytest.raises(ConfigError):
        SketchConfig(k=3, q=0)
    assert SketchConfig(k=3, p=2).l == 5


def test_exact_capture_of_low_rank_diagonal():
    n = 40
    op = np.zeros((n, n))
    op[0, 0], op[1, 1], op[2, 2] = 3.0, 2.0, 1.0
    with pytest.warns(UserWarning, match="rank deficient"):
        Q, T = subspace_iteration(aslinearoperator(op), SketchConfig(k=3, p=2, q=1, seed=0))
    lam = np.sort(np.linalg.eigvalsh(T))[::-1]
    assert np.allclose(lam, [3.0, 2.0, 1.0, 0.0, 0.0], atol=1e-10)
    assert np.allclose(Q.T @ Q, np.eye(5), atol=1e-10)


def test_zero_operator_sketches_to_zero():
    op = np.zeros((20, 20))
    with pytest.warns(UserWarning, match="rank deficient"):
        _, T = subspace_iteration(aslinearoperator(op), SketchConfig(k=2, p=2, q=1, seed=1))
    assert np.allclose(T, 0.0)


def test_sketch_size_exceeding_dimension_rejected():
    with pytest.raises(ConfigError):
        subspace_iteration(aslinearoperator(np.eye(4)), SketchConfig(k=4, p=2))


def test_sketch_determinism_bit_for_bit():
    rng = np.random.default_rng(2)
    op = random_psd(30, rng)
    cfg = SketchConfig(k=5, p=3, q=2, seed=77)
    _, T1 = subspace_iteration(aslinearoperator(op), cfg)
    _, T2 = subspace_iteration(aslinearoperator(op), cfg)
    assert np.array_equal(T1, T2)
    _, T3 = subspace_iteration(aslinearoperator(op), SketchConfig(k=5, p=3, q=2, seed=78))
    assert not np.array_equal(T1, T3)


def test_interlacing_and_logdet_monotonicity():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = 50
        lam_true = np.sort(rng.uniform(0.0, 5.0, size=n))[::-1]
        op = random_psd(n, rng, decay=lam_true)
        _, T = subspace_iteration(aslinearoperator(op), SketchConfig(k=8, p=4, q=1, seed=trial))
        lam_T = np.sort(np.linalg.eigvalsh(T))[::-1]
        assert np.all(lam_T <= lam_true[: len(lam_T)] + 1e-9)
        assert sketched_logdet(T) <= np.sum(np.log1p(lam_true)) + 1e-9


def test_low_rank_eig_reconstruction_exact_case():
    n = 40
    op = np.diag(np.concatenate([[3.0, 2.0, 1.0], np.zeros(n - 3)]))
    with pytest.warns(UserWarning):
        Q, T = subspace_iteration(aslinearoperator(op), SketchConfig(k=3, p=2, q=1, seed=0))
    eig = low_rank_eig(Q, T)
    assert np.all(eig.lam >= 0)
    assert np.all(np.diff(eig.lam) <= 0)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(n)
    recon = eig.U @ (eig.lam * (eig.U.T @ x))
    assert np.linalg.norm(op @ x - recon) <= 1e-10 * np.linalg.norm(x)


def test_low_rank_eig_diagonal_T_and_clipping():
    Q = np.linalg.qr(np.random.default_rng(5).standard_normal((10, 3)))[0]
    T = np.diag([2.0, 1.0, -1e-14])
    eig = low_rank_eig(Q, T)
    assert eig.lam[-1] == 0.0
    # U columns match Q up to sign/permutation
    overlap = np.abs(eig.U.T @ Q)
    assert np.allclose(np.sort(overlap.max(axis=1)), 1.0, atol=1e-12)


class FactorOp:
    """A = B^T B of shape (n, n) that exact_eigs reads only through ``factor_t()``, which
    forms B^T once and records that as its shape, and ``factor_svd()``, whose thin SVD of
    B^T is also formed once; it has no way to apply A."""

    def __init__(self, B):
        self.B = B
        self.A = B.T @ B
        self.shape = self.A.shape
        self.applied = []
        self.held_factor = self.held_svd = None

    def factor_t(self):
        if self.held_factor is None:
            self.applied.append(self.B.T.shape)
            self.held_factor = self.B.T
        return self.held_factor

    def factor_svd(self):
        if self.held_svd is None:
            self.held_svd = np.linalg.svd(self.factor_t(), full_matrices=False)
        return self.held_svd


def low_rank_factor(n, r, rng):
    """B (r x n) of the rank-r PSD matrix B^T B with eigenvalues 2^-i, i < r."""
    Q = np.linalg.qr(rng.standard_normal((n, r)))[0]
    return (Q * 2.0 ** (-0.5 * np.arange(r, dtype=float))).T


def psd_factor(A):
    """B (n x n) with B^T B = A for a symmetric PSD matrix A."""
    lam, V = np.linalg.eigh(A)
    return (V * np.sqrt(np.clip(lam, 0.0, None))).T


def test_exact_eigs_small_diagonal():
    op = FactorOp(np.diag(np.sqrt([5.0, 4.0, 3.0, 2.0, 1.0])))
    eig = exact_eigs(op, 2)
    assert op.applied == [(5, 5)]
    assert np.allclose(eig.lam, [5.0, 4.0], atol=1e-12)


def test_exact_eigs_agrees_with_dense_oracle():
    """A full-rank factor (r = n = 200) at k = 7: the thin SVD of B^T, formed once, gives
    the dense eigensolve's top pairs, with residuals within 1e-8 of lam_max."""
    rng = np.random.default_rng(6)
    A = random_psd(200, rng, decay=np.sort(rng.uniform(0.1, 10.0, 200))[::-1])
    op = FactorOp(psd_factor(A))
    eig = exact_eigs(op, 7)
    assert op.applied == [(200, 200)]
    lam_ref = np.sort(np.linalg.eigvalsh(op.A))[::-1][:7]
    assert np.allclose(eig.lam, lam_ref, rtol=1e-8)
    res = np.linalg.norm(op.A @ eig.U - eig.U * eig.lam, axis=0)
    assert np.all(res <= 1e-8 * eig.lam[0])


def test_exact_eigs_full_spectrum_trace_identity():
    """k = n = 30: the factor's full spectrum sums to the trace."""
    rng = np.random.default_rng(7)
    op = FactorOp(psd_factor(random_psd(30, rng)))
    eig = exact_eigs(op, 30)
    assert op.applied == [(30, 30)]
    assert np.sum(eig.lam) == pytest.approx(np.trace(op.A), rel=1e-8)


def test_exact_eigs_zero_operator():
    """A zero operator gives lam = 0 exactly and an orthonormal U, at n = 25 and n = 200."""
    for n in (25, 200):
        op = FactorOp(np.zeros((n, n)))
        eig = exact_eigs(op, 3)
        assert op.applied == [(n, n)]
        assert np.array_equal(eig.lam, np.zeros(3))
        assert np.allclose(eig.U.T @ eig.U, np.eye(3), atol=1e-12)


def test_exact_eigs_bad_k():
    """k outside [1, n] is refused before B^T is formed."""
    for k in (0, 6):
        op = FactorOp(np.eye(5))
        with pytest.raises(ConfigError):
            exact_eigs(op, k)
        assert op.applied == []


def test_exact_eigs_k_near_n_takes_the_factor_at_any_n():
    """k = n - 1 at n = DENSE_GUARD + 1: one formation of B^T, no dense guard."""
    n = DENSE_GUARD + 1
    d = np.linspace(1.0, 2.0, n)
    op = FactorOp(np.diag(np.sqrt(d)))
    eig = exact_eigs(op, n - 1)
    assert op.applied == [(n, n)]
    assert np.allclose(eig.lam, d[::-1][: n - 1], rtol=1e-12)


def test_exact_eigs_blocked_branch_is_exact_and_silent():
    """r = 10 columns of B^T at k = 9: the thin SVD of the r columns, formed once, gives
    the pairs, and the residual check reads the same columns; no warning."""
    n, r, k = 200, 10, 9
    op = FactorOp(low_rank_factor(n, r, np.random.default_rng(8)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = exact_eigs(op, k)
    assert op.applied == [(n, r)]
    lam_ref = np.sort(np.linalg.eigvalsh(op.A))[::-1][:k]
    assert np.allclose(eig.lam, lam_ref, rtol=1e-8)
    res = np.linalg.norm(op.A @ eig.U - eig.U * eig.lam, axis=0)
    assert np.all(res <= 1e-8 * eig.lam[0])
    assert np.allclose(eig.U.T @ eig.U, np.eye(k), atol=1e-12)


def test_exact_eigs_k_above_rank_returns_the_r_pairs():
    """k = 14 > r = 10: the r pairs of the factor's SVD and no more, as at k = r; every k
    slices the one SVD held after the first call, with B^T formed once."""
    n, r, k = 200, 10, 14
    op = FactorOp(low_rank_factor(n, r, np.random.default_rng(8)))
    eig = exact_eigs(op, k)
    assert eig.U.shape == (n, r) and eig.lam.shape == (r,)
    assert np.allclose(eig.lam, np.sort(np.linalg.eigvalsh(op.A))[::-1][:r], rtol=1e-8)
    assert np.allclose(eig.U.T @ eig.U, np.eye(r), atol=1e-12)
    held = op.held_svd
    for k_new in (3, r, k):
        again = exact_eigs(op, k_new)
        assert np.array_equal(again.lam, eig.lam[:k_new]) and np.array_equal(again.U, eig.U[:, :k_new])
    assert op.held_svd is held and op.applied == [(n, r)]


def test_exact_eigs_zero_rank_bound_applies_nothing():
    """r = 0: the factor has no column, so there is no pair: an empty lam and U (n, 0)."""
    op = FactorOp(np.zeros((0, 30)))
    eig = exact_eigs(op, 4)
    assert op.applied == [(30, 0)]
    assert eig.lam.shape == (0,) and eig.U.shape == (30, 0)


def test_cge_requires_p_at_least_two():
    with pytest.raises(ConfigError):
        cge_constant(10, 1, 100)


def test_cge_against_high_precision_oracle():
    import mpmath as mp

    mp.mp.dps = 50

    def oracle(k, p, n):
        mu = mp.sqrt(n - k) + mp.sqrt(k + p)
        return (
            mp.e**2
            * (k + p)
            / (p + 1) ** 2
            * (1 / (2 * mp.pi * (p + 1))) ** (mp.mpf(2) / (p + 1))
            * (mu + mp.sqrt(2)) ** 2
            * mp.mpf(p + 1)
            / (p - 1)
        )

    for k, p, n in [(20, 5, 1018), (10, 2, 500), (3, 7, 64)]:
        assert cge_constant(k, p, n) == pytest.approx(float(oracle(k, p, n)), rel=1e-12)


def test_cge_decreasing_in_oversampling():
    values = [cge_constant(10, p, 500) for p in range(2, 21)]
    assert np.all(np.diff(values) < 0)


def test_error_bounds_zero_tail():
    split = SpectrumSplit(lam1=np.array([3.0, 2.0]), lam2=np.zeros(8), n=10)
    cfg = SketchConfig(k=2, p=3, q=1)
    for kind in ("kl_eig", "kl_rand", "logdet_rand", "frozen"):
        assert error_bounds(split, cfg, kind) == 0.0
    assert error_bounds(split, cfg, "grad_rand_component", z_norm=2.0) == 0.0
    assert error_bounds(split, cfg, "grad_norm_eig", z_norms=np.ones(4)) == 0.0


def test_kl_rand_bound_below_simplified_form():
    rng = np.random.default_rng(8)
    lam = np.sort(rng.uniform(0.0, 2.0, 60))[::-1]
    split = SpectrumSplit.from_spectrum(lam, 10)
    cfg = SketchConfig(k=10, p=5, q=1)
    c = split.gap_ratio ** (2 * cfg.q - 1) * cge_constant(10, 5, 60)
    simplified = (1.0 + c) * np.sum(split.lam2)
    assert error_bounds(split, cfg, "kl_rand") <= simplified + 1e-12


def test_error_bounds_gap_ratio_guard():
    split = SpectrumSplit(lam1=np.array([1.0]), lam2=np.array([1.0]), n=2)
    with pytest.raises(ConfigError, match="gap ratio"):
        error_bounds(split, SketchConfig(k=1, p=3), "logdet_rand")
    # deterministic kinds do not need the gap
    assert error_bounds(split, None, "kl_eig") > 0


def _sketch_errors(op, lam_true, cfg, n_seeds):
    """Logdet and KL-part absolute errors over seeds."""
    J_true = np.sum(np.log1p(lam_true))
    klp_true = 0.5 * (J_true - np.sum(lam_true / (1 + lam_true)))
    e_logdet, e_kl = np.empty(n_seeds), np.empty(n_seeds)
    for s in range(n_seeds):
        _, T = subspace_iteration(aslinearoperator(op), SketchConfig(cfg.k, cfg.p, cfg.q, seed=1000 + s))
        lam_T = np.clip(np.linalg.eigvalsh(T), 0.0, None)
        J_hat = np.sum(np.log1p(lam_T))
        klp_hat = 0.5 * (J_hat - np.sum(lam_T / (1 + lam_T)))
        e_logdet[s] = abs(J_true - J_hat)
        e_kl[s] = abs(klp_true - klp_hat)
    return e_logdet, e_kl


def test_expected_error_bounds_hold_monte_carlo():
    """Mean sketching errors sit below the closed-form expectation bounds."""
    n, k = 100, 10
    lam_true = 2.0 ** -np.arange(1, n + 1, dtype=float)
    rng = np.random.default_rng(9)
    op = random_psd(n, rng, decay=lam_true)
    cfg = SketchConfig(k=k, p=5, q=1)
    split = SpectrumSplit.from_spectrum(lam_true, k)
    e_logdet, e_kl = _sketch_errors(op, lam_true, cfg, 200)
    assert e_logdet.mean() <= error_bounds(split, cfg, "logdet_rand")
    assert e_kl.mean() <= error_bounds(split, cfg, "kl_rand")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lemma_trace_product_bound(seed):
    """|tr(A B)| <= ||A||_2 tr(B) for PSD B."""
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 12)
    A = rng.standard_normal((n, n))
    B = random_psd(n, rng)
    assert abs(np.trace(A @ B)) <= np.linalg.norm(A, 2) * np.trace(B) + 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lemma_logdet_ordering(seed):
    """For PSD M >= N: 0 <= logdet(I+M) - logdet(I+N) <= logdet(I + M - N)."""
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 12)
    N = random_psd(n, rng)
    E = random_psd(n, rng)
    M = N + E
    d = np.linalg.slogdet(np.eye(n) + M)[1] - np.linalg.slogdet(np.eye(n) + N)[1]
    assert -1e-10 <= d <= np.linalg.slogdet(np.eye(n) + E)[1] + 1e-10


def test_spectrum_split_properties():
    split = SpectrumSplit.from_spectrum([0.5, 3.0, 1.0, 0.1], 2)
    assert np.allclose(split.lam1, [3.0, 1.0])
    assert np.allclose(split.lam2, [0.5, 0.1])
    assert split.gap_ratio == pytest.approx(0.5)
    assert SpectrumSplit.from_spectrum(np.zeros(4), 2).gap_ratio == 0.0
    with pytest.raises(ConfigError):
        SpectrumSplit.from_spectrum([-1.0, 2.0], 1)


def test_low_rank_eig_dataclass():
    eig = LowRankEig(U=np.eye(3)[:, :2], lam=np.array([2.0, 1.0]))
    assert len(eig.lam) == 2
