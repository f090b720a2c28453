import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from helpers import cplx, jacobi_hermitian_eigvals, rel_err, with_spectrum
from stpz.errors import DimensionError, NumericError
from stpz.svd import leading_triplet, svd, svds

# The package re-exports the function stpz.svd, so the module is looked up
# by its full name.
svd_module = importlib.import_module("stpz.svd")


def recon(f):
    return (f.U * f.sigma) @ f.V.conj().T


class TestSvd:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 2.0, 1.0]))
        assert_allclose(f.sigma, [3, 2, 1])
        assert_allclose(f.U, np.eye(3), atol=1e-14)
        assert_allclose(f.V, np.eye(3), atol=1e-14)

    def test_rank_one(self):
        rng = np.random.default_rng(0)
        u = cplx(rng, 5)
        v = cplx(rng, 3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        f = svd(np.outer(u, v.conj()))
        assert f.sigma[0] == pytest.approx(1.0, rel=1e-12)
        assert_allclose(f.sigma[1:], 0, atol=1e-12)

    def test_contracts(self):
        rng = np.random.default_rng(1)
        A = cplx(rng, 5, 3)
        f = svd(A)
        assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)
        assert rel_err(f.U.conj().T @ f.U, np.eye(3)) <= 1e-10
        assert rel_err(f.V.conj().T @ f.V, np.eye(3)) <= 1e-10
        assert np.linalg.norm(recon(f) - A) <= 1e-10 * np.linalg.norm(A)

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(2)
        A = cplx(rng, 5, 3)
        eigs = jacobi_hermitian_eigvals(A.conj().T @ A)
        expected = np.sqrt(np.clip(eigs, 0, None))
        assert_allclose(svd(A).sigma, expected, rtol=1e-9, atol=1e-9)

    def test_phase_convention(self):
        rng = np.random.default_rng(3)
        A = cplx(rng, 6, 4)
        f = svd(A)
        for j in range(4):
            i = int(np.argmax(np.abs(f.U[:, j])))
            assert f.U[i, j].imag == pytest.approx(0.0, abs=1e-14)
            assert f.U[i, j].real > 0

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(4)
        A = cplx(rng, 5, 5)
        f1, f2 = svd(A), svd(A.copy())
        assert np.array_equal(f1.U, f2.U)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.V, f2.V)

    def test_non_finite_rejected(self):
        A = np.zeros((2, 2))
        A[0, 0] = np.nan
        with pytest.raises(NumericError):
            svd(A)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
    def test_real_input_gives_real_factors(self, shape):
        # Real input takes LAPACK's real-arithmetic SVD; the phase rule
        # becomes a sign rule, and svds keeps svd's prefix.
        rng = np.random.default_rng(8)
        A = rng.normal(size=shape)
        p = min(shape)
        f, g = svd(A), svds(A, p - 1)
        assert np.linalg.norm(A - recon(f)) <= 1e-12 * np.linalg.norm(A)
        for h in (f, g):
            assert h.U.dtype == np.float64 and h.V.dtype == np.float64
            for j in range(h.rank):
                assert h.U[int(np.argmax(np.abs(h.U[:, j]))), j] > 0
        assert np.array_equal(f.U[:, : p - 1], g.U) and np.array_equal(f.V[:, : p - 1], g.V)
        assert_allclose(f.sigma, svd(A.astype(np.complex128)).sigma, rtol=1e-12)


class TestSvds:
    def test_full_rank_equals_svd(self):
        rng = np.random.default_rng(5)
        A = cplx(rng, 4, 6)
        f, g = svd(A), svds(A, 4)
        assert np.array_equal(f.U, g.U)
        assert np.array_equal(f.sigma, g.sigma)
        assert np.array_equal(f.V, g.V)

    def test_diagonal_truncation(self):
        f = svds(np.diag([3.0, 2.0, 1.0]), 2)
        assert_allclose(f.sigma, [3, 2])
        A = np.diag([3.0, 2.0, 1.0])
        assert np.linalg.norm(A - recon(f)) == pytest.approx(1.0, rel=1e-12)

    def test_tail_energy_residual(self):
        rng = np.random.default_rng(6)
        A = cplx(rng, 6, 4)
        full = svd(A)
        for r in (1, 2, 3):
            f = svds(A, r)
            resid = np.linalg.norm(A - recon(f))
            assert resid == pytest.approx(np.linalg.norm(full.sigma[r:]), rel=1e-9)

    def test_eckart_young_spot_check(self):
        rng = np.random.default_rng(7)
        A = cplx(rng, 5, 4)
        for r in (1, 2, 3):
            best = np.linalg.norm(A - recon(svds(A, r)))
            for _ in range(20):
                X = cplx(rng, 5, r)
                Y = cplx(rng, r, 4)
                assert best <= np.linalg.norm(A - X @ Y) + 1e-12

    def test_rank_bounds(self):
        A = np.eye(3)
        with pytest.raises(DimensionError):
            svds(A, 0)
        with pytest.raises(DimensionError):
            svds(A, 4)


SHAPES = st.sampled_from(["tall", "wide", "square", "row", "column"])


class TestLeadingTriplet:
    @given(
        kind=SHAPES,
        a=st.integers(2, 40),
        b=st.integers(1, 40),
        spike=st.sampled_from([0.0, 1.0, 4.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=60)
    def test_matches_dense(self, kind, a, b, spike, seed):
        # Gaussian noise plus an optional dominant rank-1 term, on every
        # shape class; the first triplet of svd is the reference.
        m, n = {
            "tall": (a + b, a),
            "wide": (a, a + b),
            "square": (a, a),
            "row": (1, a),
            "column": (a, 1),
        }[kind]
        rng = np.random.default_rng(seed)
        A = cplx(rng, m, n) + spike * np.sqrt(m * n) * np.outer(cplx(rng, m), cplx(rng, n))
        f = leading_triplet(A)
        if f is None:
            # Only a matrix larger than the step budget can exhaust it.
            assert min(m, n) > svd_module._GKL_STEPS
            return
        d = svd(A)
        assert f.U.shape == (m, 1) and f.V.shape == (n, 1) and f.sigma.shape == (1,)
        assert f.sigma[0] == pytest.approx(d.sigma[0], rel=1e-12)
        # The leading vectors are determined up to the phase rule, with a
        # conditioning of 1 / relative gap.
        gap = 1.0 if d.sigma.size == 1 else (d.sigma[0] - d.sigma[1]) / d.sigma[0]
        tol = 1e-10 / max(gap, 1e-6)
        assert np.linalg.norm(f.U[:, 0] - d.U[:, 0]) <= tol
        assert np.linalg.norm(f.V[:, 0] - d.V[:, 0]) <= tol

    def test_rank_one_breaks_down_at_step_one(self, monkeypatch):
        monkeypatch.setattr(svd_module, "_GKL_STEPS", 1)
        rng = np.random.default_rng(10)
        x, y = cplx(rng, 7), cplx(rng, 5)
        A = np.outer(x, y.conj())
        f, d = leading_triplet(A), svd(A)
        assert f is not None
        assert f.sigma[0] == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y), rel=1e-13)
        assert_allclose(f.U[:, 0], d.U[:, 0], atol=1e-13)
        assert_allclose(f.V[:, 0], d.V[:, 0], atol=1e-13)

    def test_zero_input(self):
        f, d = leading_triplet(np.zeros((4, 3))), svd(np.zeros((4, 3)))
        assert f.sigma[0] == 0.0 == d.sigma[0]
        assert np.array_equal(f.U[:, 0], d.U[:, 0])
        assert np.array_equal(f.V[:, 0], d.V[:, 0])

    def test_repeated_leading_value(self):
        # sigma_1 = sigma_2: any unit vector of the leading pair's span is a
        # valid u1, so the result is checked for optimality, not identity.
        rng = np.random.default_rng(11)
        A = with_spectrum(rng, 40, 30, [3.0, 3.0, 1.0, 0.5, 0.25])
        f = leading_triplet(A)
        u, v = f.U[:, 0], f.V[:, 0]
        assert f.sigma[0] == pytest.approx(3.0, rel=1e-12)
        assert np.linalg.norm(A @ v - f.sigma[0] * u) <= 1e-11
        tail = np.linalg.norm(svd(A).sigma[1:])
        assert np.linalg.norm(A - f.sigma[0] * np.outer(u, v.conj())) == pytest.approx(tail, rel=1e-12)

    def test_start_orthogonal_to_v1_gives_a_smaller_triplet(self):
        # The documented limit of a one-start Krylov method: with v1
        # orthogonal to the fixed start w, the process never sees sigma_1
        # and stops at sigma_2.  What the stopping test certifies still
        # holds: the result is a singular triplet to the tolerance.
        rng = np.random.default_rng(15)
        m, n = 40, 30
        w = np.random.default_rng(0).standard_normal(n)
        v1 = cplx(rng, n)
        v1 -= (w @ v1) / (w @ w) * w
        V, _ = np.linalg.qr(np.c_[v1, cplx(rng, n, n - 1)])
        U, _ = np.linalg.qr(cplx(rng, m, n))
        A = (U * np.r_[3.0, 2.0, 1.0, 0.5 * 0.9 ** np.arange(n - 3)]) @ V.conj().T
        f = leading_triplet(A)
        assert f.sigma[0] == pytest.approx(2.0, rel=1e-12)
        u, v = f.U[:, 0], f.V[:, 0]
        assert np.linalg.norm(A @ v - f.sigma[0] * u) <= 1e-11 * f.sigma[0]

    def test_flat_spectrum_exhausts_budget(self):
        # Relative gaps of 0.2% need far more steps than the budget.
        rng = np.random.default_rng(12)
        n = 2 * svd_module._GKL_STEPS
        A = with_spectrum(rng, n, n, np.linspace(1.0, 0.9, n))
        assert leading_triplet(A) is None

    def test_phase_convention(self):
        rng = np.random.default_rng(13)
        f = leading_triplet(cplx(rng, 9, 6))
        i = int(np.argmax(np.abs(f.U[:, 0])))
        assert f.U[i, 0].imag == pytest.approx(0.0, abs=1e-14)
        assert f.U[i, 0].real > 0

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(14)
        A = cplx(rng, 30, 20)
        f1, f2 = leading_triplet(A), leading_triplet(A.copy())
        assert np.array_equal(f1.U, f2.U)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.V, f2.V)

    def test_input_validation(self):
        A = np.ones((3, 3))
        A[1, 2] = np.inf
        with pytest.raises(NumericError):
            leading_triplet(A)
        with pytest.raises(DimensionError):
            leading_triplet(np.ones(3))
