import importlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from numpy.testing import assert_allclose

from helpers import (
    cplx,
    fix_phases_loop,
    jacobi_hermitian_eigvals,
    rel_err,
    same_bytes,
    scaled_norm,
    with_spectrum,
)
from stpz.errors import DimensionError, NumericError
from stpz.svd import _fix_phases, leading_triplet, svd, svds

# The package re-exports the function stpz.svd, so the module is looked up
# by its full name.
svd_module = importlib.import_module("stpz.svd")


def recon(f):
    return (f.U * f.sigma) @ f.V.conj().T


def assert_ritz_triplet(A, f):
    """What leading_triplet gives for any A, converged or not: one column,
    u^H A v = sigma, sigma at most sigma_1, and the exact-error identity
    ||A - sigma u v^H||_F = sqrt(||A||_F^2 - sigma^2).  Returns whether
    the triplet is converged, ||A v - sigma u|| <= 2 * _GKL_TOL * sigma."""
    m, n = A.shape
    assert f.U.shape == (m, 1) and f.V.shape == (n, 1) and f.sigma.shape == (1,)
    s, u, v = f.sigma[0], f.U[:, 0], f.V[:, 0]
    assert abs(np.vdot(u, A @ v) - s) <= 1e-12 * s
    assert s <= svd(A).sigma[0] * (1 + 1e-12)
    # A tail near roundoff cancels in ||A||^2 - sigma^2, hence the floor.
    norm = np.linalg.norm(A)
    direct = np.linalg.norm(A - s * np.outer(u, v.conj()))
    tail = np.sqrt(max(norm**2 - s**2, 0.0))
    assert direct == pytest.approx(tail, rel=1e-9, abs=1e-7 * norm)
    return np.linalg.norm(A @ v - s * u) <= 2 * svd_module._GKL_TOL * s


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

    def test_non_matrix(self):
        with pytest.raises(DimensionError, match="svd expects a matrix"):
            svd(np.ones(3))

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


class TestFixPhases:
    """The vectorized phase fix gives the per-column loop's factors bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize(
        "m, k, n", [(1, 1, 1), (1, 1, 6), (5, 3, 4), (64, 64, 64), (256, 16, 16), (40, 8, 300)]
    )
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_loop(self, dtype, m, k, n, order):
        rng = np.random.default_rng(m * 1000 + k + n)
        U = rng.normal(size=(m, k)).astype(dtype)
        V = rng.normal(size=(n, k)).astype(dtype)
        if dtype == np.complex128:
            U += 1j * rng.normal(size=(m, k))
            V += 1j * rng.normal(size=(n, k))
        U *= 10.0 ** rng.uniform(-5, 5, size=k)
        if m > 4 and k > 2:
            # A tie for the largest modulus: the first row wins.
            U[:, 2] /= 2 * np.abs(U[:, 2]).max()
            U[1, 2] = (3 + 4j) if dtype == np.complex128 else 5.0
            U[4, 2] = -U[1, 2]
        U, V = np.asarray(U, order=order), np.asarray(V, order=order)
        want_U, want_V = U.copy(), V.copy()
        fix_phases_loop(want_U, want_V)
        _fix_phases(U, V)
        assert same_bytes(U, want_U) and same_bytes(V, want_V)
        if m > 4 and k > 2:
            assert U[1, 2].real == pytest.approx(5.0) and U[4, 2].real == pytest.approx(-5.0)

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_matches_the_loop_on_svd_factors(self, complex_input):
        rng = np.random.default_rng(21)
        A = cplx(rng, 48, 32) if complex_input else rng.normal(size=(48, 32))
        U, _, Vh = np.linalg.svd(A, full_matrices=False)
        V = np.conj(Vh.T, order="C")
        want_U, want_V = U.copy(), V.copy()
        fix_phases_loop(want_U, want_V)
        f = svd(A)
        assert same_bytes(f.U, want_U) and same_bytes(f.V, want_V)


class TestScale:
    """The input rule's one scale step: (A s^2, s, ||A s^2||_F^2)."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_in_range_and_zero_input_are_returned_uncopied(self, dtype):
        rng = np.random.default_rng(40)
        for A in (rng.normal(size=(6, 5)).astype(dtype), np.zeros((6, 5), dtype=dtype)):
            got, s, norm2 = svd_module._scale(A, "test")
            assert got is A and s == 1.0
            assert norm2 == float(np.vdot(A, A).real)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("e", [-700, 700], ids=["2^-700", "2^700"])
    def test_out_of_range_input_is_scaled_by_a_power_of_two(self, dtype, e):
        rng = np.random.default_rng(41)
        A = rng.normal(size=(7, 4)).astype(dtype)
        if dtype == np.complex128:
            A += 1j * rng.normal(size=(7, 4))
        A *= 2.0 ** (e // 2) / np.linalg.norm(A)
        got, s, norm2 = svd_module._scale(A, "test")
        assert same_bytes(got, A * s * s)
        assert math.frexp(s)[0] == 0.5
        assert 0.5 <= np.abs(got).max() < 2.0
        assert norm2 == pytest.approx(np.linalg.norm(got) ** 2, rel=1e-14)


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

    def test_takes_a_nested_list_and_refuses_a_non_matrix(self):
        f = svds([[3, 0], [0, 1], [0, 0]], 1)
        assert f.sigma.tolist() == [3.0] and f.U.dtype == f.V.dtype == np.float64
        with pytest.raises(DimensionError, match="svds expects a matrix"):
            svds(np.ones((2, 2, 2)), 1)


SHAPES = st.sampled_from(["tall", "wide", "square", "row", "column"])

# Tall shapes at the edges of leading_triplet's Gram-route rule, and
# whether the rule takes them: in at both limits (short side _GRAM_SIDE at
# aspect _GRAM_ASPECT, and a short side of 16), out by one row of aspect,
# and out by one column of short side.
_SIDE, _ASPECT = svd_module._GRAM_SIDE, svd_module._GRAM_ASPECT
GRAM_RULE = {
    "gram-64": ((_ASPECT * _SIDE, _SIDE), True),
    "gram-16": ((_ASPECT * 16, 16), True),
    "aspect-below": ((_ASPECT * _SIDE - 1, _SIDE), False),
    "side-above": ((_ASPECT * (_SIDE + 1), _SIDE + 1), False),
}


def route_case(shape, wide, dtype, data, rng):
    """Centered uniform noise of the tall shape, whose leading spectrum is
    flat, plus for "slice" a rank-1 term that puts sigma_2 / sigma_1 near
    0.15, as in an image's rearranged Fourier slices; transposed if wide."""
    def draw(*size):
        x = rng.uniform(-1.0, 1.0, size)
        return x + 1j * rng.uniform(-1.0, 1.0, size) if dtype == "complex" else x

    A = draw(*shape)
    if data == "slice":
        A += 2.0 * np.outer(draw(shape[0]), draw(shape[1]))
    return np.ascontiguousarray(A.T) if wide else A


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
        if not assert_ritz_triplet(A, f):
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
        assert f.sigma[0] == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y), rel=1e-13)
        assert_allclose(f.U[:, 0], d.U[:, 0], atol=1e-13)
        assert_allclose(f.V[:, 0], d.V[:, 0], atol=1e-13)

    def test_breakdown_stops_at_beta_zero(self, monkeypatch):
        # One nonzero entry: A v_1 = alpha_1 u_1 exactly, so beta_1 is exactly
        # 0.0 and the stopping test ends the process after one step at the
        # default budget.  No basis vector is divided by beta = 0.
        A = np.zeros((40, 30))
        A[0, 0] = 3.0
        seen, real = [], svd_module._reorthogonalize
        monkeypatch.setattr(
            svd_module, "_reorthogonalize", lambda x, basis: seen.append(real(x, basis)) or seen[-1]
        )
        f = leading_triplet(A)
        assert svd_module._GKL_STEPS > 1
        assert len(seen) == 2 and np.linalg.norm(seen[1]) == 0.0
        assert f.sigma[0] == 3.0
        assert np.array_equal(f.U[:, 0], np.eye(40)[0])
        assert np.array_equal(f.V[:, 0], np.eye(30)[0])

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_alpha_breakdown_takes_a_fixed_unit_vector(self, monkeypatch, real):
        # sigma = 1 over a tail of 5e-13: u_1 lies in the tail, so A^H u_1
        # is below _GKL_TOL * alpha_0 and alpha_1 counts as zero.  The next
        # right vector is then a fixed pseudo-random one orthogonalized
        # against the basis, a unit vector and the same on every call.
        sigma = np.r_[1.0, np.full(19, 5e-13)]
        A = with_spectrum(np.random.default_rng(0), 30, 20, sigma, real=real)
        made, real_unit = [], svd_module._unit

        def unit(x, norm, basis):
            made.append((norm, basis.copy(), real_unit(x, norm, basis)))
            return made[-1][2]

        monkeypatch.setattr(svd_module, "_unit", unit)
        f = leading_triplet(A)
        assert assert_ritz_triplet(A, f) and f.sigma[0] == pytest.approx(1.0, rel=1e-12)
        breakdowns = [(basis, x) for norm, basis, x in made if norm == 0.0]
        assert breakdowns
        for basis, x in breakdowns:
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-15
            assert np.abs(basis.conj() @ x).max() <= 1e-15
            assert np.array_equal(x, real_unit(np.zeros_like(x), 0.0, basis))

    @pytest.mark.parametrize(
        "c",
        [2.0**-540, 1e-165, 1e-160, 1e160, 2.0**530],
        ids=["2^-540", "1e-165", "1e-160", "1e160", "2^530"],
    )
    def test_triplet_scales_with_the_input(self, c):
        # The Kronecker-plus-noise input of test_nkp.scale_case("lanczos"),
        # whose Lanczos norms overflow or underflow at these scales unless
        # it is factored at unit scale.
        rng = np.random.default_rng(40)
        A = np.kron(cplx(rng, 8, 8), cplx(rng, 8, 8)) + 0.1 * cplx(rng, 64, 64)
        f = leading_triplet(A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fc = leading_triplet(c * A)
            want = c * (f.sigma[0] * np.outer(f.U[:, 0], f.V[:, 0].conj()))
            term = fc.sigma[0] * np.outer(fc.U[:, 0], fc.V[:, 0].conj())
        assert fc.sigma[0] == pytest.approx(c * svd(A).sigma[0], rel=1e-12)
        assert scaled_norm(term - want) <= 1e-12 * scaled_norm(want)

    def test_zero_input(self):
        # (128, 4) and (4, 128) take the Gram route, whose zero G gives a
        # zero X v that must not be divided by.
        shapes = [(4, 3), (128, 4), (4, 128)]
        for shape, dtype in itertools.product(shapes, (np.float64, np.complex128)):
            A = np.zeros(shape, dtype=dtype)
            f, d = leading_triplet(A), svd(A)
            assert f.U.dtype == f.V.dtype == d.U.dtype == dtype
            assert f.sigma[0] == 0.0 == d.sigma[0]
            assert np.array_equal(f.U[:, 0], d.U[:, 0])
            assert np.array_equal(f.V[:, 0], d.V[:, 0])

    @pytest.mark.parametrize("shape", [(40, 30), (30, 40)], ids=["tall", "wide"])
    def test_real_input_gives_real_factors(self, shape):
        # A real matrix is factored with a real basis, into the triplet of
        # the complex route up to rounding.
        rng = np.random.default_rng(16)
        m, n = shape
        A = rng.normal(size=shape) + 2.0 * np.outer(rng.normal(size=m), rng.normal(size=n))
        f, want = leading_triplet(A), leading_triplet(A.astype(np.complex128))
        assert f.U.dtype == f.V.dtype == np.float64 and want.U.dtype == np.complex128
        assert f.sigma[0] == pytest.approx(want.sigma[0], rel=1e-12)
        assert_allclose(f.U, want.U, atol=1e-12)
        assert_allclose(f.V, want.V, atol=1e-12)
        assert f.U[np.argmax(np.abs(f.U[:, 0])), 0] > 0

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

    @given(
        m=st.integers(32, 96),
        n=st.integers(32, 96),
        ratio=st.floats(0.95, 0.999),
        real=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=60)
    def test_flat_spectrum_exhausts_budget(self, m, n, ratio, real, seed):
        # Geometric spectra flat enough that the budget often ends the run
        # before convergence; the triplet it returns then is the Ritz
        # triplet of the last step, exact for its own projection.
        rng = np.random.default_rng(seed)
        A = with_spectrum(rng, m, n, ratio ** np.arange(min(m, n)), real=real)
        converged = assert_ritz_triplet(A, leading_triplet(A))
        event("converged" if converged else "budget ended the run")

    def test_lanczos_vectors_have_unit_norm(self):
        # A cluster at the top and a tail at 1e-10 make the recurrence lose
        # orthogonality: without reorthogonalization the Ritz vectors'
        # norms were off by 1.9e-13 here, and by 4e-16 with it.
        sigma = np.r_[1.0, 0.999, 0.998, np.full(50, 0.5), np.full(10, 1e-10)]
        A = with_spectrum(np.random.default_rng(0), 300, 200, sigma)
        f = svd_module._gkl(A, 1, svd_module._GKL_STEPS)
        for X in (f.U, f.V):
            assert abs(np.linalg.norm(X) - 1.0) <= 1e-14

    @pytest.mark.parametrize("data", ["slice", "noise"])
    @pytest.mark.parametrize("dtype", ["real", "complex"])
    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    @pytest.mark.parametrize("shape, gram", list(GRAM_RULE.values()), ids=list(GRAM_RULE))
    def test_gram_route(self, monkeypatch, shape, gram, wide, dtype, data):
        # On both sides of the Gram-route rule, tall and wide, real and
        # complex, for a converging slice and for flat uniform noise: the
        # route taken, e1 = sqrt(||A||^2 - sigma^2) against the dense SVD's
        # tail, the direct residual (in assert_ritz_triplet) and bitwise
        # repeatability.
        A = route_case(shape, wide, dtype, data, np.random.default_rng(17))
        calls = []
        real_gram = svd_module._gram_triplet
        monkeypatch.setattr(
            svd_module, "_gram_triplet", lambda X: calls.append(X.shape) or real_gram(X)
        )
        f = leading_triplet(A)
        assert calls == ([A.shape] if gram else [])
        assert_ritz_triplet(A, f)
        tail = np.linalg.norm(np.linalg.svd(A, compute_uv=False)[1:])
        e1 = np.sqrt(np.linalg.norm(A) ** 2 - f.sigma[0] ** 2)
        if data == "noise" and min(shape) > svd_module._GKL_STEPS:
            # A flat spectrum can outlast the budget on either route, and
            # e1 is then above the optimum, as for every budget triplet
            # (measured up to 1.4e-7 on A, 1.2e-9 on G at these shapes).
            assert tail * (1 - 1e-12) <= e1 <= tail * (1 + 1e-5)
        else:
            # Converged, or G's whole Krylov space within the budget.
            assert e1 == pytest.approx(tail, rel=1e-9)
        g = leading_triplet(A.copy())
        assert same_bytes(f.U, g.U) and same_bytes(f.sigma, g.sigma) and same_bytes(f.V, g.V)

    @pytest.mark.parametrize("e", [-598, 598], ids=["2^-598", "2^598"])
    def test_gram_matrix_takes_the_scale_step(self, e):
        # ||A||_F^2 = 2^e is inside the input rule's range, so A is taken
        # as it is, but ||G||_F^2 is near 2^(2e), out of it: unscaled, G's
        # Lanczos norms would underflow to zero or overflow to Inf.
        rng = np.random.default_rng(18)
        A = route_case(GRAM_RULE["gram-64"][0], False, "complex", "slice", rng)
        A /= np.linalg.norm(A)
        c = 2.0 ** (e // 2)
        low, high = svd_module._NORM2_RANGE
        assert low <= np.linalg.norm(c * A) ** 2 <= high
        f = leading_triplet(A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fc = leading_triplet(c * A)
            want = c * (f.sigma[0] * np.outer(f.U[:, 0], f.V[:, 0].conj()))
            term = fc.sigma[0] * np.outer(fc.U[:, 0], fc.V[:, 0].conj())
        assert fc.sigma[0] == pytest.approx(c * f.sigma[0], rel=1e-12)
        assert scaled_norm(term - want) <= 1e-12 * scaled_norm(want)

    def test_phase_convention(self):
        # On A itself, and on the Gram route for a tall and a wide A.
        rng = np.random.default_rng(13)
        for shape in ((9, 6), (16 * _ASPECT, 16), (16, 16 * _ASPECT)):
            f = leading_triplet(cplx(rng, *shape))
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


def gram_case(kind, m, n, dtype, rng):
    """Gaussian matrix, (m + n) x n tall, n x (m + n) wide or n x n square."""
    shape = {"tall": (m + n, n), "wide": (n, m + n), "square": (n, n)}[kind]
    A = rng.normal(size=shape)
    return A + 1j * rng.normal(size=shape) if dtype == "complex" else A


def lanczos_case(kind, rng):
    """512 x 512 complex matrices on svds's Lanczos route (640 x 576 for
    "tall"): Gaussian, and the inputs on which a one-vector Krylov process
    breaks down or can miss a copy of a repeated value."""
    n = 512
    if kind == "zero":
        return np.zeros((n, n), dtype=np.complex128)
    if kind == "rank-2":
        return np.kron(np.eye(2), np.ones((n // 2, n // 2))) + 0j
    if kind == "identity":
        return np.eye(n, dtype=np.complex128)
    if kind == "two-value":
        return with_spectrum(rng, n, n, np.r_[np.full(n // 2, 2.0), np.full(n // 2, 1.0)])
    if kind == "pairs":
        sigma = np.r_[np.repeat(np.linspace(2.0, 1.0, 25), 2), np.zeros(n - 50)]
        return with_spectrum(rng, n, n, sigma)
    if kind == "repeated":
        return with_spectrum(rng, n, n, np.r_[3.0, 3.0, 2.0 * 0.99 ** np.arange(n - 2)])
    if kind == "flat":
        return with_spectrum(rng, n, n, np.linspace(1.0, 0.5, n))
    return cplx(rng, 640, 576) if kind == "tall" else cplx(rng, n, n)


def assert_gram_triplets(A, r):
    """svds(A, r) against the dense svd: orthonormal factors, sigma, the
    truncation residual, the phase rule and the factors' dtype."""
    f, d = svds(A, r), svd(A)
    m, n = A.shape
    assert f.U.shape == (m, r) and f.V.shape == (n, r) and f.sigma.shape == (r,)
    for X in (f.U, f.V):
        assert X.dtype == A.dtype
        assert np.abs(X.conj().T @ X - np.eye(r)).max() <= 1e-12
    assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)
    assert np.abs(f.sigma - d.sigma[:r]).max() <= 1e-10 * max(d.sigma[0], 1e-300)
    tail = np.linalg.norm(d.sigma[r:])
    assert np.linalg.norm(A - recon(f)) == pytest.approx(
        tail, rel=1e-9, abs=1e-12 * np.linalg.norm(A)
    )
    for j in range(r):
        i = int(np.argmax(np.abs(f.U[:, j])))
        assert f.U[i, j].imag == pytest.approx(0.0, abs=1e-14) and f.U[i, j].real > 0
    return f


class TestSvdsGram:
    """svds with r <= min(m, n) / 2: the Gram eigenvectors and their
    Rayleigh–Ritz triplets, or on large shapes the Lanczos Ritz triplets."""

    @pytest.fixture
    def gram_calls(self, monkeypatch):
        # Shapes of the matrices svds hands to svd: on the Gram side only
        # the n x r or m x r Ritz products, never A itself.
        shapes = []
        real_svd = svd_module.svd
        monkeypatch.setattr(svd_module, "svd", lambda M: shapes.append(M.shape) or real_svd(M))
        return shapes

    @pytest.fixture
    def routes(self, monkeypatch):
        # The route of each svds call, with the shape it was given:
        # "gram" for _gram_svds and "lanczos" for _gkl.  The dense prefix
        # records nothing.
        calls = []
        for name, route in (("_gram_svds", "gram"), ("_gkl", "lanczos")):
            real = getattr(svd_module, name)
            monkeypatch.setattr(
                svd_module,
                name,
                lambda A, *rest, real=real, route=route: calls.append((route, A.shape))
                or real(A, *rest),
            )
        return calls

    @pytest.mark.parametrize(
        "shape, dtype, route",
        [
            ((512, 512), "complex", "lanczos"),
            ((512, 512), "real", "gram"),
            ((511, 511), "complex", "gram"),
            ((513, 512), "complex", "gram"),
            ((512, 513), "complex", "gram"),
            ((1024, 1024), "real", "lanczos"),
            ((1023, 1023), "real", "gram"),
        ],
    )
    def test_route_rule(self, routes, shape, dtype, route):
        # Which side of _GKL_WORK each shape falls on: k^4, times 8 for
        # complex input, against _GKL_WORK * max(m, n).  A zero matrix
        # costs little on either route and gives zero triplets on both.
        A = np.zeros(shape, dtype=np.complex128 if dtype == "complex" else np.float64)
        f = svds(A, 3)
        assert routes == [(route, shape)]
        assert not f.sigma.any() and f.U.dtype == A.dtype

    @pytest.mark.parametrize("dtype", ["real", "complex"])
    @pytest.mark.parametrize("kind", ["tall", "wide", "square"])
    def test_matches_dense(self, gram_calls, kind, dtype):
        rng = np.random.default_rng(40)
        A = gram_case(kind, 40, 64, dtype, rng)
        for r in (1, 7, 32):
            gram_calls.clear()
            assert_gram_triplets(A, r)
            assert gram_calls[0] == (max(A.shape), r)

    @given(
        kind=st.sampled_from(["tall", "wide", "square"]),
        dtype=st.sampled_from(["real", "complex"]),
        m=st.integers(0, 12),
        n=st.integers(2, 12),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=60)
    def test_every_rank_up_to_half(self, kind, dtype, m, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        A = gram_case(kind, m, n, dtype, rng)
        assert_gram_triplets(A, data.draw(st.integers(1, min(A.shape) // 2)))

    @pytest.mark.parametrize(
        "kind, r, breakdown",
        [
            ("gauss", 1, False),
            ("gauss", 20, False),
            ("gauss", 256, False),
            ("tall", 20, False),
            ("zero", 20, False),
            ("rank-2", 20, True),
            ("identity", 20, True),
            ("two-value", 20, True),
            ("pairs", 20, True),
            ("repeated", 20, False),
            ("flat", 20, False),
        ],
    )
    def test_lanczos_route(self, routes, kind, r, breakdown):
        # svds's Lanczos route, to the tolerances of the Gram side.  The
        # rank-2, identity and two-value inputs break down before step r,
        # with one copy of each value in the Krylov space, and the pairs
        # (25 values, each twice) at step 52, past r, once roundoff has
        # brought in the second copies: each goes on to the Gram route.
        # A zero matrix stops before the loop.  A repeated leading value
        # with no breakdown is found from roundoff; a flat spectrum is the
        # slowest case measured.
        A = lanczos_case(kind, np.random.default_rng(45))
        f = assert_gram_triplets(A, r)
        assert routes == [("lanczos", A.shape)] + [("gram", A.shape)] * breakdown
        if kind == "repeated":
            assert f.sigma[1] == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize(
        "case, r, steps, tests",
        [
            ("gauss", 20, 512, None),
            ("flat", 3, 10, [3, 6, 9, 10]),
            ("flat", 1, 10, list(range(1, 11))),
            ("flat-200", 1, 60, list(range(1, 25)) + [48, 60]),
            ("flat-200", 3, 60, list(range(3, 25, 3)) + [48, 60]),
            ("flat-200", 30, 100, [30, 60, 90, 100]),
            ("rank-30", 1, 512, list(range(1, 25)) + [30]),
            ("identity", 1, 512, [1]),
        ],
    )
    def test_stopping_test_cadence(self, monkeypatch, case, r, steps, tests):
        # The Lanczos loop's stopping test, one SVD of L_k per run, runs
        # at every multiple of r steps, past _GKL_STEPS at every multiple
        # of max(r, _GKL_STEPS), at a breakdown (beta = 0, at r = 1 a stop)
        # and at the budget's last step.  On noise it stops at one of those
        # steps, converged.  A diagonal of rank 30 keeps every basis vector
        # on its 30 coordinates, so it breaks down at step 30; the identity
        # breaks down at step 1.
        rng = np.random.default_rng(46)
        A = {
            "gauss": lambda: cplx(rng, 512, 512),
            "rank-30": lambda: np.diag(np.r_[np.linspace(1.0, 0.5, 30), np.zeros(482)]) + 0j,
            "identity": lambda: np.eye(512, dtype=np.complex128),
            "flat": lambda: with_spectrum(rng, 40, 30, 0.99 ** np.arange(30)),
            "flat-200": lambda: with_spectrum(rng, 200, 200, np.linspace(1.0, 0.5, 200)),
        }[case]()
        sizes, real_svd = [], np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda L: sizes.append(L.shape[0]) or real_svd(L)
        )
        f = svd_module._gkl(A, r, steps)
        monkeypatch.undo()
        if tests is None:
            budget, late = svd_module._GKL_STEPS, max(r, svd_module._GKL_STEPS)
            every = [j for j in range(1, steps) if j % (r if j <= budget else late) == 0]
            assert sizes == every[: len(sizes)] and sizes[-1] < steps
            assert np.linalg.norm(A @ f.V - f.U * f.sigma, axis=0).max() <= 1e-11 * f.sigma[0]
        else:
            assert sizes == tests
        assert f.sigma.shape == (r,)

    @pytest.mark.parametrize("dtype", ["real", "complex"])
    def test_r_above_the_rank(self, dtype):
        # Rank 3 with r = 10: the Ritz values past the rank are roundoff,
        # and the truncation residual is zero to roundoff.
        rng = np.random.default_rng(41)
        A = gram_case("tall", 87, 3, dtype, rng) @ gram_case("wide", 47, 3, dtype, rng)
        f = assert_gram_triplets(A, 10)
        assert np.all(f.sigma[3:] <= 1e-12 * f.sigma[0])

    @pytest.mark.parametrize("shape", [(80, 50), (50, 80)])
    def test_zero_matrix(self, gram_calls, shape):
        f = assert_gram_triplets(np.zeros(shape), 5)
        assert not f.sigma.any()
        assert gram_calls == [(80, 5)]

    def test_deterministic_bitwise(self, routes):
        rng = np.random.default_rng(42)
        for shape in [(70, 90), (512, 512)]:
            A = cplx(rng, *shape)
            f1, f2 = svds(A, 12), svds(A.copy(), 12)
            assert np.array_equal(f1.U, f2.U)
            assert np.array_equal(f1.sigma, f2.sigma)
            assert np.array_equal(f1.V, f2.V)
        assert [route for route, _ in routes] == ["gram"] * 2 + ["lanczos"] * 2

    @pytest.mark.parametrize("shape", [(90, 70), (70, 90), (512, 512)])
    def test_conjugate_input_gives_conjugate_factors(self, shape):
        # The Gram matrix of conj(X) is exactly conj(G), and each Lanczos
        # step on conj(A) is the conjugate of the step on A, so the
        # conjugate of a matrix gets the conjugate triplets, up to the sign
        # of a zero.
        rng = np.random.default_rng(43)
        A = cplx(rng, *shape)
        f, g = svds(A, 12), svds(A.conj(), 12)
        assert np.array_equal(g.sigma, f.sigma)
        assert np.array_equal(g.U, f.U.conj()) and np.array_equal(g.V, f.V.conj())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        A = np.ones((80, 50), dtype=np.complex128)
        A[3, 7] = bad
        with pytest.raises(NumericError):
            svds(A, 5)

    @pytest.mark.parametrize(
        "shape, r, scale",
        [
            ((80, 50), 26, 1.0),
            ((50, 80), 50, 1.0),
            ((80, 50), 5, 1e-150),
            ((80, 50), 5, 1e150),
            ((80, 50), 5, 1e-95),
        ],
    )
    def test_dense_prefix_outside_the_gram_side(self, gram_calls, shape, r, scale):
        # r > k / 2 and input outside the solvers' input rule take the dense
        # svd's prefix, bit for bit.  At 1e-95 every entry squares without
        # underflow, but ||A||_F^2 is about 8e-187, below 2^-600.
        rng = np.random.default_rng(44)
        A = scale * cplx(rng, *shape)
        f, d = svds(A, r), svd(A)
        assert gram_calls[0] == shape
        assert np.array_equal(f.U, d.U[:, :r]) and np.array_equal(f.V, d.V[:, :r])
        assert np.array_equal(f.sigma, d.sigma[:r])
