import importlib
import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from helpers import cplx, rel_err, same_bytes, scaled_norm, with_spectrum
from stpz.decomp import error_bound_matrix, mat_stp_svd_trunc, reconstruct
from stpz.errors import DimensionError, NumericError
from stpz.nkp import nkp, rearrange
from stpz.svd import leading_triplet, svd

# The package re-exports the function stpz.nkp, so the module is looked up
# by its full name.
nkp_module = importlib.import_module("stpz.nkp")
svd_module = importlib.import_module("stpz.svd")
decomp_module = importlib.import_module("stpz.decomp")


def vec(M):
    return np.asarray(M).flatten(order="F")


def rearranged(A, m2, n2):
    """rearrange(A, m2, n2) in A's own dtype, real or complex, as the tensor
    route hands a Fourier plane to nkp."""
    R = rearrange(A, m2, n2)
    return R if np.iscomplexobj(A) else R.real.copy()


def unrearrange(R, m1, n1, m2, n2):
    """Inverse of rearrange: the matrix A with rearrange(A, m2, n2) == R."""
    return R.reshape(n1, m1, n2, m2).transpose(1, 3, 0, 2).reshape(m1 * m2, n1 * n2)


def dense_kron(A, m2, n2):
    """sigma_1 u1 v1^H of the rearrangement from the dense svd: the
    rearranged B ⊗ C of the reference path."""
    f = svd(rearrange(A, m2, n2))
    return f.sigma[0] * np.outer(f.U[:, 0], f.V[:, 0].conj()), np.linalg.norm(f.sigma[1:])


# Relative agreement of the factors of two runs on one input, by path.  At
# the budget the Ritz vectors are not yet the leading ones (the pair of
# scale_case("budget") is 2e-5 from the dense optimum), and a rounding-level
# change of the input moves them by more than eps: measured 3e-9 under
# scaling and 1.2e-7 in real arithmetic.  The residual is stationary and
# agrees to 1e-12 on every path.
FACTOR_TOL = {"dense": 1e-12, "lanczos": 1e-12, "budget": 1e-5}


def scale_case(path):
    """An input whose triplet comes from one path, with m2 and the solver
    nkp calls for it: the dense SVD (16 x 16 rearrangement), Lanczos to
    convergence (64 x 64, Kronecker plus noise) and Lanczos to its step
    budget (a 512 x 64 noise rearrangement, whose flat spectrum outlasts
    it)."""
    rng = np.random.default_rng(40)
    if path == "dense":
        return np.kron(cplx(rng, 4, 4), cplx(rng, 4, 4)) + 0.1 * cplx(rng, 16, 16), 4, ["svd"]
    if path == "lanczos":
        A = np.kron(cplx(rng, 8, 8), cplx(rng, 8, 8)) + 0.1 * cplx(rng, 64, 64)
        return A, 8, ["_leading_triplet"]
    return cplx(rng, 512, 64), 8, ["_leading_triplet"]


class CountingSvd:
    """Stand-in for nkp's ``svd`` name that counts the dense fallbacks."""

    def __init__(self):
        self.calls = 0

    def __call__(self, A):
        self.calls += 1
        return svd(A)


class TestRearrange:
    def test_real_and_nested_list_input_give_complex128(self):
        A = np.arange(16.0).reshape(4, 4)
        want = rearrange(A.astype(np.complex128), 2, 2)
        for X in (A, A.tolist()):
            R = rearrange(X, 2, 2)
            assert R.dtype == np.complex128 and same_bytes(R, want)

    def test_kron_input_is_rank_one(self):
        B = np.array([[1.0, 2.0], [3.0, 4.0]])
        C = np.array([[5.0, 6.0], [7.0, 8.0]])
        R = rearrange(np.kron(B, C), 2, 2)
        assert np.array_equal(R, np.outer([1, 3, 2, 4], [5, 7, 6, 8]))
        assert np.linalg.matrix_rank(R) == 1

    def test_single_block_row_vec(self):
        rng = np.random.default_rng(0)
        A = cplx(rng, 3, 4)
        R = rearrange(A, 3, 4)
        assert R.shape == (1, 12)
        assert np.array_equal(R[0], vec(A))

    def test_scalar_blocks_column(self):
        rng = np.random.default_rng(1)
        A = cplx(rng, 2, 3)
        R = rearrange(A, 1, 1)
        assert R.shape == (6, 1)
        # j-major block enumeration == column-major vec of A itself
        assert np.array_equal(R[:, 0], vec(A))

    def test_isometry_exact(self):
        rng = np.random.default_rng(2)
        A = cplx(rng, 6, 6)
        assert np.linalg.norm(rearrange(A, 2, 3)) == pytest.approx(
            np.linalg.norm(A), rel=1e-15
        )

    def test_divisibility_error(self):
        with pytest.raises(DimensionError, match=r"^m2 = 4 does not divide height 6; .* \[1, 2, 3, 6\]$"):
            rearrange(np.zeros((6, 6)), 4, 2)
        with pytest.raises(DimensionError, match=r"^m2 = 0 does not divide height 1; .* \[1\]$"):
            rearrange(np.zeros((1, 4)), 0, 2)

    def test_non_matrix_is_a_dimension_error(self):
        with pytest.raises(DimensionError, match="rearrange expects a matrix"):
            rearrange(np.ones(4), 2, 2)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("blocks", [(3, 4), (3, 1), (1, 4), (1, 1)])
    def test_never_aliases_input(self, order, blocks):
        # Six of these eight cases make the reshape a view of A (every
        # Fortran-ordered one, and m1 = n2 = 1 or m2 = n1 = 1 in C order);
        # the result must still be a copy of its own.
        m2, n2 = blocks
        rng = np.random.default_rng(7)
        A = np.array(cplx(rng, 3, 4), order=order)
        R = rearrange(A, m2, n2)
        assert not np.shares_memory(R, A)
        assert np.array_equal(unrearrange(R, 3 // m2, 4 // n2, m2, n2), A)

    @given(
        m1=st.integers(1, 3),
        m2=st.integers(1, 3),
        n1=st.integers(1, 3),
        n2=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=40)
    def test_rank_one_distance_is_isometric(self, m1, m2, n1, n2, seed):
        # ||A - B ⊗ C|| equals ||rearrange(A) - vec(B) vec(C)^T|| for any pair,
        # not just the optimizer output.
        rng = np.random.default_rng(seed)
        A = cplx(rng, m1 * m2, n1 * n2)
        B = cplx(rng, m1, n1)
        C = cplx(rng, m2, n2)
        lhs = np.linalg.norm(A - np.kron(B, C))
        rhs = np.linalg.norm(rearrange(A, m2, n2) - np.outer(vec(B), vec(C)))
        assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1.0)


class TestNkp:
    def test_exact_kron_recovery(self):
        rng = np.random.default_rng(3)
        B0, C0 = cplx(rng, 3, 2), cplx(rng, 2, 4)
        A = np.kron(B0, C0)
        f = nkp(A, 2, 4)
        scale = np.linalg.norm(A)
        assert f.residual <= 1e-10 * scale
        assert np.linalg.norm(np.kron(f.B, f.C) - A) <= 1e-10 * scale

    def test_zero_matrix(self):
        f = nkp(np.zeros((4, 4)), 2, 2)
        assert f.residual == 0.0
        assert not f.B.any() and not f.C.any()

    def test_residual_matches_tail_and_actual(self):
        rng = np.random.default_rng(4)
        A = cplx(rng, 6, 6)
        f = nkp(A, 2, 2)
        sig = np.linalg.svd(rearrange(A, 2, 2), compute_uv=False)
        assert f.residual == pytest.approx(np.linalg.norm(sig[1:]), rel=1e-9)
        assert f.residual == pytest.approx(
            np.linalg.norm(A - np.kron(f.B, f.C)), rel=1e-9
        )

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        A = cplx(rng, 4, 6)
        c = 3.7
        f, fc = nkp(A, 2, 3), nkp(c * A, 2, 3)
        assert fc.residual == pytest.approx(c * f.residual, rel=1e-10)
        assert rel_err(np.kron(fc.B, fc.C), c * np.kron(f.B, f.C)) <= 1e-10

    def test_optimality_spot_check(self):
        rng = np.random.default_rng(6)
        A = cplx(rng, 6, 4)
        f = nkp(A, 3, 2)
        for _ in range(50):
            Bc, Cc = cplx(rng, 2, 2), cplx(rng, 3, 2)
            assert f.residual <= np.linalg.norm(A - np.kron(Bc, Cc)) + 1e-12

    @pytest.mark.parametrize("A", [np.ones(4), 5.0])
    def test_non_matrix_is_a_dimension_error(self, A):
        with pytest.raises(DimensionError, match="expects a matrix"):
            nkp(A, 2, 2)

    def test_divisibility_error(self):
        with pytest.raises(DimensionError):
            nkp(np.zeros((4, 4)), 3, 2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: nkp(np.zeros((0, 4)), 2, 2),
            lambda: nkp(np.zeros((0, 4)), 2, 2, blocks=(0, 2)),
            lambda: leading_triplet(np.zeros((0, 5))),
        ],
        ids=["matrix", "blocks", "leading_triplet"],
    )
    def test_empty_matrix_is_a_dimension_error(self, call):
        with pytest.raises(DimensionError, match="nonempty matrix"):
            call()

    @given(
        m1=st.integers(1, 8),
        m2=st.integers(1, 8),
        n1=st.integers(1, 8),
        n2=st.integers(1, 8),
        spike=st.sampled_from([0.0, 1.0, 4.0]),
        noise=st.sampled_from([1.0, 1e-2, 1e-3]),
        path=st.sampled_from(["dense", "lanczos"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # A 64 x 36 noise rearrangement that ends at the Lanczos budget.
    @example(m1=8, m2=6, n1=8, n2=6, spike=0.0, noise=1.0, path="lanczos", seed=1)
    @settings(deadline=None, max_examples=80)
    def test_matches_dense_path(self, m1, m2, n1, n2, spike, noise, path, seed):
        # Each path is forced: "dense" sends every size to the dense SVD,
        # "lanczos" every size to the Lanczos solver.  With a spike, the
        # noise levels put the tail ratio (||R||^2 - s1^2) / ||R||^2 on both
        # sides of _TAIL_MIN: about 5e-5 at spike 1 and noise 1e-2, and
        # below 1e-5 at noise 1e-3.
        rng = np.random.default_rng(seed)
        A = noise * cplx(rng, m1 * m2, n1 * n2)
        A = A + spike * np.kron(cplx(rng, m1, n1), cplx(rng, m2, n2))
        ref, tail = dense_kron(A, m2, n2)
        s = np.linalg.svd(rearrange(A, m2, n2), compute_uv=False)
        norm2 = np.sum(s**2)
        side = "above" if tail**2 > nkp_module._TAIL_MIN * norm2 else "below"
        with mock.patch.object(nkp_module, "_DENSE_WORK", 1 << 62 if path == "dense" else 0):
            f = nkp(A, m2, n2)
        # The pair's triplet is (|b| |c|, b / |b|, conj(c) / |c|); the budget
        # ended the run when it is not converged to the solver's tolerance.
        b, c = vec(f.B), vec(f.C)
        cc = np.vdot(c, c).real
        resid = np.linalg.norm(rearrange(A, m2, n2) @ c.conj() - cc * b)
        budget = resid > 2 * svd_module._GKL_TOL * cc * np.linalg.norm(b)
        event(f"{path}, tail ratio {side} _TAIL_MIN" + (", budget" if budget else ""))
        scale = np.linalg.norm(A)
        if budget:
            # e1 of a Ritz triplet short of convergence is above the optimum
            # (by at most 3.5e-14 relative at these sizes, measured).
            assert tail * (1 - 1e-12) <= f.residual <= tail * (1 + 1e-5)
        else:
            gap = 1.0 if s.size == 1 else (s[0] - s[1]) / s[0]
            assert rel_err(np.outer(b, c), ref) <= 1e-10 / max(gap, 1e-6)
            assert f.residual == pytest.approx(tail, rel=1e-9, abs=1e-12 * scale)
        direct = np.linalg.norm(A - np.kron(f.B, f.C))
        assert f.residual == pytest.approx(direct, rel=1e-9, abs=1e-12 * scale)

    def test_residual_is_direct_near_exact_structure(self):
        # A tail far below ||A|| * sqrt(eps) vanishes in sqrt(||A||^2 - s1^2);
        # the direct residual still resolves it.
        rng = np.random.default_rng(9)
        A = np.kron(cplx(rng, 4, 3), cplx(rng, 2, 5))
        E = 1e-10 * cplx(rng, *A.shape)
        f = nkp(A + E, 2, 5)
        _, tail = dense_kron(A + E, 2, 5)
        assert f.residual == pytest.approx(tail, rel=1e-4)
        assert f.residual == pytest.approx(np.linalg.norm(A + E - np.kron(f.B, f.C)), rel=1e-9)

    def test_bitwise_repeatable(self):
        rng = np.random.default_rng(10)
        A = cplx(rng, 32, 24)
        f1, f2 = nkp(A, 4, 4), nkp(A.copy(), 4, 4)
        assert np.array_equal(f1.B, f2.B)
        assert np.array_equal(f1.C, f2.C)
        assert f1.residual == f2.residual

    def test_no_dense_svd_when_lanczos_converges(self, monkeypatch):
        spy = CountingSvd()
        monkeypatch.setattr(nkp_module, "svd", spy)
        rng = np.random.default_rng(11)
        nkp(np.kron(cplx(rng, 8, 8), cplx(rng, 8, 8)) + 0.01 * cplx(rng, 64, 64), 8, 8)
        assert spy.calls == 0

    @pytest.mark.parametrize("m1, m2, dense", [(16, 4, 1), (6, 8, 0)])
    def test_small_rearrangement_takes_dense_svd(self, monkeypatch, m1, m2, dense):
        # m1 = 16, m2 = 4 rearranges to 256 x 16, at the dense-work limit;
        # m1 = 6, m2 = 8 rearranges to 36 x 64, just above it.
        spy = CountingSvd()
        monkeypatch.setattr(nkp_module, "svd", spy)
        rng = np.random.default_rng(13)
        A = np.kron(cplx(rng, m1, m1), cplx(rng, m2, m2)) + 0.01 * cplx(rng, m1 * m2, m1 * m2)
        f = nkp(A, m2, m2)
        assert spy.calls == dense
        ref, tail = dense_kron(A, m2, m2)
        assert rel_err(np.outer(vec(f.B), vec(f.C)), ref) <= 1e-10
        assert f.residual == pytest.approx(tail, rel=1e-9)

    def test_flat_spectrum_keeps_the_budget_triplet(self, monkeypatch):
        # A rearrangement with relative gaps of 0.2% outlasts the Lanczos
        # budget; nkp keeps the Ritz triplet it reached and calls no other
        # solver.  Its e1 is within a relative 1e-5 above the optimum, and
        # is the norm of A - B ⊗ C all the same.
        spy = CountingSvd()
        monkeypatch.setattr(nkp_module, "svd", spy)
        shapes = []
        real_triplet = nkp_module._leading_triplet
        monkeypatch.setattr(
            nkp_module, "_leading_triplet", lambda R: shapes.append(R.shape) or real_triplet(R)
        )
        rng = np.random.default_rng(12)
        k = 8
        assert k * k > svd_module._GKL_STEPS
        assert (k * k) ** 3 > nkp_module._DENSE_WORK
        R = with_spectrum(rng, k * k, k * k, np.linspace(1.0, 0.9, k * k))
        A = unrearrange(R, k, k, k, k)
        f = nkp(A, k, k)
        assert spy.calls == 0
        assert shapes == [(k * k, k * k)]
        _, tail = dense_kron(A, k, k)
        assert tail * (1 - 1e-12) <= f.residual <= tail * (1 + 1e-5)
        assert f.residual == pytest.approx(np.linalg.norm(A - np.kron(f.B, f.C)), rel=1e-9)

    def test_start_vector_in_the_null_space_restarts(self):
        # R = x v^H with v orthogonal to the solver's start w, and x and v
        # built so that R w is exactly zero: Lanczos starts again from R's
        # largest column, in R's own arithmetic (complex, then real), and
        # finds the exact triplet.
        n = 64
        w = np.random.default_rng(0).standard_normal(n)
        v = np.zeros(n)
        v[0], v[1] = w[1], -w[0]
        for third in (0.5j, 0.5):
            x = np.resize([1.0, -2.0, third, 4.0], n)
            R = np.outer(x, v)
            assert R.any() and not (R @ w).any()
            f, d = leading_triplet(R), svd(R)
            assert f.U.dtype == f.V.dtype == R.dtype
            assert f.sigma[0] == pytest.approx(d.sigma[0], rel=1e-12)
            assert_allclose(f.U[:, 0], d.U[:, 0], rtol=0, atol=1e-12)
            assert_allclose(f.V[:, 0], d.V[:, 0], rtol=0, atol=1e-12)
            A = unrearrange(R, 8, 8, 8, 8)
            f = nkp(A, 8, 8)
            assert f.B.dtype == f.C.dtype == R.dtype
            ref, tail = dense_kron(A, 8, 8)
            assert rel_err(np.outer(vec(f.B), vec(f.C)), ref) <= 1e-12
            assert f.residual <= 1e-12 * np.linalg.norm(A) and tail <= 1e-12 * np.linalg.norm(A)


class TestScale:
    """Out-of-range input is factored at unit scale (``svd._NORM2_RANGE``)."""

    @pytest.mark.parametrize(
        "c",
        [2.0**-540, 1e-165, 1e-160, 1e160, 1e200, 2.0**530],
        ids=["2^-540", "1e-165", "1e-160", "1e160", "1e200", "2^530"],
    )
    @pytest.mark.parametrize("path", ["dense", "lanczos", "budget"])
    def test_factors_scale_with_the_input(self, monkeypatch, path, c):
        A, m2, solvers = scale_case(path)
        f = nkp(A, m2, m2)
        calls = []
        for name in ("svd", "_leading_triplet"):
            real = getattr(nkp_module, name)
            monkeypatch.setattr(
                nkp_module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fc = nkp(c * A, m2, m2)
            assert calls == solvers
            e1, e2, bound = error_bound_matrix(c * A, m2, m2, 2)
            err = scaled_norm(c * A - reconstruct(mat_stp_svd_trunc(c * A, m2, m2, 2)))
        assert fc.residual == pytest.approx(c * f.residual, rel=1e-12)
        want = c * np.kron(f.B, f.C)
        assert scaled_norm(np.kron(fc.B, fc.C) - want) <= FACTOR_TOL[path] * scaled_norm(want)
        assert e1 == fc.residual and e2 > 0.0
        assert bound >= err

    @pytest.mark.parametrize("c", [1.0, 1e200], ids=["1", "1e200"])
    def test_lanczos_path_reads_the_scale_once(self, monkeypatch, c):
        # nkp's own scale check is the only norm pass: the Lanczos core
        # takes R as nkp hands it over, and gives what the public solver,
        # which checks the scale again, gives for it.
        A, m2, _ = scale_case("lanczos")
        with mock.patch.object(nkp_module, "_leading_triplet", leading_triplet):
            want = nkp(c * A, m2, m2)
        calls = []
        real = nkp_module._scale
        monkeypatch.setattr(nkp_module, "_scale", lambda R, name: calls.append(name) or real(R, name))
        monkeypatch.setattr(svd_module, "_scale", lambda R, name: pytest.fail("second scale pass"))
        got = nkp(c * A, m2, m2)
        assert calls == ["nkp"]
        assert same_bytes(got.B, want.B) and same_bytes(got.C, want.C)
        assert got.residual == want.residual

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("path", ["dense", "lanczos", "budget"])
    def test_non_finite_entry_is_a_numeric_error(self, path, bad):
        A, m2, _ = scale_case(path)
        A[5, 3] = bad
        with pytest.raises(NumericError, match="NaN or Inf"):
            nkp(A, m2, m2)


class TestRealInput:
    """Real input is factored in real arithmetic into real factors."""

    @pytest.mark.parametrize("path", ["dense", "lanczos", "budget"])
    @pytest.mark.parametrize("blocks", [False, True], ids=["matrix", "blocks"])
    def test_real_factors_match_the_complex_route(self, monkeypatch, path, blocks):
        A, m2, solvers = scale_case(path)
        A = A.real.copy()
        m1, n1 = A.shape[0] // m2, A.shape[1] // m2

        def run(X):
            if blocks:
                return nkp(rearranged(X, m2, m2), m2, m2, blocks=(m1, n1))
            return nkp(X, m2, m2)

        want = run(A.astype(np.complex128))
        calls = []
        for name in ("svd", "_leading_triplet"):
            real = getattr(nkp_module, name)
            monkeypatch.setattr(
                nkp_module, name, lambda *a, real=real: calls.append(a[0].dtype) or real(*a)
            )
        got = run(A)
        assert calls == [np.float64] * len(solvers)
        assert got.B.dtype == got.C.dtype == np.float64
        kron, ref = np.kron(got.B, got.C), np.kron(want.B, want.C)
        assert np.linalg.norm(kron - ref) <= FACTOR_TOL[path] * np.linalg.norm(ref)
        assert got.residual == pytest.approx(want.residual, rel=1e-12)

    def test_dtype_rule(self):
        # Integers are factored as float64, and an object array of complex
        # numbers as complex128, as tensor.as_array3 has it.
        A = np.arange(24).reshape(4, 6)
        got, want = nkp(A, 2, 3), nkp(A.astype(np.float64), 2, 3)
        assert same_bytes(got.B, want.B) and same_bytes(got.C, want.C)
        Z = A + 1j
        got, want = nkp(Z.astype(object), 2, 3), nkp(Z, 2, 3)
        assert want.B.dtype == np.complex128
        assert same_bytes(got.B, want.B) and same_bytes(got.C, want.C)


class TestRearrangedInput:
    def test_blocks_give_the_same_factors_and_leave_the_input_alone(self):
        # The matrix and its rearrangement in the matrix's dtype give the same
        # bytes, real or complex and from C or Fortran order.  The shapes are
        # (m1, m2, n1, n2): dense and Lanczos sizes, and m1 = n1 = 1 and
        # n1 = m2 = 1, where nkp reads a Fortran- or C-ordered matrix's
        # rearrangement as a view of it.
        rng = np.random.default_rng(30)
        shapes = [(6, 4, 8, 5), (8, 8, 8, 8), (1, 4, 1, 5), (3, 1, 1, 4)]
        for (m1, m2, n1, n2), real, order in itertools.product(shapes, (False, True), "CF"):
            A = cplx(rng, m1 * m2, n1 * n2)
            A = np.array(A.real if real else A, order=order)
            A0, R = A.copy(), rearranged(A, m2, n2)
            R0 = R.copy()
            want = nkp(A, m2, n2)
            got = nkp(R, m2, n2, blocks=(m1, n1))
            assert same_bytes(A, A0) and same_bytes(R, R0)
            assert same_bytes(got.B, want.B) and same_bytes(got.C, want.C)
            assert got.residual == want.residual
            mat_stp_svd_trunc(R, m2, n2, 1, blocks=(m1, n1))
            assert same_bytes(R, R0)

    def test_blocks_must_match_the_rearrangement(self, monkeypatch):
        R = np.zeros((12, 6), dtype=np.complex128)
        shape = r"^rearrangement shape \(12, 6\) is not \(9, 6\)$"
        with pytest.raises(DimensionError, match=shape):
            nkp(R, 2, 3, blocks=(3, 3))
        # The matrix route checks the shape before NKP runs.
        monkeypatch.setattr(decomp_module, "nkp", lambda *a, **k: pytest.fail("nkp ran"))
        with pytest.raises(DimensionError, match=shape):
            mat_stp_svd_trunc(R, 2, 3, 1, blocks=(3, 3))

    def test_no_temporary_the_size_of_the_rearrangement(self):
        # The residual comes from ||R||^2 - s1^2 here (tail ratio about
        # 5e-3), so neither call allocates anything near R's size; numpy
        # reports its buffers to tracemalloc.
        rng = np.random.default_rng(32)
        A = np.kron(cplx(rng, 16, 16), cplx(rng, 16, 16)) + 0.1 * cplx(rng, 256, 256)
        R = rearrange(A, 16, 16)
        calls = {
            "nkp": lambda: nkp(R, 16, 16, blocks=(16, 16)),
            "mat_stp_svd_trunc": lambda: mat_stp_svd_trunc(R, 16, 16, 4, blocks=(16, 16)),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < R.nbytes / 2, (name, peak / R.nbytes)

    def test_in_place_residual_matches_the_kron_difference(self):
        rng = np.random.default_rng(31)
        A = np.kron(cplx(rng, 41, 100), cplx(rng, 2, 2)) + 0.1 * cplx(rng, 82, 200)
        R = rearrange(A, 2, 2)
        f = nkp(R, 2, 2, blocks=(41, 100))
        assert f.residual == pytest.approx(np.linalg.norm(A - np.kron(f.B, f.C)), rel=1e-12)
