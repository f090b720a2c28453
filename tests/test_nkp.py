import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import cplx, rel_err, same_bytes, with_spectrum
from stpz.errors import DimensionError
from stpz.nkp import nkp, rearrange, rearrange_slices
from stpz.svd import svd

# The package re-exports the function stpz.nkp, so the module is looked up
# by its full name.
nkp_module = importlib.import_module("stpz.nkp")
svd_module = importlib.import_module("stpz.svd")


def vec(M):
    return np.asarray(M).flatten(order="F")


def unrearrange(R, m1, n1, m2, n2):
    """Inverse of rearrange: the matrix A with rearrange(A, m2, n2) == R."""
    return R.reshape(n1, m1, n2, m2).transpose(1, 3, 0, 2).reshape(m1 * m2, n1 * n2)


def dense_kron(A, m2, n2):
    """sigma_1 u1 v1^H of the rearrangement from the dense svd: the
    rearranged B ⊗ C of the reference path."""
    f = svd(rearrange(A, m2, n2))
    return f.sigma[0] * np.outer(f.U[:, 0], f.V[:, 0].conj()), np.linalg.norm(f.sigma[1:])


class CountingSvd:
    """Stand-in for nkp's ``svd`` name that counts the dense fallbacks."""

    def __init__(self):
        self.calls = 0

    def __call__(self, A):
        self.calls += 1
        return svd(A)


class TestRearrange:
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
        with pytest.raises(DimensionError):
            rearrange(np.zeros((6, 6)), 4, 2)

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


class TestRearrangeSlices:
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64, np.complex128])
    def test_each_slice_is_rearranged_in_the_input_dtype(self, dtype):
        rng = np.random.default_rng(20)
        A = rng.integers(0, 256, size=(6, 8, 3)).astype(dtype)
        S = rearrange_slices(A, 3, 2)
        assert S.dtype == dtype and S.shape == (3, 8, 6) and S.flags.c_contiguous
        for k in range(3):
            assert same_bytes(S[k].astype(np.complex128), rearrange(A[:, :, k], 3, 2))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_never_aliases_input(self, order):
        # With m1 = n1 = 1 the reshape of a Fortran-ordered array is a view.
        A = np.array(np.arange(24.0).reshape(3, 4, 2), order=order)
        S = rearrange_slices(A, 3, 4)
        assert not np.shares_memory(S, A)
        assert S.flags.c_contiguous

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            rearrange_slices(np.zeros((4, 4)), 2, 2)
        with pytest.raises(DimensionError):
            rearrange_slices(np.zeros((4, 4, 2)), 3, 2)


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

    def test_divisibility_error(self):
        with pytest.raises(DimensionError):
            nkp(np.zeros((4, 4)), 3, 2)

    @given(
        m1=st.integers(1, 8),
        m2=st.integers(1, 8),
        n1=st.integers(1, 8),
        n2=st.integers(1, 8),
        spike=st.sampled_from([0.0, 1.0, 4.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=40)
    def test_matches_dense_path(self, m1, m2, n1, n2, spike, seed):
        rng = np.random.default_rng(seed)
        A = cplx(rng, m1 * m2, n1 * n2)
        A = A + spike * np.kron(cplx(rng, m1, n1), cplx(rng, m2, n2))
        f = nkp(A, m2, n2)
        ref, tail = dense_kron(A, m2, n2)
        s = np.linalg.svd(rearrange(A, m2, n2), compute_uv=False)
        gap = 1.0 if s.size == 1 else (s[0] - s[1]) / s[0]
        got = np.outer(vec(f.B), vec(f.C))
        assert rel_err(got, ref) <= 1e-10 / max(gap, 1e-6)
        assert f.residual == pytest.approx(tail, rel=1e-9, abs=1e-12 * np.linalg.norm(A))

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

    def test_flat_spectrum_falls_back_to_dense(self, monkeypatch):
        # A rearrangement with relative gaps of 0.2% outlasts the Lanczos
        # budget; nkp then takes the triplet from its ``svd`` name.
        spy = CountingSvd()
        monkeypatch.setattr(nkp_module, "svd", spy)
        rng = np.random.default_rng(12)
        k = 8
        assert k * k > svd_module._GKL_STEPS
        R = with_spectrum(rng, k * k, k * k, np.linspace(1.0, 0.9, k * k))
        A = unrearrange(R, k, k, k, k)
        f = nkp(A, k, k)
        assert spy.calls == 1
        d = svd(R)
        s1 = np.sqrt(d.sigma[0])
        assert np.array_equal(f.B, (s1 * d.U[:, 0]).reshape((k, k), order="F"))
        assert np.array_equal(f.C, (s1 * np.conj(d.V[:, 0])).reshape((k, k), order="F"))
        assert f.residual == pytest.approx(np.linalg.norm(d.sigma[1:]), rel=1e-12)


class TestRearrangedInput:
    def test_blocks_give_the_same_factors_and_may_overwrite(self):
        rng = np.random.default_rng(30)
        A = cplx(rng, 24, 40)
        want = nkp(A, 4, 5)
        R = rearrange(A, 4, 5)
        got = nkp(R, 4, 5, blocks=(6, 8))
        assert same_bytes(got.B, want.B) and same_bytes(got.C, want.C)
        assert got.residual == pytest.approx(want.residual, rel=1e-12)

    def test_blocks_must_match_the_rearrangement(self):
        R = np.zeros((12, 6), dtype=np.complex128)
        with pytest.raises(DimensionError):
            nkp(R, 2, 3, blocks=(3, 3))

    def test_in_place_residual_matches_the_kron_difference(self):
        rng = np.random.default_rng(31)
        A = np.kron(cplx(rng, 41, 100), cplx(rng, 2, 2)) + 0.1 * cplx(rng, 82, 200)
        R = rearrange(A, 2, 2)
        f = nkp(R, 2, 2, blocks=(41, 100))
        assert f.residual == pytest.approx(np.linalg.norm(A - np.kron(f.B, f.C)), rel=1e-12)
