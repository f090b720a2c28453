import importlib
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from helpers import cplx, rel_err, same_bytes, textured_samples
from stpz.codec import Method, deserialize, serialize, storage_count
from stpz.decomp import (
    IMAG_TOL,
    MatStpSvd,
    TensorStpSvd,
    decode_samples,
    error_bound_matrix,
    error_bound_tensor,
    mat_stp_svd,
    mat_stp_svd_trunc,
    reconstruct,
    t_svd,
    t_svd_trunc,
    tensor_stp_svd,
    tensor_stp_svd_trunc,
)
from stpz.errors import DimensionError
from stpz.imaging import tensor_to_image
from stpz.nkp import nkp, rearrange
from stpz.svd import SvdResult, svd
from stpz.synthetic import structured_test_image
from stpz.tensor import (
    dft3,
    frobenius_norm,
    identity_tensor,
    idft3,
    is_f_diagonal,
    is_unitary_tensor,
)

# The package re-exports functions named like their modules, so the module
# is looked up by its full name.
decomp_module = importlib.import_module("stpz.decomp")


def kron_structured_tensor(rng, m1, m2, n1, n2, l, rank=None):
    """Tensor whose DFT slices are exact Kronecker products B_i ⊗ C_i."""
    Th = np.empty((m1 * m2, n1 * n2, l), dtype=np.complex128)
    for i in range(l):
        if rank is None:
            B = cplx(rng, m1, n1)
        else:
            B = cplx(rng, m1, rank) @ cplx(rng, rank, n1)
        Th[:, :, i] = np.kron(B, cplx(rng, m2, n2))
    return idft3(Th)


def image_factors(rng):
    """Factors of a 12 x 8 x 3 image at m2 = 3, n2 = 2 and rank 2, so dims
    (4, 3, 4, 2, 3)."""
    return tensor_stp_svd_trunc(
        rng.integers(0, 256, size=(12, 8, 3), dtype=np.uint8), 3, 2, [2] * 3
    )


# Changes to slice 1 of image_factors that leave no valid factorization, with
# the match of the DimensionError that building it raises.
MISSHAPEN = {
    "C transposed": (lambda s: {"C": s.C.T}, "factor shapes"),
    "U short of sigma": (lambda s: {"U": s.U[:, :1]}, "factor shapes"),
    "V short of sigma": (lambda s: {"V": s.V[:, :1]}, "factor shapes"),
    "sigma not 1-D": (lambda s: {"sigma": s.sigma[None]}, "factor shapes"),
    "zero dim in C": (lambda s: {"C": s.C[:, :0]}, "factor shapes"),
    "rank 0": (
        lambda s: {"U": s.U[:, :0], "sigma": s.sigma[:0], "V": s.V[:, :0]},
        "entry 0 out of range",
    ),
    "rank above min(m1, n1)": (
        lambda s: {"U": np.eye(4, 5), "sigma": np.ones(5), "V": np.eye(4, 5)},
        r"entry 5 out of range \[1, 4\]",
    ),
    "other dims": (
        lambda s: vars(mat_stp_svd(np.ones((6, 6)), 3, 3)),
        "factor shapes",
    ),
}


class TestMatStpSvd:
    def test_exact_kron_input(self):
        rng = np.random.default_rng(0)
        A = np.kron(cplx(rng, 3, 3), cplx(rng, 2, 2))
        F = mat_stp_svd(A, 2, 2)
        assert np.linalg.norm(reconstruct(F) - A) <= 1e-10 * np.linalg.norm(A)

    def test_scalar_c_reduces_to_svd(self):
        rng = np.random.default_rng(1)
        A = cplx(rng, 4, 5)
        F = mat_stp_svd(A, 1, 1)
        assert F.C.shape == (1, 1)
        assert np.linalg.norm(reconstruct(F) - A) <= 1e-10 * np.linalg.norm(A)
        assert_allclose(F.sigma * abs(F.C[0, 0]), svd(A).sigma, rtol=1e-10)

    def test_residual_equals_rearrangement_tail(self):
        rng = np.random.default_rng(2)
        A = cplx(rng, 6, 6)
        F = mat_stp_svd(A, 2, 2)
        sig = np.linalg.svd(rearrange(A, 2, 2), compute_uv=False)
        actual = np.linalg.norm(A - reconstruct(F))
        assert actual == pytest.approx(np.linalg.norm(sig[1:]), rel=1e-9)

    def test_reconstruct_matches_literal_factor_chain(self):
        rng = np.random.default_rng(3)
        A = cplx(rng, 6, 6)
        F = mat_stp_svd(A, 2, 3)
        m2, n2 = 2, 3
        literal = (
            np.kron(F.U, np.eye(m2))
            @ np.kron(np.diag(F.sigma), F.C)
            @ np.kron(F.V.conj().T, np.eye(n2))
        )
        assert rel_err(reconstruct(F), literal) <= 1e-12

    def test_divisibility_error(self):
        with pytest.raises(DimensionError):
            mat_stp_svd(np.zeros((6, 6)), 4, 2)

    def test_non_matrix(self):
        with pytest.raises(DimensionError, match="mat_stp_svd_trunc expects a matrix"):
            mat_stp_svd_trunc(np.ones(4), 2, 2, 1)


class TestMatStpSvdTrunc:
    def test_full_rank_matches_untruncated(self):
        rng = np.random.default_rng(4)
        A = cplx(rng, 6, 6)
        F = mat_stp_svd(A, 2, 2)
        G = mat_stp_svd_trunc(A, 2, 2, 3)
        assert np.array_equal(F.U, G.U)
        assert np.array_equal(F.sigma, G.sigma)
        assert np.array_equal(F.V, G.V)
        assert np.array_equal(F.C, G.C)

    def test_low_rank_kron_is_exact(self):
        rng = np.random.default_rng(5)
        B = cplx(rng, 4, 2) @ cplx(rng, 2, 4)  # rank 2
        A = np.kron(B, cplx(rng, 2, 2))
        F = mat_stp_svd_trunc(A, 2, 2, 2)
        assert np.linalg.norm(reconstruct(F) - A) <= 1e-10 * np.linalg.norm(A)

    def test_error_within_bound_for_all_ranks(self):
        rng = np.random.default_rng(6)
        A = cplx(rng, 8, 8)
        scale = np.linalg.norm(A)
        for r in (1, 2, 3, 4):
            F = mat_stp_svd_trunc(A, 2, 2, r)
            err = np.linalg.norm(A - reconstruct(F))
            _, _, bound = error_bound_matrix(A, 2, 2, r)
            assert err <= bound + 1e-9 * scale

    def test_block_norm_monotonicity_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = cplx(rng, 8, 8)
            F = mat_stp_svd(A, 2, 2)
            norms = F.sigma * np.linalg.norm(F.C)
            assert np.all(np.diff(norms) <= 0)

    def test_truncation_nesting(self):
        rng = np.random.default_rng(8)
        A = cplx(rng, 8, 8)
        errs = []
        prev = None
        for r in (1, 2, 3, 4):
            F = mat_stp_svd_trunc(A, 2, 2, r)
            errs.append(np.linalg.norm(A - reconstruct(F)))
            if prev is not None:
                assert np.array_equal(F.U[:, : prev.rank], prev.U)
                assert np.array_equal(F.sigma[: prev.rank], prev.sigma)
                assert np.array_equal(F.V[:, : prev.rank], prev.V)
            prev = F
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_rank_out_of_range(self):
        with pytest.raises(DimensionError):
            mat_stp_svd_trunc(np.zeros((4, 4)), 2, 2, 3)


class TestTensorStpSvd:
    def test_exact_structure_reconstructs(self):
        rng = np.random.default_rng(9)
        A = kron_structured_tensor(rng, 3, 2, 3, 2, 4)
        F = tensor_stp_svd(A, 2, 2)
        assert rel_err(reconstruct(F), A) <= 1e-9

    def test_single_slice_matches_matrix_case_bitwise(self):
        rng = np.random.default_rng(10)
        A = cplx(rng, 4, 6, 1)
        F = tensor_stp_svd(A, 2, 3)
        G = mat_stp_svd(A[:, :, 0], 2, 3)
        s = F.slices[0]
        assert np.array_equal(s.U, G.U)
        assert np.array_equal(s.sigma, G.sigma)
        assert np.array_equal(s.C, G.C)
        assert np.array_equal(s.V, G.V)

    def test_parseval_error_identity(self):
        rng = np.random.default_rng(11)
        A = cplx(rng, 4, 4, 3)
        F = tensor_stp_svd(A, 2, 2)
        actual_sq = frobenius_norm(A - reconstruct(F)) ** 2
        Ah = dft3(A)
        per_slice = sum(
            np.linalg.norm(Ah[:, :, i] - reconstruct(F.slices[i])) ** 2
            for i in range(3)
        )
        assert actual_sq == pytest.approx(per_slice / 3, rel=1e-9)

    def test_real_input_flag_and_residue(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(4, 4, 3))
        F = tensor_stp_svd(A, 2, 2)
        assert F.real_input
        out = reconstruct(F)
        assert np.max(np.abs(out.imag)) <= 1e-9 * frobenius_norm(A)
        assert not tensor_stp_svd(A + 1j, 2, 2).real_input

    def test_nested_lists_are_tensors(self):
        A = textured_samples(np.random.default_rng(8), 24, 16, 3)
        F, G = tensor_stp_svd(A.tolist(), 3, 2), tensor_stp_svd(A, 3, 2)
        assert F.block_rank == G.block_rank
        assert rel_err(reconstruct(F), reconstruct(G)) <= 1e-12


class TestTensorStpSvdTrunc:
    def test_full_rank_equals_untruncated(self):
        rng = np.random.default_rng(14)
        A = cplx(rng, 4, 4, 3)
        F = tensor_stp_svd(A, 2, 2)
        G = tensor_stp_svd_trunc(A, 2, 2, [2, 2, 2])
        for s1, s2 in zip(F.slices, G.slices):
            assert np.array_equal(s1.U, s2.U)
            assert np.array_equal(s1.sigma, s2.sigma)

    def test_low_rank_structure_is_exact(self):
        rng = np.random.default_rng(15)
        A = kron_structured_tensor(rng, 4, 2, 4, 2, 3, rank=2)
        F = tensor_stp_svd_trunc(A, 2, 2, [2, 2, 2])
        assert rel_err(reconstruct(F), A) <= 1e-8

    def test_per_slice_ranks_and_bound(self):
        rng = np.random.default_rng(16)
        A = cplx(rng, 8, 8, 3)
        R = [1, 2, 3]
        F = tensor_stp_svd_trunc(A, 2, 2, R)
        assert F.block_rank == R
        assert [s.sigma.size for s in F.slices] == R
        err = frobenius_norm(A - reconstruct(F))
        assert err <= error_bound_tensor(A, 2, 2, R) + 1e-9 * frobenius_norm(A)

    def test_zero_fourier_slice_degenerates_cleanly(self):
        rng = np.random.default_rng(17)
        Th = np.zeros((4, 4, 3), dtype=np.complex128)
        Th[:, :, 0] = np.kron(cplx(rng, 2, 2), cplx(rng, 2, 2))
        Th[:, :, 2] = np.kron(cplx(rng, 2, 2), cplx(rng, 2, 2))
        A = idft3(Th)
        F = tensor_stp_svd_trunc(A, 2, 2, [2, 2, 2])
        # DFT roundtrip noise keeps the middle slice from being exactly zero,
        # but its factors stay at noise level and contribute nothing.
        near_zero = F.slices[1]
        assert np.linalg.norm(reconstruct(near_zero)) <= 1e-12 * frobenius_norm(A)
        assert_allclose(near_zero.sigma, 0.0, atol=1e-7)
        assert rel_err(reconstruct(F), A) <= 1e-9

    def test_exactly_zero_matrix_gives_zero_factors(self):
        F = mat_stp_svd_trunc(np.zeros((4, 4)), 2, 2, 2)
        assert not F.C.any()
        assert_allclose(F.sigma, 0.0)
        assert F.sigma.size == 2
        assert not reconstruct(F).any()

    def test_block_rank_validation(self, monkeypatch):
        A = np.zeros((4, 4, 3))
        with pytest.raises(DimensionError):
            tensor_stp_svd_trunc(A, 2, 2, [1, 2])
        with pytest.raises(DimensionError):
            tensor_stp_svd_trunc(A, 2, 2, [1, 2, 3])
        # A bad rank is rejected before the rearranged DFT of A.
        monkeypatch.setattr(decomp_module, "_stack_dft", None)
        with pytest.raises(DimensionError, match="entry 0 out of range"):
            tensor_stp_svd_trunc(A, 2, 2, [0, 1, 1])


def test_ranks_must_be_integers():
    # A float or bool entry was truncated by int() (2.7 factored at rank 2,
    # True at 1), or met a bare TypeError later; it is now refused by name.
    img = textured_samples(np.random.default_rng(7), 24, 24, 3)
    with pytest.raises(DimensionError, match=r"^block rank entry 2\.7 is not an integer$"):
        tensor_stp_svd_trunc(img, 4, 4, [2.7, 2, True])
    with pytest.raises(DimensionError, match=r"^block rank entry True is not an integer$"):
        tensor_stp_svd_trunc(img, 4, 4, [2, 2, True])
    with pytest.raises(DimensionError, match=r"entry 2\.9 is not"):
        t_svd_trunc(img, [2.9, 1.5, 1.5])
    with pytest.raises(DimensionError, match=r"entry 2\.5 is not"):
        storage_count(Method.TRUNC_STPSVD, 6, 4, 6, 4, 3, [2.5, 2, 2])
    with pytest.raises(DimensionError, match=r"entry 2\.5 is not"):
        storage_count(Method.TRUNC_STPSVD, 6, 4, 6, 4, 3, 2.5)
    with pytest.raises(DimensionError, match=r"entry 2\.5 is not"):
        mat_stp_svd_trunc(img[:, :, 0], 4, 4, 2.5)
    with pytest.raises(DimensionError, match=r"entry 2\.5 is not"):
        structured_test_image(rank=2.5)
    # NumPy integers are ranks, as entries and as a scalar.
    R = np.array([2, 2, 1])
    assert tensor_stp_svd_trunc(img, 4, 4, R).block_rank == [2, 2, 1]
    assert t_svd_trunc(img, R).U.shape[1] == 2
    count = storage_count(Method.TRUNC_STPSVD, 6, 4, 6, 4, 3, np.int64(2))
    assert count == storage_count(Method.TRUNC_STPSVD, 6, 4, 6, 4, 3, 2)


class TestTSvd:
    def test_identity_tensor(self):
        I = identity_tensor(3, 2)
        F = t_svd(I)
        assert rel_err(reconstruct(F), I) <= 1e-12
        assert is_f_diagonal(F.S, 1e-12)

    def test_single_slice_is_matrix_svd(self):
        rng = np.random.default_rng(18)
        A = cplx(rng, 4, 3, 1)
        F = t_svd(A)
        f = svd(A[:, :, 0])
        assert_allclose(np.diagonal(F.S[:, :, 0])[:3], f.sigma, rtol=1e-12)
        assert rel_err(reconstruct(F), A) <= 1e-10

    def test_random_contracts(self):
        rng = np.random.default_rng(19)
        A = cplx(rng, 5, 4, 3)
        F = t_svd(A)
        assert rel_err(reconstruct(F), A) <= 1e-9
        assert is_unitary_tensor(F.U, 1e-9)
        assert is_unitary_tensor(F.V, 1e-9)
        assert is_f_diagonal(F.S, 1e-10)

    def test_phase_convention(self):
        # In each Fourier slice the largest-modulus entry of each leading left
        # column is real and positive, as svd's _fix_phases makes it.
        A = cplx(np.random.default_rng(26), 6, 4, 3)
        Uh = dft3(t_svd(A).U)
        for i in range(3):
            U = Uh[:, :4, i]
            top = U[np.argmax(np.abs(U), axis=0), np.arange(4)]
            assert np.all(top.real > 0)
            assert np.abs(top.imag).max() <= 1e-12

    def test_nested_lists_are_tensors(self):
        A = cplx(np.random.default_rng(27), 4, 3, 2)
        F, G = t_svd(A.tolist()), t_svd(A)
        assert rel_err(reconstruct(F), reconstruct(G)) <= 1e-12
        assert rel_err(F.U, G.U) <= 1e-12

    def test_trunc_tail_energy(self):
        rng = np.random.default_rng(20)
        A = cplx(rng, 5, 4, 3)
        Ah = dft3(A)
        R = [2, 2, 2]
        F = t_svd_trunc(A, R)
        err_sq = frobenius_norm(A - reconstruct(F)) ** 2
        tail = sum(
            np.sum(np.linalg.svd(Ah[:, :, i], compute_uv=False)[R[i] :] ** 2)
            for i in range(3)
        )
        assert err_sq == pytest.approx(tail / 3, rel=1e-9)

    def test_trunc_full_rank_reconstructs(self):
        rng = np.random.default_rng(21)
        A = cplx(rng, 4, 4, 2)
        F = t_svd_trunc(A, [4, 4])
        assert rel_err(reconstruct(F), A) <= 1e-9

    def test_trunc_gram_side_matches_the_dense_path(self, monkeypatch):
        # At 96 x 96 with R <= 48 svds takes its Gram side; the reference
        # keeps the prefix of each slice's dense svd instead.
        A = textured_samples(np.random.default_rng(25), 96, 96, 3)
        R = [20, 12, 12]
        got = reconstruct(t_svd_trunc(A, R))

        def dense_prefix(M, r):
            f = svd(M)
            return SvdResult(U=f.U[:, :r], sigma=f.sigma[:r], V=f.V[:, :r])

        monkeypatch.setattr(decomp_module, "svds", dense_prefix)
        assert rel_err(got, reconstruct(t_svd_trunc(A, R))) <= 1e-10

    def test_trunc_rank_validation(self):
        with pytest.raises(DimensionError):
            t_svd_trunc(np.zeros((4, 4, 2)), [5, 4])

    @given(
        n1=st.integers(1, 5),
        n2=st.integers(1, 5),
        l=st.integers(1, 5),
        symmetric=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=60)
    def test_trunc_real_input_tail_energy(self, n1, n2, l, symmetric, seed):
        # Half-spectrum path: the error is the Parseval-scaled dense tail
        # energy of every slice, for conjugate-paired ranks that agree or not.
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n1, n2, l))
        R = [int(r) for r in rng.integers(1, min(n1, n2) + 1, size=l)]
        if symmetric:
            R = [R[min(i, -i % l)] for i in range(l)]
        Ah = dft3(A)
        tail = sum(
            np.sum(np.linalg.svd(Ah[:, :, i], compute_uv=False)[R[i] :] ** 2)
            for i in range(l)
        )
        err_sq = frobenius_norm(A - reconstruct(t_svd_trunc(A, R))) ** 2
        assert err_sq == pytest.approx(tail / l, rel=1e-9, abs=1e-20 * np.sum(A**2))

    def _fourier_factors(self, monkeypatch, A, R):
        # Fourier-domain (Uh, Sh, Vh) as t_svd_trunc hands them to idft3,
        # and the svds calls it made.
        seen, calls = [], []
        real_idft3, real_svds = decomp_module.idft3, decomp_module.svds
        monkeypatch.setattr(
            decomp_module, "idft3", lambda X: seen.append(X) or real_idft3(X)
        )
        monkeypatch.setattr(
            decomp_module, "svds", lambda M, r: calls.append(M.dtype) or real_svds(M, r)
        )
        t_svd_trunc(A, R)
        return seen, calls

    @pytest.mark.parametrize("l", [4, 5])
    def test_trunc_real_input_mirrors_conjugate_slices(self, monkeypatch, l):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(6, 5, l))
        R = [4, 2, 3, 3, 2][:l] if l == 5 else [4, 2, 3, 2]
        factors, calls = self._fourier_factors(monkeypatch, A, R)
        # Slices 0..l//2 decomposed; the self-conjugate ones by the real SVD.
        assert len(calls) == l // 2 + 1
        assert calls[0] == np.float64
        assert (calls[l // 2] == np.float64) == (l % 2 == 0)
        for X in factors:
            for i in range(1, l):
                assert np.array_equal(X[:, :, l - i], X[:, :, i].conj())
        Uh = factors[0]
        for i in range(l):
            col = Uh[:, : R[i], i]
            for j in range(R[i]):
                k = int(np.argmax(np.abs(col[:, j])))
                assert col[k, j].imag == pytest.approx(0.0, abs=1e-14)
                assert col[k, j].real > 0

    def test_trunc_complex_input_decomposes_every_slice(self, monkeypatch):
        rng = np.random.default_rng(24)
        A = cplx(rng, 5, 4, 4)
        R = [2, 3, 1, 2]
        factors, calls = self._fourier_factors(monkeypatch, A, R)
        assert calls == [np.complex128] * 4
        ref = dft3(A)
        for i in range(4):
            U = factors[0][:, : R[i], i]
            V = factors[2][:, : R[i], i]
            S = factors[1][: R[i], : R[i], i]
            resid = np.linalg.norm(ref[:, :, i] - U @ S @ V.conj().T) ** 2
            tail = np.sum(np.linalg.svd(ref[:, :, i], compute_uv=False)[R[i] :] ** 2)
            assert resid == pytest.approx(tail, rel=1e-9)


class TestTSvdIsStpAtUnitBlocks:
    """The paper's STP-SVD generalizes the tensor SVD: at m2 = n2 = 1 each
    slice's NKP is exact (C is 1 x 1), and the truncated SVD of B is the
    truncated tubal SVD of that slice."""

    @pytest.mark.parametrize(
        "case, R",
        [("rgb", [3, 3, 3]), ("rgb", [2, 5, 4]), ("gray", [7]), ("complex", [2, 3, 4, 1])],
    )
    def test_matches_the_t_svd(self, case, R):
        rng = np.random.default_rng(31)
        if case == "rgb":
            A = textured_samples(rng, 48, 40, 3)
        elif case == "gray":
            A = textured_samples(rng, 64, 64, 1)
        else:
            A = cplx(rng, 12, 10, 4)
        F = tensor_stp_svd_trunc(A, 1, 1, R)
        want = reconstruct(t_svd_trunc(A, R))
        assert rel_err(reconstruct(F), want) <= 1e-12
        Ah = dft3(A)
        for i, s in enumerate(F.slices):
            assert s.e1 <= 1e-12 * np.linalg.norm(Ah[:, :, i])
        if case == "complex":
            # decode_samples takes images only: 1 or 3 slices.
            return
        # The T-SVD reference decode, sample for sample, under
        # assert_decodes_like_the_reference's rule for k + 0.5 ties.
        got, _ = decode_samples(F)
        diff = got.astype(int) - tensor_to_image(want).samples
        tol = 1e-12 * (1 + np.abs(want).max())
        near_tie = np.abs(want.real - np.floor(want.real) - 0.5) <= tol
        assert np.all((diff == 0) | ((np.abs(diff) == 1) & near_tie))


class TestFactorizationChecks:
    """A factorization checks itself once, when it is built, so no invalid one
    reaches reconstruct, decode_samples or serialize."""

    @pytest.mark.parametrize("case", list(MISSHAPEN))
    def test_misshapen_slice_is_refused_when_built(self, case):
        change, match = MISSHAPEN[case]
        F = image_factors(np.random.default_rng(24))
        s = F.slices[1]
        with pytest.raises(DimensionError, match=match):
            replace(F, slices=[F.slices[0], replace(s, **change(s)), F.slices[2]])

    def test_no_slices(self):
        with pytest.raises(DimensionError, match=r"factor shapes give dims \[\]"):
            TensorStpSvd(slices=[])

    def test_dims_come_from_the_slices(self):
        F = image_factors(np.random.default_rng(25))
        assert [f.name for f in fields(TensorStpSvd)] == ["slices", "real_input"]
        G = TensorStpSvd(slices=list(F.slices[:2]), real_input=True)
        assert type(G.slices) is tuple and G.slices == F.slices[:2]
        s = G.slices[1]
        assert G.dims == (s.U.shape[0], s.C.shape[0], s.V.shape[0], s.C.shape[1], 2)
        assert F.dims == (4, 3, 4, 2, 3)

    @pytest.mark.parametrize("field", ["slices", "real_input", "U"])
    def test_frozen(self, field):
        F = image_factors(np.random.default_rng(26))
        target = F.slices[0] if field == "U" else F
        with pytest.raises(FrozenInstanceError):
            setattr(target, field, getattr(target, field))

    def test_keywords_only(self):
        # TensorStpSvd(slices, dims) of the old signature must not make the
        # dims a truthy real_input.
        F = image_factors(np.random.default_rng(27))
        s = F.slices[0]
        with pytest.raises(TypeError):
            TensorStpSvd(F.slices, F.dims)
        with pytest.raises(TypeError):
            MatStpSvd(s.U, s.sigma, s.C, s.V)


class TestReconstructErrors:
    def test_inconsistent_tensor_dims(self):
        # Slices of other dims are refused when the factorization is built,
        # so reconstruct never meets them.
        rng = np.random.default_rng(22)
        F = tensor_stp_svd(cplx(rng, 4, 4, 2), 2, 2)
        with pytest.raises(DimensionError, match="factor shapes"):
            replace(F, slices=[F.slices[0], mat_stp_svd(cplx(rng, 6, 6), 3, 3)])

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            reconstruct(np.zeros((2, 2)))

    def test_drop_imag(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(4, 4, 2))
        out = reconstruct(tensor_stp_svd(A, 2, 2), drop_imag=True)
        assert out.dtype == np.float64


class TestErrorBounds:
    def test_exact_kron_full_rank_is_zero(self):
        rng = np.random.default_rng(24)
        A = np.kron(cplx(rng, 3, 3), cplx(rng, 2, 2))
        e1, e2, total = error_bound_matrix(A, 2, 2, 3)
        scale = np.linalg.norm(A)
        assert e1 <= 1e-10 * scale
        assert e2 <= 1e-10 * scale
        assert total <= 1e-10 * scale

    def test_hand_block_diagonal_case(self):
        # Two orthogonal blocks on the diagonal; the rearrangement has rows of
        # norms 4 and 3, so sigma_tilde = (4, 3, 0, 0) and e1 = 3 exactly.
        A = np.zeros((4, 4))
        A[0, 0] = 3.0
        A[3, 3] = 4.0
        e1, e2, total = error_bound_matrix(A, 2, 2, 1)
        assert e1 == pytest.approx(3.0, rel=1e-12)
        assert e2 == pytest.approx(0.0, abs=1e-12)
        assert total == pytest.approx(3.0, rel=1e-12)

    def test_e2_is_block_norm_tail(self):
        rng = np.random.default_rng(25)
        A = cplx(rng, 8, 8)
        F = mat_stp_svd(A, 2, 2)
        block_norms = F.sigma * np.linalg.norm(F.C)
        for r in (1, 2, 3):
            _, e2, _ = error_bound_matrix(A, 2, 2, r)
            assert e2 == pytest.approx(np.linalg.norm(block_norms[r:]), rel=1e-9)

    def test_tensor_bound_zero_for_exact_full(self):
        rng = np.random.default_rng(26)
        A = kron_structured_tensor(rng, 3, 2, 3, 2, 2)
        bound = error_bound_tensor(A, 2, 2, [3, 3])
        assert bound <= 1e-9 * frobenius_norm(A)

    def test_tensor_bound_single_slice_matches_matrix(self):
        rng = np.random.default_rng(27)
        A = cplx(rng, 6, 6, 1)
        _, _, total = error_bound_matrix(A[:, :, 0], 2, 2, 2)
        assert error_bound_tensor(A, 2, 2, [2]) == pytest.approx(total, rel=1e-12)

    def test_tensor_bound_dominates_actual(self):
        rng = np.random.default_rng(28)
        A = cplx(rng, 4, 4, 2)
        for R in ([1, 1], [1, 2], [2, 2]):
            F = tensor_stp_svd_trunc(A, 2, 2, R)
            err = frobenius_norm(A - reconstruct(F))
            assert err <= error_bound_tensor(A, 2, 2, R) + 1e-9 * frobenius_norm(A)
        # Noise rearranges to 1024 x 64 slices with flat spectra, whose
        # triplets are the Lanczos solver's at its step budget.
        A = rng.normal(size=(256, 256, 3))
        R = [4, 4, 4]
        err = frobenius_norm(A - reconstruct(tensor_stp_svd_trunc(A, 8, 8, R)))
        assert err <= error_bound_tensor(A, 8, 8, R)


@st.composite
def stp_cases(draw):
    """(A, m2, n2, R): a tensor of dims 1..5 with l in 1..5 slices, as uint8,
    float64 or complex128, or near exact Kronecker structure (noise of
    10^-k on Kronecker slices, k in 2..10, so the NKP tail ratio falls on
    either side of nkp._TAIL_MIN), and a random block rank per slice."""
    m1, m2, n1, n2, l = (draw(st.integers(1, 5)) for _ in range(5))
    dtype = draw(st.sampled_from(["uint8", "float64", "complex128", "near-kron"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (m1 * m2, n1 * n2, l)
    if dtype == "uint8":
        A = rng.integers(0, 256, size=shape, dtype=np.uint8)
    elif dtype == "float64":
        A = rng.normal(size=shape)
    elif dtype == "complex128":
        A = cplx(rng, *shape)
    else:
        noise = 10.0 ** -draw(st.integers(2, 10))
        A = kron_structured_tensor(rng, m1, m2, n1, n2, l) + noise * cplx(rng, *shape)
    R = [int(r) for r in rng.integers(1, min(m1, n1) + 1, size=l)]
    return A, m2, n2, R


class TestErrorTerms:
    """e1 and e2 as byproducts of the truncated route, against independent
    computations, the paper's bound and the exact error."""

    @given(case=stp_cases())
    @settings(deadline=None, max_examples=200)
    def test_terms_match_independent_computations(self, case):
        A, m2, n2, R = case
        F = tensor_stp_svd_trunc(A, m2, n2, R)
        scale = frobenius_norm(A)
        err = frobenius_norm(A - reconstruct(F))
        assert err <= error_bound_tensor(A, m2, n2, R) + 1e-9 * scale
        Ah = dft3(A)
        for i, (s, r) in enumerate(zip(F.slices, R)):
            # C04's scale: the norm of the slice the terms belong to.
            slice_scale = np.linalg.norm(Ah[:, :, i])
            sig = np.linalg.svd(rearrange(Ah[:, :, i], m2, n2), compute_uv=False)
            assert abs(s.e1 - np.linalg.norm(sig[1:])) <= 1e-9 * slice_scale
            full = nkp(Ah[:, :, i], m2, n2)
            sig_b = np.linalg.svd(full.B, compute_uv=False)
            e2 = np.linalg.norm(full.C) * np.linalg.norm(sig_b[r:])
            assert abs(s.e2 - e2) <= 1e-9 * slice_scale
        blob = serialize(F)
        G = deserialize(blob)
        assert all(s.e1 is None and s.e2 is None for s in G.slices)
        assert serialize(G) == blob

    @given(case=stp_cases())
    @settings(deadline=None, max_examples=300)
    def test_error_is_exactly_pythagorean(self, case):
        # The NKP residual and the dropped blocks are orthogonal, and by
        # Parseval each Fourier slice counts 1/l of its squared error.
        A, m2, n2, R = case
        F = tensor_stp_svd_trunc(A, m2, n2, R)
        l = A.shape[2]
        err_sq = frobenius_norm(A - reconstruct(F)) ** 2
        predicted = sum(s.e1**2 + s.e2**2 for s in F.slices) / l
        energy = frobenius_norm(A) ** 2
        assert err_sq == pytest.approx(predicted, rel=1e-9, abs=1e-20 * energy)


class TestFourierFrontEnd:
    """The STP routes' front end (the rearranged DFT along the stack, in one
    pass) against the reference dft3 and rearrange."""

    @given(
        l=st.integers(1, 6),
        m1=st.integers(1, 3),
        m2=st.integers(1, 3),
        n1=st.integers(1, 3),
        n2=st.integers(1, 3),
        dtype=st.sampled_from(["uint8", "uint8-equal", "float32", "float64", "complex128"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=150)
    def test_slices_have_the_bytes_of_dft3(self, l, m1, m2, n1, n2, dtype, seed):
        rng = np.random.default_rng(seed)
        shape = (m1 * m2, n1 * n2, l)
        if dtype.startswith("uint8"):
            A = rng.integers(0, 256, size=shape, dtype=np.uint8)
            if dtype == "uint8-equal":
                # x1 == x2 gives s = 0, where conjugating slice 1 would
                # write -0.0 for dft3's +0.0.
                A[:, :, 1:] = A[:, :, :1]
        elif dtype.startswith("float"):
            # Signed zeros, so that every +-0.0 term of the butterfly shows;
            # float32 must still be transformed in double precision.
            A = rng.choice(np.array([0.0, -0.0, 1.5, -2.25, np.pi]), size=shape).astype(dtype)
        else:
            A = rng.normal(size=shape) + 1j * rng.choice(np.array([0.0, -0.0, 1.0]), size=shape)
        # Each plane as the tensor route hands it to mat_stp_svd_trunc, copied
        # before the plane iterator conjugates slice 1's in place into slice 2's.
        planes = []
        factor = decomp_module.mat_stp_svd_trunc

        def spy(P, *args, **kwargs):
            planes.append((P.copy(), P.flags.c_contiguous))
            return factor(P, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decomp_module, "mat_stp_svd_trunc", spy)
            F = tensor_stp_svd_trunc(A, m2, n2, [1] * l)
        assert F.dims == (m1, m2, n1, n2, l)
        assert F.real_input == bool(np.all(np.imag(A) == 0))
        ref = dft3(A)
        assert len(planes) == l
        for i, (P, contiguous) in enumerate(planes):
            # A real stack's self-conjugate slices are float64 planes of
            # dft3's real part; every other plane has dft3's complex bytes.
            want = rearrange(ref[:, :, i], m2, n2)
            real = F.real_input and 2 * i % l == 0
            assert P.shape == (m1 * n1, m2 * n2) and contiguous
            assert P.dtype == (np.float64 if real else np.complex128)
            assert same_bytes(P, want.real if real else want)

    @given(
        l=st.sampled_from([1, 3]),
        m1=st.integers(1, 4),
        m2=st.integers(1, 4),
        n1=st.integers(1, 4),
        n2=st.integers(1, 4),
        ranks=st.lists(st.integers(1, 4), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(l=3, m1=3, m2=2, n1=4, n2=3, ranks=[3, 1, 2], seed=0)
    @settings(deadline=None, max_examples=100)
    def test_integer_pass_gives_the_container_of_dft3(self, l, m1, m2, n1, n2, ranks, seed):
        # The plane iterator yields slice 2 of RGB as slice 1's plane,
        # conjugated in place after slice 1 is factored, so slice 1's factors
        # must not alias that plane, also when R[1] != R[2].
        A = np.random.default_rng(seed).integers(0, 256, (m1 * m2, n1 * n2, l), dtype=np.uint8)
        R = [min(r, m1, n1) for r in ranks[:l]]
        got = serialize(tensor_stp_svd_trunc(A, m2, n2, R))
        Ah = dft3(A)
        slices = []
        for i in range(l):
            P = rearrange(Ah[:, :, i], m2, n2)
            P = np.ascontiguousarray(P.real) if i == 0 else P
            slices.append(mat_stp_svd_trunc(P, m2, n2, R[i], blocks=(m1, n1)))
        assert got == serialize(TensorStpSvd(slices=slices, real_input=True))

    def test_rgb_encode_keeps_no_whole_stack_temporary(self):
        # The half spectrum of a 512^2 RGB image is 6 MiB: slice 0 in
        # float64, slice 1 in complex128.  Whole-stack float64 temporaries
        # and a complex slice 2 took the peak to about 15 MiB.
        A = textured_samples(np.random.default_rng(66), 512, 512, 3)
        tracemalloc.start()
        try:
            tensor_stp_svd_trunc(A, 8, 8, [20] * 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak / 2**20

    @pytest.mark.parametrize("l", [1, 3])
    def test_samples_give_the_container_of_complex_input(self, l):
        # 128 x 128 with 8 x 8 blocks rearranges to 256 x 64: the Lanczos side
        # of nkp.  The complex copy takes np.fft.fft, the samples the butterfly.
        rng = np.random.default_rng(40 + l)
        A = textured_samples(rng, 128, 128, l)
        R = [6] * l
        got = serialize(tensor_stp_svd_trunc(A, 8, 8, R))
        want = serialize(tensor_stp_svd_trunc(A.astype(np.complex128), 8, 8, R))
        assert got == want

    @pytest.mark.parametrize(
        "kind, l, real",
        [
            ("gray", 1, [0]),
            ("rgb", 3, [0]),
            ("float", 2, [0, 1]),
            ("float", 4, [0, 2]),
            ("complex", 3, []),
        ],
    )
    def test_self_conjugate_slices_of_real_input_are_float64(self, kind, l, real):
        # For real input the planes and factors of slices i = -i (mod l) are
        # float64, and every other slice is complex128.
        rng = np.random.default_rng(64)
        if kind in ("gray", "rgb"):
            A = textured_samples(rng, 16, 16, l)
        elif kind == "float":
            A = rng.normal(size=(16, 16, l))
        else:
            A = cplx(rng, 16, 16, l)
        planes = decomp_module._stack_dft(A, 4, 4)
        F = tensor_stp_svd_trunc(A, 4, 4, [2] * l)
        for i, (P, s) in enumerate(zip(planes, F.slices, strict=True)):
            want = np.float64 if i in real else np.complex128
            assert P.dtype == s.U.dtype == s.C.dtype == s.V.dtype == want
        assert F.real_input == (kind != "complex")

    @pytest.mark.parametrize(
        "size, solver", [(128, "_leading_triplet"), (32, "svd")], ids=["lanczos", "dense"]
    )
    def test_real_slice_matches_its_complex_factoring(self, monkeypatch, size, solver):
        # Slice 0 of an RGB image, factored in real arithmetic, against the
        # same plane cast to complex128.  At m2 = 8 a 128 x 128 image
        # rearranges to 256 x 64 (the Lanczos side of nkp) and a 32 x 32 one
        # to 16 x 64 (the dense SVD).
        nkp_module = importlib.import_module("stpz.nkp")
        A = textured_samples(np.random.default_rng(65), size, size, 3)
        m1 = size // 8
        plane = next(decomp_module._stack_dft(A, 8, 8))
        want = mat_stp_svd_trunc(plane.astype(np.complex128), 8, 8, 4, blocks=(m1, m1))
        calls = []
        real = getattr(nkp_module, solver)
        monkeypatch.setattr(nkp_module, solver, lambda R: calls.append(R.dtype) or real(R))
        got = tensor_stp_svd_trunc(A, 8, 8, [4, 3, 3]).slices[0]
        assert calls[0] == np.float64 and got.U.dtype == np.float64
        assert_allclose(got.sigma, want.sigma, rtol=1e-12)
        assert got.e1 == pytest.approx(want.e1, rel=1e-12)
        assert got.e2 == pytest.approx(want.e2, rel=1e-12)
        assert rel_err(reconstruct(got), reconstruct(want)) <= 1e-12

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_t_svd_trunc_samples_give_the_factors_of_complex_input(self, l):
        rng = np.random.default_rng(50 + l)
        A = textured_samples(rng, 32, 24, l, equal_channels=(l == 3))
        R = [5, 3, 4][:l]
        got, want = t_svd_trunc(A, R), t_svd_trunc(A.astype(np.complex128), R)
        for name in ("U", "S", "V"):
            assert same_bytes(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64, np.float32, np.float64])
    def test_real_dtypes_never_scan_for_imaginary_parts(self, monkeypatch, dtype):
        def scan(A):
            raise AssertionError("_is_real called on a real dtype")

        monkeypatch.setattr(decomp_module, "_is_real", scan)
        rng = np.random.default_rng(60)
        A = rng.integers(0, 2 if dtype is np.bool_ else 200, size=(8, 6, 3)).astype(dtype)
        assert tensor_stp_svd_trunc(A, 2, 2, [2, 2, 2]).real_input
        assert tensor_stp_svd(A, 2, 2).real_input
        t_svd_trunc(A, [2, 2, 2])

    @pytest.mark.parametrize("imag", [0.0, -0.0, 1e-300])
    def test_complex_input_with_no_imaginary_part_takes_the_real_route(self, monkeypatch, imag):
        # A complex A whose imaginary parts are all +-0.0 is transformed as
        # its float64 real part (the butterfly); any nonzero one keeps it
        # complex128.
        seen = []
        stack_dft = decomp_module._stack_dft

        def spy(A, m2, n2):
            seen.append(A.dtype)
            return stack_dft(A, m2, n2)

        monkeypatch.setattr(decomp_module, "_stack_dft", spy)
        rng = np.random.default_rng(63)
        A = rng.integers(0, 256, size=(8, 6, 3)) + 1j * np.full((8, 6, 3), imag)
        real = imag == 0.0
        assert tensor_stp_svd_trunc(A, 2, 2, [2, 2, 2]).real_input == real
        t_svd_trunc(A, [2, 2, 2])
        want = np.float64 if real else np.complex128
        assert seen == [want, want]

    def test_object_arrays_of_complex_numbers_still_work(self):
        # An object dtype goes through complex128 and the scan for imaginary
        # parts, so object arrays of real-valued complex numbers count as real.
        rng = np.random.default_rng(61)
        A = cplx(rng, 6, 4, 3)
        for B, real in ((A, False), (A.real + 0j, True)):
            Bo = B.astype(object)
            assert isinstance(Bo[0, 0, 0], complex)
            F, G = tensor_stp_svd_trunc(Bo, 2, 2, [2, 2, 2]), tensor_stp_svd_trunc(B, 2, 2, [2, 2, 2])
            assert F.real_input == G.real_input == real
            assert serialize(F) == serialize(G)
            T, U = t_svd_trunc(Bo, [2, 2, 2]), t_svd_trunc(B, [2, 2, 2])
            assert same_bytes(T.U, U.U) and same_bytes(T.S, U.S) and same_bytes(T.V, U.V)

    def test_matrix_routes_take_a_rearranged_slice(self):
        rng = np.random.default_rng(62)
        A = cplx(rng, 12, 10)
        want = mat_stp_svd_trunc(A, 3, 2, 2)
        got = mat_stp_svd_trunc(rearrange(A, 3, 2), 3, 2, 2, blocks=(4, 5))
        assert got.dims == want.dims == (4, 3, 5, 2)
        for name in ("U", "sigma", "C", "V", "e1", "e2"):
            assert same_bytes(getattr(got, name), getattr(want, name))
        with pytest.raises(DimensionError):
            mat_stp_svd_trunc(rearrange(A, 3, 2), 3, 2, 2, blocks=(3, 5))


def assert_conjugate_slices(F):
    """Slice l - i of a real input's factors holds the conjugates of slice
    i's, for every pair 1 <= i < l - i.

    sigma matches bit for bit; U, C and V match in value, and bit for bit up
    to the sign of a zero.  Both slices are computed alike, so a part that
    rounds to zero in one rounds to a zero of the same sign in the other,
    where conj would flip it: for U and V, the imaginary part of each
    column's pivot entry, which the phase convention makes real; for C, any
    real or imaginary part that is zero (e.g. -0.0+1.267j in slice 1 and
    +0.0-1.267j in slice 2).  Adding 0.0 turns every -0.0 into +0.0.
    """
    l = len(F.slices)
    for i in range(1, (l + 1) // 2):
        a, b = F.slices[i], F.slices[l - i]
        assert same_bytes(b.sigma, a.sigma)
        for name in ("U", "C", "V"):
            got, want = getattr(b, name), getattr(a, name).conj()
            assert np.array_equal(got, want)
            assert same_bytes(got + 0.0, want + 0.0)


@st.composite
def real_symmetric_cases(draw):
    """(A, m2, n2, R): a real uint8 or float64 tensor of dims 1..5 with l in
    2..5 slices, and a block rank with R[i] == R[l - i]."""
    m1, m2, n1, n2 = (draw(st.integers(1, 5)) for _ in range(4))
    l = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (m1 * m2, n1 * n2, l)
    if draw(st.sampled_from(["uint8", "float64"])) == "uint8":
        A = rng.integers(0, 256, size=shape, dtype=np.uint8)
    else:
        A = rng.normal(size=shape)
    half = [draw(st.integers(1, min(m1, n1))) for _ in range(l // 2 + 1)]
    return A, m2, n2, [half[min(i, l - i)] for i in range(l)]


class TestConjugateSymmetry:
    """For real input, Fourier slice l - i is conj(slice i), and
    tensor_stp_svd_trunc's factors of the pair are conjugates too."""

    @given(case=real_symmetric_cases())
    @example(case=(
        np.array(
            [[[248, 194, 190], [207, 147, 26], [237, 21, 245], [211, 239, 45], [5, 157, 159]],
             [[60, 54, 236], [109, 46, 199], [82, 32, 205], [36, 7, 134], [222, 57, 146]],
             [[8, 149, 14], [15, 22, 10], [144, 208, 24], [24, 7, 41], [11, 85, 59]]],
            dtype=np.uint8,
        ),
        3, 5, [1, 1, 1],
    ))  # C[2, 3] is -0.0+1.267j in slice 1 and +0.0-1.267j in slice 2
    @settings(deadline=None, max_examples=200)
    def test_real_input_gives_conjugate_factors(self, case):
        A, m2, n2, R = case
        assert_conjugate_slices(tensor_stp_svd_trunc(A, m2, n2, R))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lanczos_side_gives_conjugate_factors(self, monkeypatch, seed):
        # 256 x 256 with 8 x 8 blocks rearranges to 1024 x 64, above
        # nkp's dense limit, so every slice's triplet comes from Lanczos.
        nkp_module = importlib.import_module("stpz.nkp")
        calls = []
        real_triplet = nkp_module._leading_triplet
        monkeypatch.setattr(
            nkp_module, "_leading_triplet", lambda R: calls.append(R.shape) or real_triplet(R)
        )
        A = textured_samples(np.random.default_rng(70 + seed), 256, 256, 3)
        assert_conjugate_slices(tensor_stp_svd_trunc(A, 8, 8, [8, 5, 5]))
        assert calls == [(1024, 64)] * 3

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gram_fallback_gives_conjugate_factors(self, monkeypatch, seed):
        # Zero-mean noise has a flat rearranged spectrum in every slice, the
        # input that once fell back to a Gram-side svds.  Now Lanczos keeps
        # its Ritz triplet at the step budget, and no other solver runs.
        nkp_module = importlib.import_module("stpz.nkp")
        calls = []
        real_triplet = nkp_module._leading_triplet
        monkeypatch.setattr(
            nkp_module, "_leading_triplet", lambda R: calls.append(R.shape) or real_triplet(R)
        )
        monkeypatch.setattr(nkp_module, "svd", lambda *a, **k: pytest.fail("dense svd called"))
        A = np.random.default_rng(80 + seed).normal(size=(256, 256, 3))
        assert_conjugate_slices(tensor_stp_svd_trunc(A, 8, 8, [8, 5, 5]))
        assert calls == [(1024, 64)] * 3


def random_factors(rng, m1, m2, n1, n2, l, R, scale, conjugate):
    """Random factors of an l-slice tensor with ranks R and singular values
    up to ``scale``.  With ``conjugate``, slice 0 is real and slice l - j
    holds the conjugates of slice j's factors, as the factors of a real
    image do; otherwise every slice is random complex."""
    slices = []
    for j in range(l):
        if conjugate and 0 < l - j < j:
            s = slices[l - j]
            slices.append(
                MatStpSvd(U=s.U.conj(), sigma=s.sigma.copy(), C=s.C.conj(), V=s.V.conj())
            )
            continue
        r = R[j]
        real = conjugate and j == 0
        U, V, C = (
            rng.normal(size=shape) + (0 if real else 1j * rng.normal(size=shape))
            for shape in ((m1, r), (n1, r), (m2, n2))
        )
        if j == 0:
            C += 4.0  # a positive mean, as an image has
        sigma = np.sort(rng.uniform(0, scale, r))[::-1]
        slices.append(MatStpSvd(U=U, sigma=sigma, C=C.astype(np.complex128), V=V))
    return slices


def tie_factors(m1, m2, n1, n2, l, halves):
    """Factors whose reconstruction is exactly ``halves / l``, replicated over
    the blocks and the channels: slice 0 is ones(m1, n1) ⊗ C, every other
    slice has rank 1 with sigma = 0 and C = 0, so it adds exact zeros."""
    C = np.reshape(halves, (m2, n2)).astype(np.complex128)
    U, V = np.ones((m1, 1)), np.ones((n1, 1))
    slices = [MatStpSvd(U=U, sigma=np.ones(1), C=C, V=V)]
    return slices + [
        MatStpSvd(U=U, sigma=np.zeros(1), C=np.zeros((m2, n2)), V=V) for _ in range(1, l)
    ]


def assert_decodes_like_the_reference(F):
    """decode_samples against tensor_to_image(reconstruct(F)), under the
    tolerance tol = 1e-12 (1 + max |reconstruct(F)|): the float plane within
    tol, equal samples except for a reference value within tol of a k + 0.5
    tie (which may differ by one), the residue within tol of the
    reference's, and the same verdict against the 1e-6 threshold as the
    reference's imaginary part, unless that lies within tol of it.  Returns
    the samples, the residue, the reference image and its verdict."""
    A = reconstruct(F)
    want = tensor_to_image(A)
    got, residue = decode_samples(F)
    tol = 1e-12 * (1 + np.abs(A).max())
    m1, m2, n1, n2, l = F.dims
    left, right = decomp_module._decode_terms(F)
    R, _ = right(0, m2)
    plane = left(0, m1).T @ R.reshape(len(R), -1)
    plane = plane.reshape(m1, n1, m2, n2, l).transpose(0, 2, 1, 3, 4).reshape(A.shape)
    assert np.abs(plane - A.real).max() <= tol
    assert got.dtype == np.uint8 and got.shape == A.shape and got.flags.c_contiguous
    diff = got.astype(int) - want.samples
    near_tie = np.abs(A.real - np.floor(A.real) - 0.5) <= tol
    assert np.all((diff == 0) | ((np.abs(diff) == 1) & near_tie))
    imag = np.abs(A.imag).max()
    warn = imag > IMAG_TOL
    assert abs(residue - imag) <= tol
    if abs(imag - IMAG_TOL) > tol:
        assert (residue > IMAG_TOL) == warn
    return got, residue, want, warn


class TestDecodeSamples:
    @given(
        l=st.sampled_from([1, 3]),
        m1=st.integers(1, 4),
        m2=st.integers(1, 4),
        n1=st.integers(1, 4),
        n2=st.integers(1, 4),
        ranks=st.lists(st.integers(1, 4), min_size=3, max_size=3),
        scale=st.sampled_from([0.5, 30.0, 400.0]),
        conjugate=st.booleans(),
        real_input=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=200)
    def test_random_factors(self, l, m1, m2, n1, n2, ranks, scale, conjugate, real_input, seed):
        rng = np.random.default_rng(seed)
        R = [min(r, m1, n1) for r in ranks[:l]]
        if conjugate:
            R = [R[min(j, l - j)] for j in range(l)]
        F = TensorStpSvd(
            slices=random_factors(rng, m1, m2, n1, n2, l, R, scale, conjugate),
            real_input=real_input,
        )
        _, residue, _, warn = assert_decodes_like_the_reference(F)
        if conjugate:
            assert not warn and residue < 1e-9
        elif l == 3 and residue > 1e-3:
            # Non-conjugate slices leave an imaginary part: both paths warn.
            assert warn

    @pytest.mark.parametrize("l", [1, 3])
    @pytest.mark.parametrize("shape", [(1, 2, 1, 3), (2, 4, 3, 2)])
    def test_exact_ties_round_half_up_like_the_reference(self, l, shape):
        m1, m2, n1, n2 = shape
        # k + 0.5 for k in -1..256, times l: both paths scale by the same
        # 1/l and add exact zeros, so each reference tie is a tie here too.
        halves = l * (np.arange(m2 * n2) * 37 % 258 - 0.5)
        F = TensorStpSvd(slices=tie_factors(m1, m2, n1, n2, l, halves), real_input=True)
        A = reconstruct(F)
        assert np.any((A.real % 1 == 0.5) & (A.real > 0) & (A.real < 255))
        got, residue, want, _ = assert_decodes_like_the_reference(F)
        assert same_bytes(got, want.samples) and residue == 0.0

    @pytest.mark.parametrize("l", [1, 3])
    @pytest.mark.parametrize("m2", [2, 8])
    def test_encoded_images(self, l, m2):
        rng = np.random.default_rng(70 + l)
        A = textured_samples(rng, 64, 48, l)
        # Conjugate slices 1 and 2 at equal ranks keep the factors conjugate.
        for R in ([m2] * l, [64 // m2] * l, [1, 3, 3][:l]):
            F = tensor_stp_svd_trunc(A, m2, m2, [min(r, 48 // m2) for r in R])
            got, residue, want, warn = assert_decodes_like_the_reference(F)
            assert residue < 1e-9 and not warn

    @pytest.mark.parametrize(
        "m, n, l, m2, n2, R",
        [
            (512, 384, 3, 1, 1, [4, 4, 4]),
            (512, 384, 3, 1, 1, [1, 3, 2]),
            (256, 256, 3, 8, 8, [1, 3, 2]),
            (320, 256, 1, 4, 4, [10]),
            (64, 1024, 3, 32, 32, [2, 2, 2]),
        ],
    )
    def test_traced_peak_is_the_output_plus_a_band(self, m, n, l, m2, n2, R):
        # Bands of B's rows (at m2 = 1) or of one block's rows (at m2 = 32)
        # keep the working memory to a few bands of the plane, whether
        # conjugate pairs are decoded once or an imaginary part is measured.
        rng = np.random.default_rng(73)
        F = deserialize(serialize(tensor_stp_svd_trunc(textured_samples(rng, m, n, l), m2, n2, R)))
        tracemalloc.start()
        try:
            got, residue = decode_samples(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= got.nbytes + 6 * 2**20
        assert (residue == 0.0) == (R[1:] == R[:0:-1])
        assert_decodes_like_the_reference(F)

    def test_rejects_what_is_not_an_image(self):
        rng = np.random.default_rng(72)
        with pytest.raises(DimensionError):
            decode_samples(tensor_stp_svd(rng.normal(size=(4, 4, 2)), 2, 2))
        # Slices of other dims are refused when the factorization is built.
        F = tensor_stp_svd(rng.normal(size=(4, 4, 3)), 2, 2)
        with pytest.raises(DimensionError, match="factor shapes"):
            replace(F, slices=[F.slices[0], mat_stp_svd(cplx(rng, 6, 6), 3, 3), F.slices[2]])
