import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from helpers import cplx, dft_matrix, rel_err
from stpz.errors import DimensionError
from stpz.products import t_product
from stpz.tensor import (
    as_array3,
    bcirc,
    bcirc_inv,
    conj_transpose,
    dft3,
    fold,
    frobenius_norm,
    frontal_slice,
    identity_tensor,
    idft3,
    is_f_diagonal,
    is_unitary_tensor,
    transpose,
    unfold,
)


def entry_tensor_2x2x2():
    # a_ijk = 100*i + 10*j + k with 1-based subscripts, so values read off
    # the subscripts directly.
    A = np.empty((2, 2, 2), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                A[i, j, k] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
    return A


class TestFrontalSlice:
    def test_2x2x2_layout(self):
        A = entry_tensor_2x2x2()
        assert_allclose(frontal_slice(A, 0), [[111, 121], [211, 221]])
        assert_allclose(frontal_slice(A, 1), [[112, 122], [212, 222]])

    def test_single_slice(self):
        rng = np.random.default_rng(0)
        A = cplx(rng, 3, 2, 1)
        assert np.array_equal(frontal_slice(A, 0), A[:, :, 0])

    def test_direct_index_oracle(self):
        rng = np.random.default_rng(1)
        A = cplx(rng, 3, 4, 5)
        S = frontal_slice(A, 2)
        for i in range(3):
            for j in range(4):
                assert S[i, j] == A[i, j, 2]

    def test_slice_is_a_copy(self):
        A = entry_tensor_2x2x2()
        S = frontal_slice(A, 0)
        S[0, 0] = -1
        assert A[0, 0, 0] == 111

    def test_out_of_range(self):
        A = entry_tensor_2x2x2()
        with pytest.raises(DimensionError):
            frontal_slice(A, 2)
        with pytest.raises(DimensionError):
            frontal_slice(A, -1)


class TestUnfoldFold:
    def test_2x2x2_schematic(self):
        A = entry_tensor_2x2x2()
        expected = np.array(
            [[111, 121], [211, 221], [112, 122], [212, 222]], dtype=np.complex128
        )
        assert np.array_equal(unfold(A), expected)

    def test_single_slice_identity(self):
        rng = np.random.default_rng(2)
        A = cplx(rng, 4, 3, 1)
        assert np.array_equal(unfold(A), A[:, :, 0])

    def test_roundtrip_bitwise(self):
        rng = np.random.default_rng(3)
        A = cplx(rng, 3, 4, 5)
        assert np.array_equal(fold(unfold(A), 3, 4, 5), A)

    def test_fold_then_unfold_bitwise(self):
        rng = np.random.default_rng(4)
        M = cplx(rng, 6, 3)
        assert np.array_equal(unfold(fold(M, 2, 3, 3)), M)

    def test_fold_dim_mismatch(self):
        with pytest.raises(DimensionError):
            fold(np.zeros((6, 3)), 2, 3, 4)

    @given(
        n1=st.integers(1, 4),
        n2=st.integers(1, 4),
        n3=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=40)
    def test_roundtrip_property(self, n1, n2, n3, seed):
        rng = np.random.default_rng(seed)
        A = cplx(rng, n1, n2, n3)
        assert np.array_equal(fold(unfold(A), n1, n2, n3), A)


class TestBcirc:
    def test_first_block_row_order(self):
        rng = np.random.default_rng(5)
        A = cplx(rng, 2, 3, 3)
        M = bcirc(A)
        assert np.array_equal(M[:2, 0:3], A[:, :, 0])
        assert np.array_equal(M[:2, 3:6], A[:, :, 2])
        assert np.array_equal(M[:2, 6:9], A[:, :, 1])

    def test_single_slice(self):
        rng = np.random.default_rng(6)
        A = cplx(rng, 3, 2, 1)
        assert np.array_equal(bcirc(A), A[:, :, 0])

    def test_modular_index_oracle(self):
        rng = np.random.default_rng(7)
        A = cplx(rng, 2, 2, 4)
        M = bcirc(A)
        for i in range(4):
            for j in range(4):
                block = M[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                assert np.array_equal(block, A[:, :, (i - j) % 4])

    def test_first_block_column_is_unfold(self):
        rng = np.random.default_rng(8)
        A = cplx(rng, 3, 2, 4)
        assert np.array_equal(bcirc(A)[:, :2], unfold(A))

    def test_bcirc_inv_roundtrip(self):
        rng = np.random.default_rng(9)
        A = cplx(rng, 2, 3, 3)
        assert np.array_equal(bcirc_inv(bcirc(A), 2, 3, 3), unfold(A))

    def test_bcirc_inv_single_slice(self):
        rng = np.random.default_rng(10)
        M = cplx(rng, 3, 4)
        assert np.array_equal(bcirc_inv(M, 3, 4, 1), M)

    def test_bcirc_inv_dim_mismatch(self):
        with pytest.raises(DimensionError):
            bcirc_inv(np.zeros((6, 5)), 2, 3, 3)


class TestDft3:
    def test_single_slice_identity(self):
        rng = np.random.default_rng(11)
        A = cplx(rng, 3, 3, 1)
        assert_allclose(dft3(A), A)

    def test_constant_tube_dc(self):
        c = 2.5 - 1.0j
        A = np.full((1, 1, 6), c)
        out = dft3(A)[0, 0]
        assert_allclose(out[0], 6 * c, rtol=1e-14)
        assert_allclose(out[1:], 0, atol=1e-13)

    def test_roundtrip(self):
        rng = np.random.default_rng(12)
        for n3 in (1, 2, 5, 64):
            A = cplx(rng, 3, 2, n3)
            assert rel_err(idft3(dft3(A)), A) <= 1e-12

    def test_block_diagonalization_oracle(self):
        rng = np.random.default_rng(13)
        for n1, n2, n3 in [(3, 3, 4), (4, 2, 6), (2, 4, 3)]:
            A = cplx(rng, n1, n2, n3)
            F = dft_matrix(n3)
            M = np.kron(F, np.eye(n1)) @ bcirc(A) @ np.kron(np.linalg.inv(F), np.eye(n2))
            Ah = dft3(A)
            off = M.copy()
            for k in range(n3):
                block = M[k * n1 : (k + 1) * n1, k * n2 : (k + 1) * n2]
                assert rel_err(block, Ah[:, :, k]) <= 1e-10
                off[k * n1 : (k + 1) * n1, k * n2 : (k + 1) * n2] = 0
            assert np.linalg.norm(off) <= 1e-10 * frobenius_norm(A)


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((2, 3, 4))) == 0.0

    def test_single_complex_entry(self):
        assert frobenius_norm(np.array([[[3 + 4j]]])) == pytest.approx(5.0, abs=0)

    def test_matches_unfold_norm(self):
        rng = np.random.default_rng(14)
        A = cplx(rng, 4, 5, 3)
        assert frobenius_norm(A) == pytest.approx(
            np.linalg.norm(unfold(A)), rel=1e-14
        )


class TestTransposes:
    def test_slice_order_n3_4(self):
        rng = np.random.default_rng(15)
        A = cplx(rng, 3, 2, 4)
        H = conj_transpose(A)
        assert np.array_equal(H[:, :, 0], A[:, :, 0].conj().T)
        assert np.array_equal(H[:, :, 1], A[:, :, 3].conj().T)
        assert np.array_equal(H[:, :, 2], A[:, :, 2].conj().T)
        assert np.array_equal(H[:, :, 3], A[:, :, 1].conj().T)

    def test_real_single_slice(self):
        rng = np.random.default_rng(16)
        A = rng.normal(size=(3, 4, 1))
        assert np.array_equal(conj_transpose(A)[:, :, 0], A[:, :, 0].T)

    def test_involution_bitwise(self):
        rng = np.random.default_rng(17)
        A = cplx(rng, 3, 4, 5)
        assert np.array_equal(conj_transpose(conj_transpose(A)), A)

    def test_plain_transpose_keeps_conjugation_out(self):
        rng = np.random.default_rng(18)
        A = cplx(rng, 2, 3, 3)
        T = transpose(A)
        assert np.array_equal(T[:, :, 1], A[:, :, 2].T)

    def test_product_reversal(self):
        rng = np.random.default_rng(19)
        A = cplx(rng, 3, 4, 3)
        B = cplx(rng, 4, 2, 3)
        lhs = conj_transpose(t_product(A, B))
        rhs = t_product(conj_transpose(B), conj_transpose(A))
        assert rel_err(lhs, rhs) <= 1e-10


class TestIdentityTensor:
    def test_k1(self):
        I = identity_tensor(2, 1)
        assert np.array_equal(I[:, :, 0], np.eye(2))

    def test_layout(self):
        I = identity_tensor(3, 4)
        assert np.array_equal(I[:, :, 0], np.eye(3))
        assert not I[:, :, 1:].any()

    def test_t_product_identity(self):
        rng = np.random.default_rng(20)
        A = cplx(rng, 3, 5, 4)
        assert rel_err(t_product(identity_tensor(3, 4), A), A) <= 1e-12

    def test_bad_extents(self):
        with pytest.raises(DimensionError):
            identity_tensor(0, 3)


class TestPredicates:
    def test_identity_is_f_diagonal(self):
        assert is_f_diagonal(identity_tensor(3, 2), 0.0)

    def test_off_diagonal_entry(self):
        A = np.zeros((2, 2, 1), dtype=np.complex128)
        A[0, 1, 0] = 1.0
        assert not is_f_diagonal(A, 0.0)

    def test_identity_is_unitary(self):
        assert is_unitary_tensor(identity_tensor(4, 3), 1e-12)
        # Both products are exactly the identity, so a zero tolerance holds.
        assert is_unitary_tensor(identity_tensor(4, 3), 0.0)

    def test_all_ones_not_unitary(self):
        assert not is_unitary_tensor(np.ones((2, 2, 2)), 1e-8)

    def test_unitary_requires_square(self):
        with pytest.raises(DimensionError):
            is_unitary_tensor(np.ones((2, 3, 2)), 1e-8)


def test_as_array3_rejects_a_zero_extent():
    with pytest.raises(DimensionError, match=r"extents must be positive, got \(2, 0, 3\)"):
        as_array3(np.zeros((2, 0, 3)))


def test_as_array3_rejects_a_non_tensor():
    for a in (np.zeros((2, 3)), np.zeros((2, 3, 4, 5))):
        with pytest.raises(DimensionError, match=f"expected a third-order tensor, got ndim={a.ndim}"):
            as_array3(a)


@pytest.mark.parametrize(
    "f, arg, args",
    [
        (frontal_slice, entry_tensor_2x2x2(), (1,)),
        (unfold, entry_tensor_2x2x2(), ()),
        (fold, unfold(entry_tensor_2x2x2()), (2, 2, 2)),
        (bcirc, entry_tensor_2x2x2(), ()),
        (bcirc_inv, bcirc(entry_tensor_2x2x2()), (2, 2, 2)),
        (conj_transpose, entry_tensor_2x2x2(), ()),
        (transpose, entry_tensor_2x2x2(), ()),
        (is_f_diagonal, identity_tensor(2, 2), ()),
        (is_unitary_tensor, identity_tensor(2, 2), ()),
    ],
)
def test_nested_lists_of_integers_are_complex_tensors(f, arg, args):
    # Each primitive takes a nested list of real entries as the complex128
    # tensor or matrix it holds.
    want = f(arg, *args)
    got = f(arg.real.astype(int).tolist(), *args)
    assert np.array_equal(got, want) and np.asarray(got).dtype == np.asarray(want).dtype
