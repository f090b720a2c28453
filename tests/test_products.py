import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import cplx, rel_err, same_bytes
from stpz.errors import DimensionError
from stpz.products import kron_mat, kron_tensor, stp_mat, stp_tensor, stp_vec, t_product
from stpz.tensor import _BAND, bcirc, dft3, fold, identity_tensor, idft3, unfold


def stp_mat_blockwise(A, B):
    """Definitional block-by-block semi-tensor product (test oracle).

    Block (i, j) of the result is row i of A ⋉ column j of B.
    """
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    m, n = A.shape
    s, t = B.shape
    if n % s == 0:
        k = n // s
        out = np.empty((m, k * t), dtype=np.complex128)
        for i in range(m):
            for j in range(t):
                out[i, j * k : (j + 1) * k] = stp_vec(A[i, :], B[:, j])
        return out
    k = s // n
    out = np.empty((k * m, t), dtype=np.complex128)
    for i in range(m):
        for j in range(t):
            out[i * k : (i + 1) * k, j] = stp_vec(A[i, :], B[:, j])
    return out


def t_product_one_shot(A, B):
    """The t-product as one batched matrix product over the Fourier slices
    and one inverse DFT of the whole product (test oracle)."""
    Ah = np.moveaxis(dft3(A), 2, 0)
    Bh = np.moveaxis(dft3(B), 2, 0)
    return idft3(np.moveaxis(Ah @ Bh, 0, 2))


class TestKronMat:
    def test_scalar_identity(self):
        rng = np.random.default_rng(0)
        B = cplx(rng, 3, 2)
        assert np.array_equal(kron_mat(np.array([[1.0]]), B), B)

    def test_identity_left_factor(self):
        M = np.array([[1, 2], [3, 4]], dtype=float)
        K = kron_mat(np.eye(2), M)
        assert_allclose(K, np.block([[M, np.zeros((2, 2))], [np.zeros((2, 2)), M]]))

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(1)
        A, B = cplx(rng, 2, 3), cplx(rng, 3, 4)
        C, D = cplx(rng, 3, 2), cplx(rng, 2, 5)
        lhs = kron_mat(A @ B, C @ D)
        rhs = kron_mat(A, C) @ kron_mat(B, D)
        assert rel_err(lhs, rhs) <= 1e-12


class TestStpVec:
    def test_row_longer(self):
        out = stp_vec([1, 2, 3, 4], [1, 2])
        assert_allclose(out, [7, 10])

    def test_col_longer(self):
        out = stp_vec([1, 2], [1, 2, 3, 4])
        assert_allclose(out, [7, 10])

    def test_equal_lengths_inner_product(self):
        out = stp_vec([1, 2], [3, 4])
        assert out.shape == (1,)
        assert out[0] == 11

    def test_incompatible(self):
        with pytest.raises(DimensionError):
            stp_vec([1, 2, 3], [1, 2])


class TestStpMat:
    def test_identity_right_factor(self):
        A = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert_allclose(stp_mat(A, np.eye(2)), A)

    def test_hand_inflated_case(self):
        A = np.array([[1.0, 2.0]])
        B = np.array([[1.0], [2.0], [3.0], [4.0]])
        assert_allclose(stp_mat(A, B), [[7.0], [10.0]])

    def test_k1_is_matmul(self):
        rng = np.random.default_rng(2)
        A, B = cplx(rng, 4, 4), cplx(rng, 4, 4)
        assert rel_err(stp_mat(A, B), A @ B) <= 1e-13

    def test_blockwise_definition_oracle(self):
        rng = np.random.default_rng(3)
        for m, n, s, t in [(2, 6, 3, 4), (3, 2, 6, 2), (1, 4, 2, 3), (2, 3, 3, 5)]:
            A, B = cplx(rng, m, n), cplx(rng, s, t)
            assert rel_err(stp_mat(A, B), stp_mat_blockwise(A, B)) <= 1e-12

    def test_associativity_mixed_inflation(self):
        rng = np.random.default_rng(4)
        count = 0
        while count < 60:
            dims = rng.integers(1, 7, size=6)
            A = cplx(rng, dims[0], dims[1])
            B = cplx(rng, dims[2], dims[3])
            C = cplx(rng, dims[4], dims[5])
            try:
                lhs = stp_mat(stp_mat(A, B), C)
                rhs = stp_mat(A, stp_mat(B, C))
            except DimensionError:
                continue
            count += 1
            assert lhs.shape == rhs.shape
            assert rel_err(lhs, rhs) <= 1e-11

    def test_incompatible(self):
        with pytest.raises(DimensionError):
            stp_mat(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_non_matrix(self):
        with pytest.raises(DimensionError, match="expects matrices"):
            stp_mat(np.zeros(4), np.zeros((2, 2)))


class TestKronTensor:
    def test_scalar_tensor_identity(self):
        rng = np.random.default_rng(5)
        B = cplx(rng, 2, 3, 2)
        one = np.ones((1, 1, 1))
        assert np.array_equal(kron_tensor(one, B), B)

    def test_identity_inflation_slicewise(self):
        rng = np.random.default_rng(6)
        A = cplx(rng, 2, 3, 4)
        K = kron_tensor(A, identity_tensor(3, 1))
        for w in range(4):
            assert_allclose(K[:, :, w], np.kron(A[:, :, w], np.eye(3)))

    def test_unfold_commutes_with_identity_inflation(self):
        rng = np.random.default_rng(7)
        B = cplx(rng, 2, 2, 3)
        lhs = unfold(kron_tensor(B, identity_tensor(2, 1)))
        rhs = np.kron(unfold(B), np.eye(2))
        assert np.array_equal(lhs, rhs)

    def test_scalar_moves_freely(self):
        rng = np.random.default_rng(8)
        A, B = cplx(rng, 2, 2, 2), cplx(rng, 3, 1, 2)
        alpha = complex(rng.normal(), rng.normal())
        assert rel_err(kron_tensor(alpha * A, B), alpha * kron_tensor(A, B)) <= 1e-13
        assert rel_err(kron_tensor(A, alpha * B), alpha * kron_tensor(A, B)) <= 1e-13


class TestTProduct:
    def test_identity_both_sides(self):
        rng = np.random.default_rng(9)
        A = cplx(rng, 3, 4, 5)
        assert rel_err(t_product(identity_tensor(3, 5), A), A) <= 1e-12
        assert rel_err(t_product(A, identity_tensor(4, 5)), A) <= 1e-12

    def test_single_slice_is_matmul(self):
        rng = np.random.default_rng(10)
        A, B = cplx(rng, 3, 4, 1), cplx(rng, 4, 2, 1)
        assert rel_err(t_product(A, B)[:, :, 0], A[:, :, 0] @ B[:, :, 0]) <= 1e-12

    def test_bcirc_path_oracle(self):
        rng = np.random.default_rng(11)
        A, B = cplx(rng, 2, 3, 3), cplx(rng, 3, 2, 3)
        lhs = t_product(A, B)
        rhs = fold(bcirc(A) @ unfold(B), 2, 2, 3)
        assert rel_err(lhs, rhs) <= 1e-10

    @pytest.mark.parametrize("n3", [1, 2, 5])
    def test_bcirc_oracle_non_square_slices(self, n3):
        rng = np.random.default_rng(12)
        A, B = cplx(rng, 4, 3, n3), cplx(rng, 3, 5, n3)
        rhs = fold(bcirc(A) @ unfold(B), 4, 5, n3)
        assert rel_err(t_product(A, B), rhs) <= 1e-12

    # l = _BAND // 2 + 1 leaves room for one row per band, where the bands
    # take two.
    @pytest.mark.parametrize("l", [1, 5, _BAND // 2 + 1])
    @pytest.mark.parametrize("n3", [1, 2, 3, 4])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_bands_match_the_one_shot_product(self, l, n3, real):
        # n1 = 1, and n1 one row below, at and above a band of rows, and a
        # lone row past two bands: every output bitwise as one batched
        # product and one inverse DFT give it.
        rng = np.random.default_rng(13)
        rows = max(2, _BAND // (l * n3))
        for n1 in sorted({1, 2, 3, rows - 1, rows, rows + 1, 2 * rows + 1}):
            A, B = cplx(rng, n1, 3, n3), cplx(rng, 3, l, n3)
            if real:
                A, B = A.real, B.real
            assert same_bytes(t_product(A, B), t_product_one_shot(A, B)), (n1, rows)

    def test_traced_peak_is_the_output_plus_two_bands(self):
        # The T-SVD decode's second product at the compare shape (512^2 RGB,
        # rank 20): a 12 MiB output.  The one-shot product held a second
        # 12 MiB array, the Fourier-domain product, next to it.
        rng = np.random.default_rng(14)
        A, B = cplx(rng, 512, 20, 3), cplx(rng, 20, 512, 3)
        tracemalloc.start()
        try:
            out = t_product(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        band = 16 * 512 * 3 * max(2, _BAND // (512 * 3))
        bound = out.nbytes + A.nbytes + B.nbytes + 2 * band + 2**18
        assert peak <= bound, (peak / 2**20, bound / 2**20)
        assert peak <= out.nbytes + 3 * 2**20

    def test_dim_errors(self):
        with pytest.raises(DimensionError):
            t_product(np.zeros((2, 3, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(DimensionError):
            t_product(np.zeros((2, 3, 2)), np.zeros((3, 2, 3)))


class TestStpTensor:
    def test_matching_dims_is_t_product(self):
        rng = np.random.default_rng(12)
        A, B = cplx(rng, 2, 3, 4), cplx(rng, 3, 2, 4)
        assert rel_err(stp_tensor(A, B), t_product(A, B)) <= 1e-12

    def test_single_slice_is_stp_mat(self):
        rng = np.random.default_rng(13)
        A, B = cplx(rng, 2, 4, 1), cplx(rng, 2, 3, 1)
        assert rel_err(stp_tensor(A, B)[:, :, 0], stp_mat(A[:, :, 0], B[:, :, 0])) <= 1e-12

    def test_definitional_oracle(self):
        rng = np.random.default_rng(14)
        A, B = cplx(rng, 2, 4, 3), cplx(rng, 2, 2, 3)
        lhs = stp_tensor(A, B)
        rhs = fold(stp_mat(bcirc(A), unfold(B)), 2, 4, 3)
        assert rel_err(lhs, rhs) <= 1e-10

    def test_kron_inflation_route(self):
        rng = np.random.default_rng(15)
        # n = 2p: A * (B ⊗ I_2)
        A, B = cplx(rng, 2, 4, 3), cplx(rng, 2, 3, 3)
        lhs = stp_tensor(A, B)
        rhs = t_product(A, kron_tensor(B, identity_tensor(2, 1)))
        assert rel_err(lhs, rhs) <= 1e-10
        # p = 2n: (A ⊗ I_2) * B
        A, B = cplx(rng, 3, 2, 3), cplx(rng, 4, 2, 3)
        lhs = stp_tensor(A, B)
        rhs = t_product(kron_tensor(A, identity_tensor(2, 1)), B)
        assert rel_err(lhs, rhs) <= 1e-10

    def test_third_dim_mismatch_is_hard_error(self):
        with pytest.raises(DimensionError):
            stp_tensor(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))

    def test_non_divisible_error(self):
        with pytest.raises(DimensionError, match="3 and 2 are not integer multiples"):
            stp_tensor(np.zeros((2, 3, 2)), np.zeros((2, 2, 2)))

    def test_associativity(self):
        rng = np.random.default_rng(16)
        for n3 in (1, 2, 4):
            count = 0
            while count < 20:
                dims = rng.integers(1, 5, size=6)
                A = cplx(rng, dims[0], dims[1], n3)
                B = cplx(rng, dims[2], dims[3], n3)
                C = cplx(rng, dims[4], dims[5], n3)
                try:
                    lhs = stp_tensor(stp_tensor(A, B), C)
                    rhs = stp_tensor(A, stp_tensor(B, C))
                except DimensionError:
                    continue
                count += 1
                assert lhs.shape == rhs.shape
                assert rel_err(lhs, rhs) <= 1e-11


@pytest.mark.parametrize(
    "f, a, b",
    [
        (stp_mat, [[1, 2]], [[1], [2], [3], [4]]),
        (t_product, [[[1, 2], [3, 4]]], [[[1, 0]], [[2, 1]]]),
        (stp_tensor, [[[1, 2], [3, 4]]], [[[5, 6]]]),
    ],
)
def test_nested_lists_are_complex_operands(f, a, b):
    want = f(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))
    got = f(a, b)
    assert np.array_equal(got, want) and got.dtype == np.complex128
