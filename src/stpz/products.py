"""Multiplication operators: Kronecker, left semi-tensor, and t-product.

The left semi-tensor product (``⋉``) generalizes the matrix product to
operands whose inner dimensions are integer multiples of each other; the
smaller operand is inflated with an identity Kronecker factor.  The
t-product multiplies third-order tensors slice-wise in the mode-3 Fourier
domain, and the tensor semi-tensor product combines both.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import as_tensor3, dft3, idft3

__all__ = [
    "kron_mat",
    "stp_vec",
    "stp_mat",
    "kron_tensor",
    "t_product",
    "stp_tensor",
]


def kron_mat(A, B) -> np.ndarray:
    """Matrix Kronecker product with block (i, j) equal to A[i, j] * B."""
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    return np.kron(A, B)


def stp_vec(x, y) -> np.ndarray:
    """Left semi-tensor product of a length-p row vector and a length-q column.

    If p = n*q, x is split into q consecutive length-n blocks and the result
    is sum_i x_i * y[i] (a length-n row).  If q = n*p, y is split instead and
    the result is sum_i x[i] * y_i (a length-n column).  Returned as a 1-D
    array of length n; orientation is implied by which case applied.
    """
    x = np.asarray(x, dtype=np.complex128).ravel()
    y = np.asarray(y, dtype=np.complex128).ravel()
    p, q = x.size, y.size
    if p % q == 0:
        n = p // q
        return y @ x.reshape(q, n)
    if q % p == 0:
        n = q // p
        return x @ y.reshape(p, n)
    raise DimensionError(f"vector lengths {p} and {q} are not integer multiples")


def stp_mat(A, B) -> np.ndarray:
    """Left semi-tensor product of matrices.

    With A m x n and B s x t: if n = k*s the result is A (B ⊗ I_k), an
    m x kt matrix; if s = k*n it is (A ⊗ I_k) B, km x t.  k = 1 recovers the
    ordinary product.
    """
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if A.ndim != 2 or B.ndim != 2:
        raise DimensionError("stp_mat expects matrices")
    n, s = A.shape[1], B.shape[0]
    if n % s == 0:
        k = n // s
        return A @ np.kron(B, np.eye(k))
    if s % n == 0:
        k = s // n
        return np.kron(A, np.eye(k)) @ B
    raise DimensionError(
        f"inner dimensions {n} and {s} are not integer multiples of each other"
    )


def kron_tensor(A, B) -> np.ndarray:
    """Kronecker product of third-order tensors.

    Entry [(i1 j1), (i2 j2), (i3 j3)] equals A[i1,i2,i3] * B[j1,j2,j3], with
    per-mode index fusion [i j] = i * extent_B + j (0-based).
    """
    return np.kron(as_tensor3(A), as_tensor3(B))


def t_product(A, B) -> np.ndarray:
    """t-product of an n1 x n2 x n3 tensor with an n2 x l x n3 tensor.

    Computed slice-wise in the Fourier domain, as one batched matrix product
    over the slices; equals fold(bcirc(A) @ unfold(B)).
    """
    A = as_tensor3(A)
    B = as_tensor3(B)
    if A.shape[1] != B.shape[0]:
        raise DimensionError(
            f"t_product inner dimensions differ: {A.shape[1]} vs {B.shape[0]}"
        )
    if A.shape[2] != B.shape[2]:
        raise DimensionError(
            f"t_product third dimensions differ: {A.shape[2]} vs {B.shape[2]}"
        )
    Ah = np.moveaxis(dft3(A), 2, 0)
    Bh = np.moveaxis(dft3(B), 2, 0)
    return idft3(np.moveaxis(Ah @ Bh, 0, 2))


def stp_tensor(A, B) -> np.ndarray:
    """Semi-tensor product of third-order tensors with equal third extents.

    With A m x n x t and B p x q x t: if n = k*p the result is
    A * (B ⊗ I_k) (m x kq x t); if p = k*n it is (A ⊗ I_k) * B (km x q x t),
    where * is the t-product and I_k the k x k x 1 identity tensor.  Computed
    as slice-wise matrix semi-tensor products in the Fourier domain, so
    :func:`stp_mat` refuses inner dimensions that are not multiples.
    """
    A = as_tensor3(A)
    B = as_tensor3(B)
    if A.shape[2] != B.shape[2]:
        raise DimensionError(
            f"stp_tensor third dimensions differ: {A.shape[2]} vs {B.shape[2]}"
        )
    Ah = dft3(A)
    Bh = dft3(B)
    t = A.shape[2]
    slices = [stp_mat(Ah[:, :, w], Bh[:, :, w]) for w in range(t)]
    return idft3(np.stack(slices, axis=2))
