"""Dense third-order tensor primitives.

A third-order tensor is carried as a ``numpy.ndarray`` of shape
``(n1, n2, n3)`` and dtype ``complex128``; ``A[:, :, k]`` is the k-th frontal
slice (k is 0-based throughout the Python API).  All operations are pure:
they never mutate their inputs and return freshly allocated arrays.

The mode-3 DFT convention is the unnormalized forward transform with a
1/n3-scaled inverse, so ``idft3(dft3(A)) == A`` up to roundoff and the
block-circulant expansion of ``A`` is similarity-diagonalized by
``F ⊗ I`` / ``F^-1 ⊗ I``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import DimensionError

__all__ = [
    "as_array3",
    "as_tensor3",
    "frontal_slice",
    "unfold",
    "fold",
    "bcirc",
    "bcirc_inv",
    "dft3",
    "idft3",
    "frobenius_norm",
    "conj_transpose",
    "transpose",
    "identity_tensor",
    "is_f_diagonal",
    "is_unitary_tensor",
]

# Entries of one band of the banded passes: the STP decoder's plane,
# ``products.t_product``'s product and inverse DFT, ``decomp.reconstruct``'s
# inverse DFT and ``imaging.tensor_to_image``'s rounding.  A band stays in
# cache, and no full-size temporary is made.  Measured on 2 vCPU (numpy
# 2.4), median of 21 decode_samples calls on paired RGB containers: 2^16
# took 2.1 ms at 512^2 (m2 = 8, R = 20), 6.9 and 6.1 ms at 1024^2 (m2 = 8,
# R = 20; m2 = 32, R = 8) and 23.5 ms at 2048^2 (m2 = 32, R = 8), 2^17
# within 7% of that, 2^14 up to 1.35x and 2^18 up to 1.2x slower.
_BAND = 1 << 16


def _bands(n: int, row: int) -> Iterator[slice]:
    """Rows 0..n in bands of about ``_BAND`` entries, for rows of ``row``
    entries.  No band has one row unless n = 1: numpy's matmul takes a
    one-row operand by its vector route, whose bits differ from the matrix
    route's, so a band has at least two rows, and a lone last row joins the
    band before it."""
    rows = max(2, _BAND // row)
    for a in range(0, max(n - 1, 1), rows):
        yield slice(a, a + rows if a + rows < n - 1 else n)


def as_array3(a) -> np.ndarray:
    """Coerce ``a`` to an array of shape (n1, n2, n3) that keeps a real dtype
    (bool, integer or floating) as it is and makes any other complex128."""
    t = np.asarray(a)
    if t.dtype.kind not in "biuf":
        t = np.asarray(t, dtype=np.complex128)
    if t.ndim != 3:
        raise DimensionError(f"expected a third-order tensor, got ndim={t.ndim}")
    if min(t.shape) < 1:
        raise DimensionError(f"tensor extents must be positive, got {t.shape}")
    return t


def as_tensor3(a) -> np.ndarray:
    """Coerce ``a`` to a complex128 tensor of shape (n1, n2, n3)."""
    return np.asarray(as_array3(a), dtype=np.complex128)


def frontal_slice(A, k: int) -> np.ndarray:
    """Return a copy of the k-th (0-based) frontal slice A[:, :, k]."""
    A = as_tensor3(A)
    n3 = A.shape[2]
    if not 0 <= k < n3:
        raise DimensionError(f"frontal slice index {k} out of range [0, {n3})")
    return A[:, :, k].copy()


def unfold(A) -> np.ndarray:
    """Stack the frontal slices vertically into an (n1*n3) x n2 matrix."""
    A = as_tensor3(A)
    n1, n2, n3 = A.shape
    return A.transpose(2, 0, 1).reshape(n1 * n3, n2).copy()


def fold(M, n1: int, n2: int, n3: int) -> np.ndarray:
    """Inverse of :func:`unfold`; M must be (n1*n3) x n2."""
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape != (n1 * n3, n2):
        raise DimensionError(
            f"fold expects a {n1 * n3}x{n2} matrix, got {M.shape}"
        )
    return M.reshape(n3, n1, n2).transpose(1, 2, 0).copy()


def bcirc(A) -> np.ndarray:
    """Block-circulant expansion: block (i, j) is slice (i - j) mod n3.

    The first block column equals ``unfold(A)``.
    """
    A = as_tensor3(A)
    n1, n2, n3 = A.shape
    out = np.empty((n1 * n3, n2 * n3), dtype=np.complex128)
    for i in range(n3):
        for j in range(n3):
            out[i * n1 : (i + 1) * n1, j * n2 : (j + 1) * n2] = A[:, :, (i - j) % n3]
    return out


def bcirc_inv(M, n1: int, n2: int, n3: int) -> np.ndarray:
    """First block column of an (n1*n3) x (n2*n3) block-circulant matrix.

    The circulant structure of ``M`` is not validated.
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape != (n1 * n3, n2 * n3):
        raise DimensionError(
            f"bcirc_inv expects a {n1 * n3}x{n2 * n3} matrix, got {M.shape}"
        )
    return M[:, :n2].copy()


def dft3(A) -> np.ndarray:
    """Unnormalized DFT of length n3 applied to every tube A[i, j, :]."""
    return np.fft.fft(as_tensor3(A), axis=2)


def idft3(A) -> np.ndarray:
    """Inverse of :func:`dft3` (1/n3-scaled)."""
    return np.fft.ifft(as_tensor3(A), axis=2)


def frobenius_norm(A) -> float:
    """sqrt of the sum of squared moduli of all entries."""
    return float(np.linalg.norm(np.asarray(A, dtype=np.complex128).ravel()))


def conj_transpose(A) -> np.ndarray:
    """Conjugate-transpose each slice, then reverse the order of slices 2..n3:
    the conjugate of :func:`transpose`."""
    return np.conj(transpose(A))


def transpose(A) -> np.ndarray:
    """Transpose each slice, then reverse the order of slices 2..n3."""
    A = as_tensor3(A)
    out = A.transpose(1, 0, 2)
    return np.concatenate([out[:, :, :1], out[:, :, :0:-1]], axis=2)


def identity_tensor(n: int, k: int) -> np.ndarray:
    """n x n x k tensor whose first slice is I_n and whose others are zero."""
    if n < 1 or k < 1:
        raise DimensionError(f"identity tensor extents must be positive, got ({n}, {k})")
    out = np.zeros((n, n, k), dtype=np.complex128)
    out[:, :, 0] = np.eye(n)
    return out


def is_f_diagonal(A, tol: float = 0.0) -> bool:
    """True iff every off-diagonal entry of every slice has modulus <= tol."""
    A = as_tensor3(A)
    n1, n2, _ = A.shape
    off = A.copy()
    d = min(n1, n2)
    off[np.arange(d), np.arange(d), :] = 0.0
    return bool(np.all(np.abs(off) <= tol))


def is_unitary_tensor(U, tol: float = 1e-10) -> bool:
    """True iff U * U^H and U^H * U both equal the identity tensor within tol.

    The deviation is measured in the tensor Frobenius norm.
    """
    from .products import t_product

    U = as_tensor3(U)
    n1, n2, n3 = U.shape
    if n1 != n2:
        raise DimensionError(f"unitarity requires square slices, got {n1}x{n2}")
    Uh = conj_transpose(U)
    eye = identity_tensor(n1, n3)
    return (
        frobenius_norm(t_product(U, Uh) - eye) <= tol
        and frobenius_norm(t_product(Uh, U) - eye) <= tol
    )
