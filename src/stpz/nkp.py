"""Nearest Kronecker product approximation via rank-1 rearrangement.

``rearrange`` reshapes an (m1*m2) x (n1*n2) matrix into an
(m1*n1) x (m2*n2) matrix whose rank-1 structure corresponds to exact
Kronecker structure of the input; ``rearrange_slices`` does the same for
every frontal slice of a third-order array at once, in its own dtype.
``nkp`` takes the leading singular triplet of the rearrangement
to produce the Frobenius-optimal factor pair (B, C) with A ≈ B ⊗ C.  The
triplet comes from the Lanczos solver :func:`~stpz.svd.leading_triplet`.
The dense :func:`~stpz.svd.svd` is used instead for small rearrangements,
where it is faster, and as the fallback when Lanczos does not converge.
Lanczos converges within its budget when the relative gap sigma_2/sigma_1
of the rearrangement is below about 0.9; a flat leading spectrum, as in
noise-dominated input, spends the budget and then pays for the dense SVD
too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .svd import leading_triplet, svd

__all__ = ["KronFactors", "rearrange", "rearrange_slices", "nkp"]

# Dense-SVD work m * n * min(m, n) of an m x n rearrangement up to which the
# dense SVD is used directly: below it, the per-step cost of the Lanczos
# solver exceeds the whole dense SVD.  Measured on 2 vCPU with OpenBLAS,
# median of 41 calls on textured image slices: 256 x 16 takes 0.65 ms dense
# against 1.0 ms Lanczos, 36 x 64 takes 1.0 ms dense against 0.7 ms.
_DENSE_WORK = 1 << 16


@dataclass
class KronFactors:
    """Optimal Kronecker pair: B is m1 x n1, C is m2 x n2.

    ``residual`` is ||A - B ⊗ C||_F, computed from the returned factors.  In
    exact arithmetic it equals the root tail energy of the rearranged
    matrix's singular values.
    """

    B: np.ndarray
    C: np.ndarray
    residual: float


def _split(rows: int, cols: int, m2: int, n2: int) -> tuple[int, int]:
    if m2 < 1 or n2 < 1 or rows % m2 != 0 or cols % n2 != 0:
        raise DimensionError(
            f"block shape {m2}x{n2} does not divide matrix shape {rows}x{cols}"
        )
    return rows // m2, cols // n2


def rearrange_slices(A, m2: int, n2: int) -> np.ndarray:
    """Rearrangement of every frontal slice of an (m1*m2) x (n1*n2) x l array.

    Returns a C-contiguous (l, m1*n1, m2*n2) stack in A's dtype whose entry
    k is the rearrangement of ``A[:, :, k]``: its row (j*m1 + i) is the
    column-major vec of the m2 x n2 block (i, j), i.e. blocks are enumerated
    j-major.  The map only permutes entries, so it commutes with any
    transform along the slice axis, and ||rearrange(M)||_F == ||M||_F.
    The result never aliases A.
    """
    A = np.asarray(A)
    if A.ndim != 3:
        raise DimensionError("rearrange_slices expects a third-order array")
    m, n, l = A.shape
    m1, n1 = _split(m, n, m2, n2)
    S = A.reshape(m1, m2, n1, n2, l).transpose(4, 2, 0, 3, 1).reshape(l, m1 * n1, m2 * n2)
    # The reshape copies unless the blocks already line up (for example a
    # Fortran-ordered matrix with m1 = n1 = 1).
    return S.copy() if np.may_share_memory(S, A) else S


def rearrange(A, m2: int, n2: int) -> np.ndarray:
    """Rearrangement of a matrix A into an (m1*n1) x (m2*n2) complex matrix,
    as :func:`rearrange_slices` gives it for one slice."""
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2:
        raise DimensionError("rearrange expects a matrix")
    return rearrange_slices(A[:, :, None], m2, n2)[0]


def nkp(A, m2: int, n2: int, *, blocks: tuple[int, int] | None = None) -> KronFactors:
    """Factor pair minimizing ||A - B ⊗ C||_F over m1 x n1 / m2 x n2 pairs.

    vec(B) and vec(C) are sqrt(s1) times the leading left/right singular
    vectors of the rearrangement (column-major vec).  A zero input returns
    zero factors.  On the Lanczos path the pair is optimal unless the
    input is built so that v1 is orthogonal to the solver's fixed start
    (see :func:`~stpz.svd.leading_triplet`); ``residual`` is the norm of
    A - B ⊗ C for the returned pair either way.

    With ``blocks=(m1, n1)``, A is not the matrix but its (m1*n1) x (m2*n2)
    rearrangement, as :func:`rearrange` or :func:`rearrange_slices` give
    it.  The rearrangement's shape fixes only the products m1*n1 and m2*n2,
    so blocks must be the exact (m1, n1) pair of the matrix: a swapped pair,
    or any other pair with the same product, is not detected and gives a B
    of that shape.  A complex128 A is used in place and overwritten.
    """
    if blocks is None:
        A = np.asarray(A, dtype=np.complex128)
        m1, n1 = _split(A.shape[0], A.shape[1], m2, n2)
        R = rearrange(A, m2, n2)
    else:
        m1, n1 = blocks
        R = np.asarray(A, dtype=np.complex128)
        if R.shape != (m1 * n1, m2 * n2):
            raise DimensionError(
                f"rearrangement shape {R.shape} is not {(m1 * n1, m2 * n2)}"
            )
    f = leading_triplet(R) if R.size * min(R.shape) > _DENSE_WORK else None
    if f is None:
        f = svd(R)
    s1 = np.sqrt(f.sigma[0])
    B = (s1 * f.U[:, 0]).reshape((m1, n1), order="F")
    # The rank-1 term of R is sigma_1 u1 v1^H while the Kronecker identity
    # rearrange(B ⊗ C) = vec(B) vec(C)^T uses a plain transpose, so C takes
    # the conjugated right vector (a no-op for real data).
    C = (s1 * np.conj(f.V[:, 0])).reshape((m2, n2), order="F")
    # rearrange only permutes entries, so ||A - B ⊗ C||_F is the norm of
    # R - vec(B) vec(C)^T, taken in R (this call's copy, or the caller's
    # rearrangement given with blocks).  Taking the norm of the difference
    # keeps the residual accurate near exact Kronecker structure, where
    # sqrt(||A||^2 - s1^2) would cancel.
    R -= np.outer(B.ravel(order="F"), C.ravel(order="F"))
    return KronFactors(B=B, C=C, residual=float(np.linalg.norm(R)))
