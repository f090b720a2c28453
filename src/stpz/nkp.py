"""Nearest Kronecker product approximation via rank-1 rearrangement.

``rearrange`` reshapes an (m1*m2) x (n1*n2) matrix into an
(m1*n1) x (m2*n2) matrix whose rank-1 structure corresponds to exact
Kronecker structure of the input.  ``_block_view`` is the one map from
blocks to rows: ``rearrange``, ``nkp``'s matrix form and the encoder's
rearranged DFT (``decomp._stack_dft``) all read blocks through it.  NKP
takes the matrix, or its rearrangement with ``blocks=(m1, n1)``, and this
module alone decides which form a caller sent, for ``nkp`` and the matrix
routes of :mod:`stpz.decomp` alike.
``nkp`` takes the leading singular triplet of the rearrangement
to produce the factor pair (B, C) with A ≈ B ⊗ C.  Each call runs one
solver: the dense :func:`~stpz.svd.svd` for small rearrangements, where it
is faster, and the Lanczos solver :func:`~stpz.svd.leading_triplet` for
every larger one.  Lanczos converges within its budget when the ratio
sigma_2/sigma_1 of the rearrangement is below about 0.9, and the pair is
then Frobenius-optimal.  On a flatter leading spectrum, as in
noise-dominated input, the budget can run out first, and the pair comes
from the Ritz triplet it reached.  That happens only on near-square
rearrangements, or where the short side exceeds the budget of 24 steps,
since tall and wide ones (such as a 512² image's 4096 x 64 at m2 = 8) take
the Gram route that :func:`~stpz.svd.leading_triplet` describes, whose
budget spans the whole Krylov space of a short side k <= 24.

The residual ||A - B ⊗ C||_F of the returned pair is
sqrt(||R||_F^2 - sigma^2) on both paths, read from R in one pass
with no temporary.  Where that tail is not well above roundoff (near exact
Kronecker structure), it is taken directly from R - vec(B) vec(C)^T
instead.  R follows the input rule of :mod:`stpz.svd`, and its dtype rule:
real input is factored in real arithmetic into real factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .svd import _as_matrix, _leading_triplet, _scale, svd

__all__ = ["KronFactors", "rearrange", "nkp"]

# Dense-SVD work m * n * min(m, n) of an m x n rearrangement up to which the
# dense SVD is used directly: below it, the per-step cost of the Lanczos
# solver exceeds the whole dense SVD.  Measured on 2 vCPU with OpenBLAS,
# median of 41 calls on textured image slices: 256 x 16 takes 0.65 ms dense
# against 1.0 ms Lanczos, 36 x 64 takes 1.0 ms dense against 0.7 ms.
_DENSE_WORK = 1 << 16

# Smallest tail ||R||^2 - s1^2, relative to ||R||^2, from which the
# residual is taken as sqrt(tail).  Both terms carry rounding errors of
# about c * eps * ||R||^2, so the relative error of e1 is about
# c * eps / (2 * tail ratio): at most c * 1.1e-11 here, which leaves room
# for c up to about 90 within a relative 1e-9.  Measured c was at most 7 on
# both triplet paths (rank-1 plus noise, 16 x 16 to 4096 x 64, tail
# ratios 1e-6 to 1e-10).  Below it the residual is taken directly, at the
# cost of a temporary the size of R.
_TAIL_MIN = 1e-5


@dataclass
class KronFactors:
    """Kronecker pair: B is m1 x n1, C is m2 x n2.

    The pair is the optimal one unless the Lanczos solver reached its step
    budget (see :func:`nkp`).  ``residual`` is ||A - B ⊗ C||_F for the
    returned factors: the root of ||A||_F^2 - s1^2, with s1 the triplet's
    singular value (the tail energy of the rearranged matrix's singular
    values when the pair is optimal), or the norm of the difference itself
    where that tail is too small for the subtraction, at most
    ``_TAIL_MIN`` of ||A||_F^2, under the input rule of :mod:`stpz.svd`.
    """

    B: np.ndarray
    C: np.ndarray
    residual: float


def _split(rows: int, cols: int, m2: int, n2: int) -> tuple[int, int]:
    # (m1, n1) of a rows x cols matrix: the one check that m2 x n2 blocks tile it.
    for name, factor, dim, side in (("m2", m2, rows, "height"), ("n2", n2, cols, "width")):
        if factor < 1 or dim % factor:
            valid = [d for d in range(1, dim + 1) if dim % d == 0][:16]
            raise DimensionError(
                f"{name} = {factor} does not divide {side} {dim}; "
                f"valid choices include {valid}"
            )
    return rows // m2, cols // n2


def _block_view(A: np.ndarray, m2: int, n2: int) -> np.ndarray:
    # The (l, n1, m1, n2, m2) view of an (m1*m2) x (n1*n2) x l array whose
    # entry [k, j, i, d, c] is A[i*m2 + c, j*n2 + d, k]: read in C order, its
    # slice k is the rearrangement of A[:, :, k], entry (j*m1 + i, d*m2 + c).
    # rearrange, nkp and decomp._stack_dft all read blocks through it.
    m, n, l = A.shape
    return A.reshape(m // m2, m2, n // n2, n2, l).transpose(4, 2, 0, 3, 1)


def _blocks(A, m2: int, n2: int, blocks: tuple[int, int] | None, name: str) -> tuple[int, int]:
    # (m1, n1) of NKP's input, in either of its two forms: a matrix, whose
    # m2 x n2 blocks must tile it, or with blocks=(m1, n1) the matrix's
    # (m1*n1) x (m2*n2) rearrangement.  The one rule for which form a caller
    # sent, for nkp and the matrix routes of decomp alike.
    shape = np.shape(A)
    if len(shape) != 2:
        raise DimensionError(f"{name} expects a matrix")
    if blocks is None:
        return _split(shape[0], shape[1], m2, n2)
    m1, n1 = blocks
    if shape != (m1 * n1, m2 * n2):
        raise DimensionError(f"rearrangement shape {shape} is not {(m1 * n1, m2 * n2)}")
    return m1, n1


def rearrange(A, m2: int, n2: int) -> np.ndarray:
    """Rearrangement of an (m1*m2) x (n1*n2) matrix A into the C-contiguous
    (m1*n1) x (m2*n2) complex matrix whose row (j*m1 + i) is the
    column-major vec of the m2 x n2 block (i, j), i.e. blocks are
    enumerated j-major.  The map only permutes entries, so
    ||rearrange(A)||_F == ||A||_F.  The result never aliases A.
    """
    A = np.asarray(A, dtype=np.complex128)
    m1, n1 = _blocks(A, m2, n2, None, "rearrange")
    R = _block_view(A[:, :, None], m2, n2).reshape(m1 * n1, m2 * n2)
    # The reshape copies unless the blocks already line up (for example a
    # Fortran-ordered matrix with m1 = n1 = 1).
    return R.copy() if np.may_share_memory(R, A) else R


def nkp(A, m2: int, n2: int, *, blocks: tuple[int, int] | None = None) -> KronFactors:
    """Factor pair minimizing ||A - B ⊗ C||_F over m1 x n1 / m2 x n2 pairs.

    vec(B) and vec(C) are sqrt(s1) times the leading left/right singular
    vectors of the rearrangement (column-major vec).  A zero input returns
    zero factors.  On the Lanczos path the pair is optimal unless the
    input is built so that v1 is orthogonal to the solver's fixed start,
    or the solver reaches its step budget, as on a flat leading spectrum
    (see :func:`~stpz.svd.leading_triplet`).  The budget can end the run
    only on a near-square rearrangement, or on a tall or wide one whose
    short side exceeds 24, since those with a smaller one run Lanczos on
    their Gram matrix, where the budget spans its whole Krylov space.  At
    the budget, s1 is the largest Ritz value, at most the leading singular
    value, and the residual is correspondingly at least the optimal one.

    ``residual`` is the norm of A - B ⊗ C for the returned pair on both
    paths, taken as sqrt(||R||_F^2 - s1^2) with no temporary: the dense SVD
    leaves the tail of its singular values, and a Lanczos Ritz triplet,
    converged or not, has u^H R v = s1.  Where that difference is at most
    ``_TAIL_MIN`` times ||R||_F^2, so that it would cancel, the residual is
    the norm of R - vec(B) vec(C)^T, taken directly.

    R follows the input rule of :mod:`stpz.svd`: out of range, the factors
    of R s^2 are returned as B / s, C / s and residual / s^2.

    With ``blocks=(m1, n1)``, A is not the matrix but its (m1*n1) x (m2*n2)
    rearrangement, as :func:`rearrange` gives it, in a real or complex
    dtype.  The rearrangement's shape fixes only the products m1*n1 and
    m2*n2, so blocks must be the exact (m1, n1) pair of the matrix: a
    swapped pair, or any other pair with the same product, is not detected
    and gives a B of that shape.  A is only read, in either form.
    """
    R = _as_matrix(A, "nkp")
    m1, n1 = _blocks(R, m2, n2, blocks, "nkp")
    if blocks is None:
        # A view where the blocks line up: R is only read.
        R = np.ascontiguousarray(_block_view(R[:, :, None], m2, n2).reshape(m1 * n1, m2 * n2))
    R, s, norm2 = _scale(R, "nkp")
    f = svd(R) if R.size * min(R.shape) <= _DENSE_WORK else _leading_triplet(R)
    s1 = np.sqrt(f.sigma[0])
    B = (s1 * f.U[:, 0]).reshape((m1, n1), order="F")
    # The rank-1 term of R is sigma_1 u1 v1^H while the Kronecker identity
    # rearrange(B ⊗ C) = vec(B) vec(C)^T uses a plain transpose, so C takes
    # the conjugated right vector (a no-op for real data).
    C = (s1 * np.conj(f.V[:, 0])).reshape((m2, n2), order="F")
    # rearrange only permutes entries, so ||A - B ⊗ C||_F is the norm of
    # R - vec(B) vec(C)^T, which is sqrt(||R||^2 - s1^2) for the triplet's
    # rank-1 term.
    tail = norm2 - f.sigma[0] ** 2
    if tail > _TAIL_MIN * norm2:
        e1 = float(np.sqrt(tail))
    else:
        # Near exact Kronecker structure the difference resolves a tail that
        # the identity would cancel.  It is taken in the outer product's own
        # buffer, so that R is left alone.
        E = np.outer(B.ravel(order="F"), C.ravel(order="F"))
        np.subtract(R, E, out=E)
        e1 = float(np.linalg.norm(E))
    return KronFactors(B=B / s, C=C / s, residual=e1 / s / s)
