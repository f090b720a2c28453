"""SVD-like decompositions built on the semi-tensor product, plus the
classical tubal (t-product) SVD baseline.

Matrix route: A (m1*m2 x n1*n2) is split as A ≈ B ⊗ C by the nearest
Kronecker product step, then B = U diag(sigma) V^H, so that
A = (U ⊗ I_m2)(diag(sigma) ⊗ C)(V^H ⊗ I_n2) + E.  The middle factor is
block-diagonal with blocks sigma_i * C of non-increasing Frobenius norm.

Tensor route: every frontal slice of the mode-3 DFT of the tensor gets the
matrix treatment.  Factors are kept in this compact Fourier-domain per-slice
form (not expanded to spatial tensors); :func:`reconstruct` applies the
single inverse DFT at the end.  With the unnormalized DFT, Parseval gives
||A||_F^2 = (1/l) * sum_i ||Ahat_i||_F^2, so error aggregates across slices
carry an explicit 1/sqrt(l).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError
from .nkp import _split, nkp
from .svd import _fix_phases, svd, svds
from .tensor import as_tensor3, conj_transpose, dft3, idft3
from .products import t_product

__all__ = [
    "MatStpSvd",
    "TensorStpSvd",
    "TSvdFactors",
    "mat_stp_svd",
    "mat_stp_svd_trunc",
    "tensor_stp_svd",
    "tensor_stp_svd_trunc",
    "t_svd",
    "t_svd_trunc",
    "reconstruct",
    "error_bound_matrix",
    "error_bound_tensor",
]


@dataclass
class MatStpSvd:
    """Compact factors of the matrix decomposition A ≈ U ⋉ Σ ⋉ V^H.

    U is m1 x r and V is n1 x r with orthonormal columns, sigma descending;
    Σ = diag(sigma) ⊗ C is never materialized.  dims is (m1, m2, n1, n2).
    """

    U: np.ndarray
    sigma: np.ndarray
    C: np.ndarray
    V: np.ndarray
    dims: tuple[int, int, int, int]

    @property
    def rank(self) -> int:
        return self.sigma.size


@dataclass
class TensorStpSvd:
    """Per-Fourier-slice matrix factors of a third-order tensor.

    ``slices[i]`` decomposes slice i of the mode-3 DFT of the original
    tensor; all slices share dims (m1, m2, n1, n2).  ``real_input`` records
    whether the original tensor was real (its reconstruction then has
    negligible imaginary residue).
    """

    slices: list[MatStpSvd]
    dims: tuple[int, int, int, int, int]
    real_input: bool = False

    @property
    def block_rank(self) -> list[int]:
        return [s.rank for s in self.slices]

    @property
    def shape(self) -> tuple[int, int, int]:
        m1, m2, n1, n2, l = self.dims
        return (m1 * m2, n1 * n2, l)


@dataclass
class TSvdFactors:
    """Spatial-domain tubal SVD factors: A ≈ U * S * V^H (t-products)."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def _check_block_rank(R: Sequence[int], l: int, rmax: int) -> list[int]:
    R = [int(r) for r in R]
    if len(R) != l:
        raise DimensionError(f"block rank has length {len(R)}, expected {l}")
    for r in R:
        if not 1 <= r <= rmax:
            raise DimensionError(f"block rank entry {r} out of range [1, {rmax}]")
    return R


def _slice_map(fn, count: int, threads: int):
    # Deterministic: results are assembled by slice index regardless of
    # scheduling; per-slice work is independent.
    if threads > 1 and count > 1:
        with ThreadPoolExecutor(max_workers=min(threads, count)) as ex:
            return list(ex.map(fn, range(count)))
    return [fn(i) for i in range(count)]


def _is_real(A: np.ndarray) -> bool:
    return bool(np.all(A.imag == 0.0))


def mat_stp_svd(A, m2: int, n2: int) -> MatStpSvd:
    """Full matrix decomposition (r = min(m1, n1))."""
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2:
        raise DimensionError("mat_stp_svd expects a matrix")
    m1, n1 = _split(A.shape[0], A.shape[1], m2, n2)
    factors = nkp(A, m2, n2)
    f = svd(factors.B)
    return MatStpSvd(U=f.U, sigma=f.sigma, C=factors.C, V=f.V, dims=(m1, m2, n1, n2))


def mat_stp_svd_trunc(A, m2: int, n2: int, r: int) -> MatStpSvd:
    """Truncated matrix decomposition keeping the leading r blocks."""
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2:
        raise DimensionError("mat_stp_svd_trunc expects a matrix")
    m1, n1 = _split(A.shape[0], A.shape[1], m2, n2)
    if not 1 <= r <= min(m1, n1):
        raise DimensionError(f"rank {r} out of range [1, {min(m1, n1)}]")
    factors = nkp(A, m2, n2)
    f = svds(factors.B, r)
    return MatStpSvd(U=f.U, sigma=f.sigma, C=factors.C, V=f.V, dims=(m1, m2, n1, n2))


def tensor_stp_svd(A, m2: int, n2: int, threads: int = 1) -> TensorStpSvd:
    """Full tensor decomposition: matrix decomposition of every DFT slice."""
    A = as_tensor3(A)
    m, n, l = A.shape
    m1, n1 = _split(m, n, m2, n2)
    Ah = dft3(A)
    slices = _slice_map(lambda i: mat_stp_svd(Ah[:, :, i], m2, n2), l, threads)
    return TensorStpSvd(
        slices=slices, dims=(m1, m2, n1, n2, l), real_input=_is_real(A)
    )


def tensor_stp_svd_trunc(
    A, m2: int, n2: int, R: Sequence[int], threads: int = 1
) -> TensorStpSvd:
    """Truncated tensor decomposition with per-slice block rank R."""
    A = as_tensor3(A)
    m, n, l = A.shape
    m1, n1 = _split(m, n, m2, n2)
    R = _check_block_rank(R, l, min(m1, n1))
    Ah = dft3(A)
    slices = _slice_map(
        lambda i: mat_stp_svd_trunc(Ah[:, :, i], m2, n2, R[i]), l, threads
    )
    return TensorStpSvd(
        slices=slices, dims=(m1, m2, n1, n2, l), real_input=_is_real(A)
    )


def t_svd(A, threads: int = 1) -> TSvdFactors:
    """Full tubal SVD: U (n1 x n1 x n3) and V (n2 x n2 x n3) unitary tensors,
    S f-diagonal, with A = U * S * V^H."""
    A = as_tensor3(A)
    n1, n2, n3 = A.shape
    Ah = dft3(A)
    Uh = np.empty((n1, n1, n3), dtype=np.complex128)
    Sh = np.zeros((n1, n2, n3), dtype=np.complex128)
    Vh = np.empty((n2, n2, n3), dtype=np.complex128)

    def work(i: int):
        # Square unitary factors; the phase convention applies to the paired
        # leading columns only (trailing null-space columns do not affect
        # U S V^H).
        U, s, W = np.linalg.svd(Ah[:, :, i], full_matrices=True)
        V = W.conj().T
        _fix_phases(U[:, : s.size], V[:, : s.size])
        return U, s, V

    for i, (U, s, V) in enumerate(_slice_map(work, n3, threads)):
        Uh[:, :, i] = U
        Sh[: s.size, : s.size, i] = np.diag(s)
        Vh[:, :, i] = V
    return TSvdFactors(U=idft3(Uh), S=idft3(Sh), V=idft3(Vh))


def t_svd_trunc(A, R: Sequence[int], threads: int = 1) -> TSvdFactors:
    """Tubal SVD with DFT slice i truncated at rank R[i].

    Slices with R[i] < max(R) are zero-padded so the factor tensors share a
    common width max(R).

    For real A the DFT slices are conjugate-symmetric, slice n3 - i being
    conj(slice i), so only slices 0..n3//2 are decomposed: slice i keeps
    max(R[i], R[n3 - i]) triplets, and slice n3 - i takes the leading
    R[n3 - i] of them conjugated.  Conjugation keeps the phase convention.
    The self-conjugate slices (0, and n3/2 for even n3) are real and go to
    the real SVD.
    """
    A = as_tensor3(A)
    n1, n2, n3 = A.shape
    R = _check_block_rank(R, n3, min(n1, n2))
    rmax = max(R)
    Ah = dft3(A)
    Uh = np.zeros((n1, rmax, n3), dtype=np.complex128)
    Sh = np.zeros((rmax, rmax, n3), dtype=np.complex128)
    Vh = np.zeros((n2, rmax, n3), dtype=np.complex128)

    def put(i: int, U, sigma, V) -> None:
        r = R[i]
        Uh[:, :r, i] = U[:, :r]
        Sh[:r, :r, i] = np.diag(sigma[:r])
        Vh[:, :r, i] = V[:, :r]

    if _is_real(A):
        def work(i: int):
            j = -i % n3
            if i == j:
                return svds(Ah[:, :, i].real, R[i])
            return svds(Ah[:, :, i], max(R[i], R[j]))

        for i, f in enumerate(_slice_map(work, n3 // 2 + 1, threads)):
            put(i, f.U, f.sigma, f.V)
            j = -i % n3
            if j != i:
                put(j, f.U.conj(), f.sigma, f.V.conj())
    else:
        for i, f in enumerate(_slice_map(lambda i: svds(Ah[:, :, i], R[i]), n3, threads)):
            put(i, f.U, f.sigma, f.V)
    return TSvdFactors(U=idft3(Uh), S=idft3(Sh), V=idft3(Vh))


def _reconstruct_mat_slice(s: MatStpSvd) -> np.ndarray:
    # (U ⊗ I)(diag(sigma) ⊗ C)(V^H ⊗ I) collapses to (U diag(sigma) V^H) ⊗ C.
    B = (s.U * s.sigma) @ s.V.conj().T
    return np.kron(B, s.C)


def reconstruct(F, drop_imag: bool = False):
    """Multiply the factors back together.

    Accepts :class:`MatStpSvd` (returns a matrix), :class:`TensorStpSvd`
    (per-slice reconstruction in the Fourier domain followed by the inverse
    DFT), or :class:`TSvdFactors` (t-product chain U * S * V^H).  With
    ``drop_imag`` the imaginary part is discarded, which is lossless up to
    roundoff when the decomposed input was real.
    """
    if isinstance(F, MatStpSvd):
        out = _reconstruct_mat_slice(F)
    elif isinstance(F, TensorStpSvd):
        m1, m2, n1, n2, l = F.dims
        if len(F.slices) != l:
            raise DimensionError(f"expected {l} slices, found {len(F.slices)}")
        out = np.empty((m1 * m2, n1 * n2, l), dtype=np.complex128)
        for i, s in enumerate(F.slices):
            if s.dims != (m1, m2, n1, n2):
                raise DimensionError(
                    f"slice {i} dims {s.dims} differ from {(m1, m2, n1, n2)}"
                )
            out[:, :, i] = _reconstruct_mat_slice(s)
        out = idft3(out)
    elif isinstance(F, TSvdFactors):
        out = t_product(t_product(F.U, F.S), conj_transpose(F.V))
    else:
        raise TypeError(f"cannot reconstruct from {type(F).__name__}")
    return out.real.copy() if drop_imag else out


def error_bound_matrix(A, m2: int, n2: int, r: int) -> tuple[float, float, float]:
    """(e1, e2, e1 + e2) for the truncated matrix decomposition at rank r.

    e1 is the NKP residual ||A - B ⊗ C||_F (the error of the untruncated
    decomposition; in exact arithmetic the root tail energy of the
    rearranged matrix's singular values); e2 is the root energy of the
    dropped blocks, sum_{j>r} ||sigma_j C||_F^2.  The actual error is at
    most e1 + e2.
    """
    A = np.asarray(A, dtype=np.complex128)
    m1, n1 = _split(A.shape[0], A.shape[1], m2, n2)
    if not 1 <= r <= min(m1, n1):
        raise DimensionError(f"rank {r} out of range [1, {min(m1, n1)}]")
    factors = nkp(A, m2, n2)
    e1 = factors.residual
    sig_b = np.linalg.svd(factors.B, compute_uv=False)
    e2 = float(np.linalg.norm(factors.C) * np.linalg.norm(sig_b[r:]))
    return e1, e2, e1 + e2


def error_bound_tensor(A, m2: int, n2: int, R: Sequence[int]) -> float:
    """Upper bound on the spatial-domain error of the truncated tensor
    decomposition: the per-DFT-slice bounds summed, scaled by 1/sqrt(l)."""
    A = as_tensor3(A)
    m, n, l = A.shape
    m1, n1 = _split(m, n, m2, n2)
    R = _check_block_rank(R, l, min(m1, n1))
    Ah = dft3(A)
    total = 0.0
    for i in range(l):
        _, _, bound = error_bound_matrix(Ah[:, :, i], m2, n2, R[i])
        total += bound
    return total / np.sqrt(l)
