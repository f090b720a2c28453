"""SVD-like decompositions built on the semi-tensor product, plus the
classical tubal (t-product) SVD baseline.

Matrix route: A (m1*m2 x n1*n2) is split as A ≈ B ⊗ C by the nearest
Kronecker product step, then B = U diag(sigma) V^H, so that
A = (U ⊗ I_m2)(diag(sigma) ⊗ C)(V^H ⊗ I_n2) + E.  The middle factor is
block-diagonal with blocks sigma_i * C of non-increasing Frobenius norm.

Tensor route: every frontal slice of the mode-3 DFT of the tensor gets the
matrix treatment.  The rearrangement permutes entries within a slice and the
DFT mixes entries across slices, so the two commute: the input is
rearranged once, in its own dtype (one byte per sample for an image), the
DFT is taken along the stack into one plane per Fourier slice, and each is
factored as it is, with no copy and no write: in real arithmetic, into real
factors, where a real input's slice is self-conjugate (0, and l/2 for even l).
Factors are kept in this compact Fourier-domain per-slice form (not expanded
to spatial tensors); :func:`reconstruct` applies the single inverse DFT at
the end, and :func:`decode_samples` takes an image's 8-bit samples
straight from the factors.  With the unnormalized DFT, Parseval gives
||A||_F^2 = (1/l) * sum_i ||Ahat_i||_F^2, so error aggregates across slices
carry an explicit 1/sqrt(l).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, FormatError
from .imaging import _round_samples
from .nkp import _split, nkp, rearrange_slices
from .svd import _fix_phases, svd, svds
from .tensor import as_array3, as_tensor3, conj_transpose, dft3, idft3
from .products import t_product

__all__ = [
    "IMAG_TOL",
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
    "decode_samples",
    "error_bound_matrix",
    "error_bound_tensor",
]


@dataclass(frozen=True, kw_only=True)
class MatStpSvd:
    """Compact factors of the matrix decomposition A ≈ U ⋉ Σ ⋉ V^H.

    U is m1 x r and V is n1 x r with orthonormal columns, sigma descending;
    Σ = diag(sigma) ⊗ C is never materialized.  ``dims`` (m1, m2, n1, n2)
    comes from the shapes of U, C and V.  The constructor takes keywords
    only and checks the factors once: sigma is a vector, U and V have
    r = len(sigma) columns, C is a matrix with positive dims, and r lies in
    [1, min(m1, n1)], so no slice that exists is invalid.

    The factorization also leaves the two error terms of the paper's bound:
    e1 = ||A - B ⊗ C||_F, the NKP residual, and e2 = ||C||_F ||sigma_B[r:]||,
    the energy of the dropped blocks (sigma_B being all of B's singular
    values).  The residual of the nearest Kronecker product annihilates the
    leading right vector of the rearrangement, and every dropped block has
    the form x v1^H after rearrangement, so the error ||A - U ⋉ Σ ⋉ V^H||_F
    is exactly sqrt(e1^2 + e2^2); the paper bounds it by e1 + e2.  Factors
    read from a container carry neither term (None).
    """

    U: np.ndarray
    sigma: np.ndarray
    C: np.ndarray
    V: np.ndarray
    e1: float | None = None
    e2: float | None = None

    def __post_init__(self):
        U, s, C, V = (x.shape for x in (self.U, self.sigma, self.C, self.V))
        if not (len(s) == 1 and U[1:] == V[1:] == s and len(C) == 2 and min(C) > 0):
            raise DimensionError(f"factor shapes are inconsistent: U {U}, sigma {s}, C {C}, V {V}")
        _check_block_rank([self.rank], 1, min(U[0], V[0]))

    @property
    def rank(self) -> int:
        return self.sigma.size

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.U.shape[0], self.C.shape[0], self.V.shape[0], self.C.shape[1])


@dataclass(frozen=True, kw_only=True)
class TensorStpSvd:
    """Per-Fourier-slice matrix factors of a third-order tensor.

    ``slices[i]`` decomposes slice i of the mode-3 DFT of the original
    tensor; ``slices`` is stored as a tuple.  ``dims`` (m1, m2, n1, n2, l)
    is slice 0's dims and the number of slices.  The constructor takes
    keywords only and refuses a factorization with no slices, or with
    slices whose dims differ.  ``real_input`` records whether the original
    tensor was real.  Its reconstruction is then real up to roundoff when
    conjugate slices keep equal ranks, R[i] == R[l - i]; an uneven pair
    leaves an imaginary part, which ``stpz decompress`` drops with a
    warning.
    """

    slices: tuple[MatStpSvd, ...]
    real_input: bool = False

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(self.slices))
        if len({s.dims for s in self.slices}) != 1:
            raise DimensionError(f"slice factor shapes give dims {[s.dims for s in self.slices]}")

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        return self.slices[0].dims + (len(self.slices),)

    @property
    def block_rank(self) -> list[int]:
        return [s.rank for s in self.slices]


@dataclass
class TSvdFactors:
    """Spatial-domain tubal SVD factors: A ≈ U * S * V^H (t-products)."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def _check_dims(dims: Sequence[int]) -> None:
    if min(dims) < 1:
        raise DimensionError(f"non-positive dimension in {tuple(dims)}")


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


def _as_input(A) -> tuple[np.ndarray, bool]:
    # A as a third-order array, and whether it is real.  A real dtype is kept
    # unscanned; a complex A with no imaginary part continues as A.real.
    A = as_array3(A)
    if A.dtype.kind == "c" and _is_real(A):
        A = A.real
    return A, A.dtype.kind != "c"


# Twiddle factor sin(2 pi / 3) of the length-3 butterfly, as pocketfft has it.
_SIN_2PI_3 = 0.8660254037844386


def _stack_dft(S: np.ndarray) -> list[np.ndarray]:
    """Unnormalized DFT along axis 0 of an (l, p, q) stack, as one C-contiguous
    (p, q) plane per Fourier slice with the bytes of :func:`~stpz.tensor.dft3`:
    float64, its real part, for a real stack's slices i = -i (mod l).

    numpy's FFT pays tens of ns per tube, which dominates for the length-3
    tubes of an RGB image.  So a real stack of one or three slices (a gray
    or an RGB image) takes pocketfft's own butterfly one plane at a time, in
    float64, keeping its +-0.0 terms so that signed zeros match too.  Any
    other stack goes to np.fft.fft in complex128 (which it would otherwise
    keep in the precision of a float32 input).
    """
    l = S.shape[0]
    if S.dtype.kind == "c" or l not in (1, 3):
        return [
            np.ascontiguousarray(P.real) if S.dtype.kind != "c" and 2 * i % l == 0 else P
            for i, P in enumerate(np.fft.fft(np.asarray(S, dtype=np.complex128), axis=0))
        ]
    if l == 1:
        return [np.asarray(S[0], dtype=np.float64)]
    # t = x1 + x2, c = x0 - t/2, s = -sin(2 pi/3) (x1 - x2); the slices
    # are x0 + t, (c + 0.0) + (0.0 + s)i and (c - 0.0) + (0.0 - s)i.
    # c - 0.0 is c bit for bit; c + 0.0 and 0.0 + s turn -0.0 into 0.0.
    out = np.empty((2,) + S.shape[1:], dtype=np.complex128)
    re, im = out.real, out.imag
    t = np.add(S[1], S[2], dtype=np.float64)
    x0 = np.add(S[0], t, dtype=np.float64)
    t *= -0.5
    np.add(S[0], t, out=t, dtype=np.float64)
    np.add(t, 0.0, out=re[0])
    re[1] = t
    d = np.subtract(S[1], S[2], dtype=np.float64)
    d *= -_SIN_2PI_3
    np.add(d, 0.0, out=im[0])
    np.subtract(0.0, d, out=im[1])
    return [x0, out[0], out[1]]


def _matrix_blocks(A, m2: int, n2: int, blocks, name: str) -> tuple[int, int]:
    # (m1, n1) of a matrix, or the given blocks when A is its rearrangement
    # (which nkp checks).
    if blocks is not None:
        return blocks
    A = np.asarray(A)
    if A.ndim != 2:
        raise DimensionError(f"{name} expects a matrix")
    return _split(A.shape[0], A.shape[1], m2, n2)


def mat_stp_svd(A, m2: int, n2: int) -> MatStpSvd:
    """Full matrix decomposition: :func:`mat_stp_svd_trunc` at
    r = min(m1, n1)."""
    m1, n1 = _matrix_blocks(A, m2, n2, None, "mat_stp_svd")
    return mat_stp_svd_trunc(A, m2, n2, min(m1, n1))


def mat_stp_svd_trunc(
    A, m2: int, n2: int, r: int, *, blocks: tuple[int, int] | None = None
) -> MatStpSvd:
    """Truncated matrix decomposition keeping the leading r blocks, with the
    error terms e1 and e2 (see :class:`MatStpSvd`).

    With ``blocks=(m1, n1)``, A is the matrix's rearrangement, and blocks
    must be the matrix's exact (m1, n1) pair, which the rearrangement's
    shape cannot check (see :func:`~stpz.nkp.nkp`).
    """
    m1, n1 = _matrix_blocks(A, m2, n2, blocks, "mat_stp_svd_trunc")
    _check_block_rank([r], 1, min(m1, n1))
    factors = nkp(A, m2, n2, blocks=blocks)
    f = svd(factors.B)
    return MatStpSvd(
        U=f.U[:, :r].copy(),
        sigma=f.sigma[:r].copy(),
        C=factors.C,
        V=f.V[:, :r].copy(),
        e1=factors.residual,
        e2=float(np.linalg.norm(factors.C) * np.linalg.norm(f.sigma[r:])),
    )


def tensor_stp_svd(A, m2: int, n2: int) -> TensorStpSvd:
    """Full tensor decomposition: :func:`tensor_stp_svd_trunc` at rank
    min(m1, n1) in every slice."""
    A = as_array3(A)
    m1, n1 = _split(A.shape[0], A.shape[1], m2, n2)
    return tensor_stp_svd_trunc(A, m2, n2, [min(m1, n1)] * A.shape[2])


def tensor_stp_svd_trunc(
    A, m2: int, n2: int, R: Sequence[int], threads: int = 1
) -> TensorStpSvd:
    """Truncated tensor decomposition with per-slice block rank R, factoring
    up to ``threads`` Fourier slices at once.

    For a real A (an image), slice l - i is conj(slice i), and so are their
    factors; the self-conjugate slices are real, and so are their factors.
    R[i] != R[l - i] truncates such a pair unevenly and leaves an imaginary
    part in the reconstruction; ``stpz decompress`` drops it with a warning."""
    A, real = _as_input(A)
    m, n, l = A.shape
    m1, n1 = _split(m, n, m2, n2)
    R = _check_block_rank(R, l, min(m1, n1))
    # Ah[i] is the C-contiguous rearrangement of Fourier slice i, with the
    # bytes of rearrange(dft3(A)[:, :, i], m2, n2) (float64, its real part, for
    # a self-conjugate slice of real A), and no complex copy of A.
    Ah = _stack_dft(rearrange_slices(A, m2, n2))
    slices = _slice_map(
        lambda i: mat_stp_svd_trunc(Ah[i], m2, n2, R[i], blocks=(m1, n1)), l, threads
    )
    return TensorStpSvd(slices=slices, real_input=real)


def t_svd(A) -> TSvdFactors:
    """Full tubal SVD: U (n1 x n1 x n3) and V (n2 x n2 x n3) unitary tensors,
    S f-diagonal, with A = U * S * V^H."""
    A = as_tensor3(A)
    n1, n2, n3 = A.shape
    Ah = dft3(A)
    Uh = np.empty((n1, n1, n3), dtype=np.complex128)
    Sh = np.zeros((n1, n2, n3), dtype=np.complex128)
    Vh = np.empty((n2, n2, n3), dtype=np.complex128)
    for i in range(n3):
        # Square unitary factors; the phase convention applies to the paired
        # leading columns only (trailing null-space columns do not affect
        # U S V^H).
        U, s, W = np.linalg.svd(Ah[:, :, i], full_matrices=True)
        V = W.conj().T
        _fix_phases(U[:, : s.size], V[:, : s.size])
        Uh[:, :, i] = U
        Sh[: s.size, : s.size, i] = np.diag(s)
        Vh[:, :, i] = V
    return TSvdFactors(U=idft3(Uh), S=idft3(Sh), V=idft3(Vh))


def t_svd_trunc(A, R: Sequence[int]) -> TSvdFactors:
    """Tubal SVD with DFT slice i truncated at rank R[i].

    Slices with R[i] < max(R) are zero-padded so the factor tensors share a
    common width max(R).

    For real A the DFT slices are conjugate-symmetric, slice n3 - i being
    conj(slice i), so only slices 0..n3//2 are decomposed: slice i keeps
    max(R[i], R[n3 - i]) triplets, and slice n3 - i takes the leading
    R[n3 - i] of them conjugated.  Conjugation keeps the phase convention.
    The self-conjugate slices (0, and n3/2 for even n3) are real and go to
    the real SVD.  R[i] != R[n3 - i] leaves an imaginary part in the
    reconstruction of a real A (an image); ``stpz bench`` scores its real
    part.
    """
    A, real = _as_input(A)
    n1, n2, n3 = A.shape
    R = _check_block_rank(R, n3, min(n1, n2))
    rmax = max(R)
    # Ah[i] is DFT slice i, a float64 plane where it is real.
    Ah = _stack_dft(np.ascontiguousarray(np.moveaxis(A, 2, 0)))
    Uh = np.zeros((n1, rmax, n3), dtype=np.complex128)
    Sh = np.zeros((rmax, rmax, n3), dtype=np.complex128)
    Vh = np.zeros((n2, rmax, n3), dtype=np.complex128)

    def put(i: int, U, sigma, V) -> None:
        r = R[i]
        Uh[:, :r, i] = U[:, :r]
        Sh[:r, :r, i] = np.diag(sigma[:r])
        Vh[:, :r, i] = V[:, :r]

    for i in range(n3 // 2 + 1 if real else n3):
        # j is the slice that takes slice i's factors conjugated: its mirror
        # for real A, none (j == i) for complex A.
        j = -i % n3 if real else i
        f = svds(Ah[i], max(R[i], R[j]))
        put(i, f.U, f.sigma, f.V)
        if j != i:
            put(j, f.U.conj(), f.sigma, f.V.conj())
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
        out = np.empty((m1 * m2, n1 * n2, l), dtype=np.complex128)
        for i, s in enumerate(F.slices):
            out[:, :, i] = _reconstruct_mat_slice(s)
        out = idft3(out)
    elif isinstance(F, TSvdFactors):
        out = t_product(t_product(F.U, F.S), conj_transpose(F.V))
    else:
        raise TypeError(f"cannot reconstruct from {type(F).__name__}")
    return out.real.copy() if drop_imag else out


def _decode_planes(F: TensorStpSvd) -> tuple[np.ndarray, float]:
    """The real part of ``reconstruct(F)`` from the compact factors, as an
    (m1*n1) x (m2*n2*l) matrix whose entry ((a, b), (c, d, k)) is spatial
    entry (a*m2 + c, b*n2 + d, k), and the largest modulus of its imaginary
    part.

    Entry (a*m2 + c, b*n2 + d) of B ⊗ C is B[a, b] C[c, d], and the inverse
    DFT is linear, so with row-major vec the plane is the sum over Fourier
    slices j of Re(vec(B_j) vec(w[k, j] C_j)^T): one real GEMM of inner size
    2l, and a companion GEMM gives the imaginary part.  Overflow gives a
    non-finite plane, which the caller rejects, so numpy's overflow warnings
    are silenced.
    """
    m1, m2, n1, n2, l = F.dims
    # w[k, j] = omega^(jk) / l with omega = exp(2 pi i / l), the weight of
    # Fourier slice j in spatial slice k, as idft3 has it.
    w = np.fft.ifft(np.eye(l), axis=0)
    left = np.empty((2 * l, m1 * n1))
    right = np.empty((2, 2 * l, m2 * n2, l))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, s in enumerate(F.slices):
            B = (s.U * s.sigma) @ s.V.conj().T
            left[j], left[l + j] = B.real.ravel(), B.imag.ravel()
            wc = s.C.reshape(-1, 1) * w[:, j]
            # Re(x y^T) = Re(x) Re(y)^T - Im(x) Im(y)^T, and
            # Im(x y^T) = Re(x) Im(y)^T + Im(x) Re(y)^T.
            right[0, j], right[0, l + j] = wc.real, -wc.imag
            right[1, j], right[1, l + j] = wc.imag, wc.real
        plane = left.T @ right[0].reshape(2 * l, -1)
        imag = left.T @ right[1].reshape(2 * l, -1)
        return plane, float(max(imag.max(), -imag.min()))


# A decode whose imaginary residue exceeds this in modulus is not a real
# image; ``stpz decompress`` then sets imag_warning.
IMAG_TOL = 1e-6


def decode_samples(F: TensorStpSvd) -> tuple[np.ndarray, float]:
    """Decode the factors of an image straight to its 8-bit samples; the one
    STP decoder, shared by ``stpz decompress`` and ``stpz bench``.

    Returns (samples, imag_residue): the uint8 (m, n, l) array that
    ``tensor_to_image(reconstruct(F))`` gives, and the largest modulus of the
    imaginary part of the reconstruction, which is at roundoff level when
    the slices are conjugate-symmetric, as a real image's are.  No complex
    (m, n, l) tensor: one real GEMM of inner size 2l (:func:`_decode_planes`)
    gives every channel's rearranged real plane, rounded in place by
    ``tensor_to_image``'s rule and un-rearranged once, as uint8.  The plane
    agrees with ``reconstruct(F).real`` to roundoff, so a sample may differ
    from the reference by one where that lies within roundoff of a k + 0.5 tie.

    Raises FormatError when the reconstruction is not finite (finite factors
    whose product overflows), and DimensionError unless l is 1 or 3.
    """
    m1, m2, n1, n2, l = F.dims
    if l not in (1, 3):
        raise DimensionError(f"expected 1 or 3 slices, got {l}")
    plane, residue = _decode_planes(F)
    if not (math.isfinite(residue) and np.isfinite(plane).all()):
        raise FormatError("the factors overflow: the reconstruction is not finite")
    samples = _round_samples(plane).reshape(m1, n1, m2, n2 * l).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(samples).reshape(m1 * m2, n1 * n2, l), residue


def error_bound_matrix(A, m2: int, n2: int, r: int) -> tuple[float, float, float]:
    """(e1, e2, e1 + e2) for the truncated matrix decomposition at rank r.

    e1 is the NKP residual ||A - B ⊗ C||_F (the error of the untruncated
    decomposition; in exact arithmetic the root tail energy of the
    rearranged matrix's singular values); e2 is the root energy of the
    dropped blocks, sum_{j>r} ||sigma_j C||_F^2.  Both come from
    :func:`mat_stp_svd_trunc`.  The actual error is exactly
    sqrt(e1^2 + e2^2), so at most the paper's bound e1 + e2.
    """
    F = mat_stp_svd_trunc(A, m2, n2, r)
    return F.e1, F.e2, F.e1 + F.e2


def error_bound_tensor(A, m2: int, n2: int, R: Sequence[int]) -> float:
    """The paper's upper bound on the spatial-domain error of the truncated
    tensor decomposition: the per-DFT-slice bounds e1 + e2 of
    :func:`tensor_stp_svd_trunc`'s factors summed, scaled by 1/sqrt(l).

    By Parseval the actual error is exactly
    sqrt((1/l) sum_i (e1_i^2 + e2_i^2)), which never exceeds the bound.
    """
    F = tensor_stp_svd_trunc(A, m2, n2, R)
    return sum(s.e1 + s.e2 for s in F.slices) / np.sqrt(F.dims[4])
