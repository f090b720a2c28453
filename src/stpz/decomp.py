"""SVD-like decompositions built on the semi-tensor product, plus the
classical tubal (t-product) SVD baseline.

Matrix route: A (m1*m2 x n1*n2) is split as A ≈ B ⊗ C by the nearest
Kronecker product step, then B = U diag(sigma) V^H, so that
A = (U ⊗ I_m2)(diag(sigma) ⊗ C)(V^H ⊗ I_n2) + E.  The middle factor is
block-diagonal with blocks sigma_i * C of non-increasing Frobenius norm.

Tensor route: every frontal slice of the mode-3 DFT of the tensor gets the
matrix treatment.  The rearrangement permutes entries within a slice and the
DFT mixes entries across slices, so the two commute: the DFT along the
stack is taken on the input's gathered blocks, into one rearranged plane
per Fourier slice with dft3's bytes.  A gray image's plane is a casting
copy; a uint8 RGB image's blocks are gathered once into int16, where the
length-3 butterfly runs in place and exactly; any other input takes
np.fft.fft.  Each plane is factored as it is: in real arithmetic, into real
factors, where a real input's slice is self-conjugate (0, and l/2 for even
l).  The planes come from one iterator, slice by slice (see _stack_dft);
of a uint8 RGB image it computes slices 0 and 1, and yields slice 2, which
is conj(slice 1), as slice 1's plane conjugated in place once the consumer
has moved past slice 1.
Factors are kept in this compact Fourier-domain per-slice form (not expanded
to spatial tensors); :func:`reconstruct` applies the single inverse DFT at
the end, and :func:`decode_samples` takes an image's 8-bit samples
straight from the factors.  With the unnormalized DFT, Parseval gives
||A||_F^2 = (1/l) * sum_i ||Ahat_i||_F^2, so error aggregates across slices
carry an explicit 1/sqrt(l).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionError, FormatError
from .imaging import _round_samples
from .nkp import _block_view, _blocks, _split, nkp
from .svd import _fix_phases, svd, svds
from .tensor import _BAND, _bands, as_array3, as_tensor3, conj_transpose, dft3, idft3
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


def _check_block_rank(R: Sequence[int], l: int, rmax: int) -> list[int]:
    # A float entry is refused, not truncated; bool subclasses int, so it is
    # refused by type.
    if len(R) != l:
        raise DimensionError(f"block rank has length {len(R)}, expected {l}")
    for r in R:
        if type(r) is bool or not isinstance(r, (int, np.integer)):
            raise DimensionError(f"block rank entry {r!r} is not an integer")
        if not 1 <= r <= rmax:
            raise DimensionError(f"block rank entry {r} out of range [1, {rmax}]")
    return [int(r) for r in R]


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


def _rgb_half_spectrum(V: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    # The planes of slices 0 and 1 of a uint8 RGB image's block view V.  With
    # d = x2 - x1, t = x1 + x2 and c = 2 x0 - t, all within int16, the slices
    # are x0 + t, c/2 + (d sin(2 pi/3))i and its conjugate.  Outside
    # _stack_dft, whose frame lives while its planes are factored, the int16
    # buffer is freed on return.
    x = np.empty((3,) + shape, dtype=np.int16)
    x.reshape(V.shape)[...] = V
    x0, x1, x2 = x
    x2 -= x1
    x1 *= 2
    x1 += x2
    p0 = np.empty(shape)
    np.add(x0, x1, out=p0)
    x0 *= 2
    x0 -= x1
    p1 = np.empty(shape, dtype=np.complex128)
    np.multiply(x0, 0.5, out=p1.real)
    np.multiply(x2, _SIN_2PI_3, out=p1.imag)
    return p0, p1


def _stack_dft(A: np.ndarray, m2: int, n2: int) -> Iterator[np.ndarray]:
    """Unnormalized mode-3 DFT of an (m1*m2) x (n1*n2) x l array whose
    blocks tile it, rearranged: yields one C-contiguous (m1*n1, m2*n2) plane
    per Fourier slice, in slice order, with the bytes of
    ``rearrange(dft3(A)[:, :, i], m2, n2)``, float64, its real part, for a
    real A's slices i = -i (mod l).  At m2 = 1, n2 = n the rearrangement is
    the identity, so the planes are the slices.

    numpy's FFT pays tens of ns per tube, which dominates for the length-3
    tubes of an RGB image.  So a real A of one slice (a gray image) is one
    casting copy into its float64 plane: on uint8 gray at m2 = 8 the general
    FFT path took 2.96 ms against the copy's 0.19 ms at 512², and 9.2 ms
    against 0.76 ms at 1024², about as long as the whole gray encode at
    R = 20 (1.8 and 7.1 ms; 2 vCPU, numpy 2.4.6, median of 21 calls).  A
    uint8 A of three slices (an RGB image) is gathered once into one int16
    buffer, where the length-3 butterfly runs in place on small integers:
    every term is exact, so the planes have dft3's bytes whatever order
    pocketfft takes.  Only slices 0 and 1 are computed.  Slice 2 is
    conj(slice 1), and its plane is slice 1's, conjugated in place with
    ``np.subtract(0.0, P.imag, out=P.imag)`` (which keeps dft3's +0.0 where
    ``np.conj`` would write -0.0) when it is asked for, so a consumer must
    be done with plane 1 before it takes plane 2.  Any other A, float RGB
    included, goes whole to np.fft.fft in complex128 (which it would
    otherwise keep in the precision of a float32 input), for all l planes,
    which then have dft3's bytes.
    """
    m, n, l = A.shape
    shape = (m // m2 * (n // n2), m2 * n2)
    V = _block_view(A, m2, n2)
    if l == 1 and A.dtype.kind != "c":
        p0 = np.empty(shape)
        p0.reshape(V.shape[1:])[...] = V[0]
        yield p0
    elif l != 3 or A.dtype != np.uint8:
        S = np.empty((l,) + shape, dtype=np.complex128)
        S.reshape(V.shape)[...] = V
        S = np.fft.fft(S, axis=0)
        for i, P in enumerate(S):
            yield np.ascontiguousarray(P.real) if A.dtype.kind != "c" and 2 * i % l == 0 else P
    else:
        p0, p1 = _rgb_half_spectrum(V, shape)
        yield p0
        yield p1
        np.subtract(0.0, p1.imag, out=p1.imag)
        yield p1


def mat_stp_svd(A, m2: int, n2: int) -> MatStpSvd:
    """Full matrix decomposition: :func:`mat_stp_svd_trunc` at
    r = min(m1, n1)."""
    m1, n1 = _blocks(A, m2, n2, None, "mat_stp_svd")
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
    m1, n1 = _blocks(A, m2, n2, blocks, "mat_stp_svd_trunc")
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


def tensor_stp_svd_trunc(A, m2: int, n2: int, R: Sequence[int]) -> TensorStpSvd:
    """Truncated tensor decomposition with per-slice block rank R.

    For a real A (an image), slice l - i is conj(slice i), and so are their
    factors; the self-conjugate slices are real, and so are their factors.
    R[i] != R[l - i] truncates such a pair unevenly and leaves an imaginary
    part in the reconstruction; ``stpz decompress`` drops it with a warning."""
    A, real = _as_input(A)
    m, n, l = A.shape
    m1, n1 = _split(m, n, m2, n2)
    R = _check_block_rank(R, l, min(m1, n1))
    planes = _stack_dft(A, m2, n2)
    slices = [mat_stp_svd_trunc(P, m2, n2, r, blocks=(m1, n1)) for P, r in zip(planes, R)]
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
    Uh = np.zeros((n1, rmax, n3), dtype=np.complex128)
    Sh = np.zeros((rmax, rmax, n3), dtype=np.complex128)
    Vh = np.zeros((n2, rmax, n3), dtype=np.complex128)

    def put(i: int, U, sigma, V) -> None:
        r = R[i]
        Uh[:, :r, i] = U[:, :r]
        Sh[:r, :r, i] = np.diag(sigma[:r])
        Vh[:, :r, i] = V[:, :r]

    # P is DFT slice i, a float64 plane where it is real.  For real A zip
    # stops at the range, before it asks for plane n3//2 + 1, so no mirror
    # plane is made.
    for i, P in zip(range(n3 // 2 + 1 if real else n3), _stack_dft(A, 1, n2)):
        # j is the slice that takes slice i's factors conjugated: its mirror
        # for real A, none (j == i) for complex A.
        j = -i % n3 if real else i
        f = svds(P, max(R[i], R[j]))
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
    DFT, taken band by band in the one complex output), or
    :class:`TSvdFactors` (t-product chain U * S * V^H).  With
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
        for b in _bands(m1 * m2, n1 * n2 * l):
            out[b] = idft3(out[b])
    elif isinstance(F, TSvdFactors):
        out = t_product(t_product(F.U, F.S), conj_transpose(F.V))
    else:
        raise TypeError(f"cannot reconstruct from {type(F).__name__}")
    return out.real.copy() if drop_imag else out


def _is_mirror(s: MatStpSvd, t: MatStpSvd) -> bool:
    # Whether t's factors are conj(s)'s, by value (so +-0 match); for t = s,
    # whether s's factors are real.
    pairs = ((s.U, t.U), (s.C, t.C), (s.V, t.V))
    return np.array_equal(s.sigma, t.sigma) and all(
        np.array_equal(x, np.conj(y)) for x, y in pairs
    )


def _decode_terms(F: TensorStpSvd):
    """The terms of the real part of ``reconstruct(F)``, as (left, right).

    Entry (a*m2 + c, b*n2 + d) of B ⊗ C is B[a, b] C[c, d], and the inverse
    DFT is linear, so with row-major vec the rearranged plane, whose entry
    ((a, b), (c, d, k)) is spatial entry (a*m2 + c, b*n2 + d, k), is the sum
    over Fourier slices j of Re(x_j y_j^T), with x_j = vec(B_j),
    y_j = vec(w[k, j] C_j) and Re(x y^T) = Re(x) Re(y)^T - Im(x) Im(y)^T.
    So it is a sum of t real
    outer products, one per term (j, imag, g) of one list:
    part(x_j) g part(y_j)^T, where part takes the imaginary part of an
    imag term and the real part otherwise.  The list holds a Re term
    (j, False, g_j) for each decoded slice j, then an Im term
    (j, True, -g_j) for each decoded slice that is unpaired or not
    self-conjugate.  When every slice's mirror -j (mod l) holds its
    conjugate factors (:func:`_is_mirror`), slices j and -j sum to
    2 Re(w[k, j] B_j ⊗ C_j), so the paired F decodes slices 0..l//2, with
    g_j = 2 for a pair and 1 for a self-conjugate slice, which is real, and
    the reconstruction is real.  Any other F decodes every slice with
    g_j = 1, and its imaginary part, by Im(x y^T) = Re(x) Im(y)^T +
    Im(x) Re(y)^T, is the sum of the terms with part swapped on the right
    and no weight.

    ``left(a, b)`` stacks each term's part(x_j) for rows a:b of the B
    factors, a (t, (b - a)*n1) float64 array.  ``right(c, d)`` is a pair
    for rows c:d of the C factors: the terms' g part(y_j), a
    (t, d - c, n2*l) float64 array, and the imaginary part's companion of
    the same shape, or None where that part is exactly 0.  So
    left(0, m1).T @ right(0, m2)[0].reshape(t, -1) is the plane.  Overflow
    gives non-finite terms, which :func:`decode_samples` rejects, so
    numpy's overflow warnings are silenced.
    """
    m1, m2, n1, n2, l = F.dims
    # w[k, j] = omega^(jk) / l with omega = exp(2 pi i / l), the weight of
    # Fourier slice j in spatial slice k, as idft3 has it.
    w = np.fft.ifft(np.eye(l), axis=0)
    S = F.slices
    paired = all(_is_mirror(S[j], S[-j % l]) for j in range(l // 2 + 1))
    # The decoded slices, and the terms (slice, imag, weight).
    re = range(l // 2 + 1) if paired else range(l)
    terms = [(j, False, 2 if paired and 2 * j % l else 1) for j in re]
    terms += [(j, True, -g) for j, _, g in terms if not paired or 2 * j % l]
    with np.errstate(over="ignore", invalid="ignore"):
        US = [S[j].U * S[j].sigma for j in re]
    Vh = [S[j].V.conj().T for j in re]

    def part(x: np.ndarray, imag: bool) -> np.ndarray:
        return x.imag if imag else x.real

    def left(a: int, b: int) -> np.ndarray:
        B = [(US[j][a:b] @ Vh[j]).ravel() for j in re]
        return np.array([part(B[j], im) for j, im, _ in terms])

    def right(c: int, d: int) -> tuple[np.ndarray, np.ndarray | None]:
        with np.errstate(over="ignore", invalid="ignore"):
            wc = [S[j].C[c:d].reshape(-1, 1) * w[:, j] for j in re]
            out = np.array([g * part(wc[j], im) for j, im, g in terms])
            imag = None if paired else np.array([part(wc[j], not im) for j, im, _ in terms])
        shape = (len(terms), d - c, n2 * l)
        return out.reshape(shape), None if imag is None else imag.reshape(shape)

    return left, right


# A decode whose imaginary residue exceeds this in modulus is not a real
# image; ``stpz decompress`` then sets imag_warning.
IMAG_TOL = 1e-6


def decode_samples(F: TensorStpSvd) -> tuple[np.ndarray, float]:
    """Decode the factors of an image straight to its 8-bit samples; the one
    STP decoder, shared by ``stpz decompress`` and ``stpz bench``.

    Returns (samples, imag_residue): the uint8 (m, n, l) array that
    ``tensor_to_image(reconstruct(F))`` gives, and the largest modulus of the
    imaginary part of the reconstruction.  The plane is the sum of the
    terms of :func:`_decode_terms`.  For a paired file (as a real image's
    encode writes it) the reconstruction is real in exact arithmetic, no
    imaginary part is computed and the residue is 0.0; any other file, as
    one truncated at uneven ranks R[j] != R[l - j], has its residue
    measured.

    No complex (m, n, l) tensor, no whole plane and no whole right side:
    one loop over bands of about ``tensor._BAND`` entries of the rearranged
    real plane (whole blocks of output rows, or rows of one block) takes each
    band's real GEMM of :func:`_decode_terms`, from the terms of its rows
    of the B and C factors, checks it, rounds it in place by
    ``tensor_to_image``'s rule and un-rearranges it into its output rows,
    with the companion GEMM's maximum where an imaginary part is measured.
    The plane agrees with ``reconstruct(F).real`` to roundoff, so a sample
    may differ from the reference by one where that lies within roundoff of
    a k + 0.5 tie.

    Raises FormatError when the reconstruction is not finite (finite factors
    whose product overflows), and DimensionError unless l is 1 or 3.
    """
    m1, m2, n1, n2, l = F.dims
    if l not in (1, 3):
        raise DimensionError(f"expected 1 or 3 slices, got {l}")
    left, right = _decode_terms(F)
    out = np.empty((m1 * m2, n1 * n2, l), dtype=np.uint8)
    # Output rows per band: whole blocks of m2 rows, or rows of one block.
    # A band's right side has up to 2l rows where the plane has n1, so a
    # band is cut to fit the larger of the two in _BAND entries.
    rows = max(1, _BAND // (max(n1, 2 * l) * n2 * l))
    ka, kc = max(1, rows // m2), min(rows, m2)
    residue = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(0, m2, kc):
            Rb, Ib = right(c, min(c + kc, m2))
            for a in range(0, m1, ka):
                L = left(a, min(a + ka, m1)).T
                # np.dot: matmul skips BLAS for one term (a gray image's).
                x = np.dot(L, Rb.reshape(len(Rb), -1))
                if Ib is not None:
                    y = np.dot(L, Ib.reshape(len(Rb), -1))
                    # The band's values first: max keeps a NaN it meets first.
                    residue = max(y.max(), -y.min(), residue)
                if not (math.isfinite(residue) and np.isfinite(x).all()):
                    raise FormatError("the factors overflow: the reconstruction is not finite")
                p, q = len(L) // n1, Rb.shape[1]
                rows_out = out[a * m2 + c : a * m2 + c + (p - 1) * m2 + q]
                _round_samples(
                    x.reshape(p, n1, q, n2 * l).transpose(0, 2, 1, 3),
                    rows_out.reshape(p, q, n1, n2 * l),
                )
    return out, float(residue)


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
