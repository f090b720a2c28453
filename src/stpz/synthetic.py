"""Deterministic synthetic images with exact low-rank Kronecker structure.

The generated tensor has mode-3 DFT slices of the form B_i ⊗ C_i with
rank(B_i) equal to a requested value, scaled into 8-bit range.  The image is
built as such a factorization, and its samples are those that
:func:`~stpz.decomp.decode_samples`, the one STP decoder, takes from it.  A
truncated semi-tensor decomposition at that block rank should therefore
reproduce the image up to quantization noise, which makes these images a
sharp end-to-end check of the compression pipeline.
"""

from __future__ import annotations

import numpy as np

from .decomp import MatStpSvd, TensorStpSvd, _check_block_rank, decode_samples
from .imaging import ImageBuffer
from .nkp import _split
from .svd import svd

__all__ = ["structured_test_image"]


def _smooth(rng: np.random.Generator, n: int) -> np.ndarray:
    # Low-frequency profile, normalized to unit max modulus.
    t = np.linspace(0.0, 1.0, n)
    v = np.zeros(n)
    for f in (1, 2, 3):
        v += rng.normal() * np.cos(2.0 * np.pi * f * t)
        v += rng.normal() * np.sin(2.0 * np.pi * f * t)
    return v / max(np.abs(v).max(), 1e-12)


def _rank_k(rng: np.random.Generator, rows: int, cols: int, k: int, complex_: bool):
    out = np.zeros((rows, cols), dtype=np.complex128 if complex_ else np.float64)
    for _ in range(k):
        u = _smooth(rng, rows)
        v = _smooth(rng, cols)
        if complex_:
            u = u + 1j * _smooth(rng, rows)
            v = v + 1j * _smooth(rng, cols)
        out += np.outer(u, v)
    return out


def structured_test_image(
    height: int = 96,
    width: int = 96,
    m2: int = 4,
    n2: int = 4,
    rank: int = 4,
    seed: int = 2024,
) -> ImageBuffer:
    """RGB image whose DFT slices are exactly B_i ⊗ C_i with rank(B_i) = rank.

    Deterministic for a fixed seed.  All samples land strictly inside
    [0, 255] before quantization.

    Slice 0 is a real M1 = B1 ⊗ C1 and slice 2 is conj(slice 1), with
    slice 1 = M2 = B2 ⊗ C2, so the image is real.  The samples are
    ``decode_samples`` of the rank-``rank`` paired factorization of those
    slices (each B by its SVD, slice 2's factors slice 1's conjugated), so
    no Kronecker product or complex tensor is formed.  They equal those of
    ``tensor_to_image(idft3(np.stack([M1, M2, conj(M2)], axis=2)).real)``
    except where that lies within roundoff of a k + 0.5 tie; the tests
    check bitwise equality on 102 images.
    """
    m1, n1 = _split(height, width, m2, n2)
    _check_block_rank([rank], 1, min(m1, n1))
    rng = np.random.default_rng(seed)

    # DC slice: dominant positive rank-1 component plus small extra terms so
    # every sample stays in a [50, 205] brightness band after scaling.  For
    # positive factors max(B1 ⊗ C1) is max B1 * max C1, bit for bit, since
    # rounding is monotone, so the scale goes into C1.
    pos_u = 1.0 + 0.2 * _smooth(rng, m1)
    pos_v = 1.0 + 0.2 * _smooth(rng, n1)
    B1 = np.outer(pos_u, pos_v) + 0.04 * _rank_k(rng, m1, n1, rank - 1, complex_=False)
    C1 = np.outer(1.0 + 0.2 * _smooth(rng, m2), 1.0 + 0.2 * _smooth(rng, n2))
    C1 += 0.02 * _rank_k(rng, m2, n2, min(rank, m2) - 1, False)
    if min(B1.min(), C1.min()) <= 0.0:
        raise AssertionError("DC slice lost positivity; adjust perturbation scale")
    C1 *= 3.0 * 205.0 / (B1.max() * C1.max())

    # Oscillating slice, amplitude capped to stay well inside 8-bit range:
    # max |B2 ⊗ C2| is max |B2| * max |C2| in exact arithmetic.
    B2 = _rank_k(rng, m1, n1, rank, complex_=True)
    C2 = _rank_k(rng, m2, n2, min(rank, m2), complex_=True)
    C2 *= 58.0 / (np.abs(B2).max() * np.abs(C2).max())

    def factors(B: np.ndarray, C: np.ndarray) -> MatStpSvd:
        f = svd(B)
        return MatStpSvd(U=f.U[:, :rank], sigma=f.sigma[:rank], C=C, V=f.V[:, :rank])

    S1 = factors(B2, C2)
    S2 = MatStpSvd(U=S1.U.conj(), sigma=S1.sigma, C=S1.C.conj(), V=S1.V.conj())
    F = TensorStpSvd(slices=(factors(B1, C1), S1, S2), real_input=True)
    return ImageBuffer(decode_samples(F)[0])
