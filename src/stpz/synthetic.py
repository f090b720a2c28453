"""Deterministic synthetic images with exact low-rank Kronecker structure.

The generated tensor has mode-3 DFT slices of the form B_i ⊗ C_i with
rank(B_i) equal to a requested value, scaled into 8-bit range and quantized.
A truncated semi-tensor decomposition at that block rank should therefore
reproduce the image up to quantization noise, which makes these images a
sharp end-to-end check of the compression pipeline.
"""

from __future__ import annotations

import numpy as np

from .decomp import _check_block_rank
from .imaging import ImageBuffer, tensor_to_image
from .nkp import _split
from .tensor import idft3

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
    out = np.zeros((rows, cols), dtype=np.complex128)
    for _ in range(k):
        u = _smooth(rng, rows).astype(np.complex128)
        v = _smooth(rng, cols).astype(np.complex128)
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
    """
    m1, n1 = _split(height, width, m2, n2)
    _check_block_rank([rank], 1, min(m1, n1))
    rng = np.random.default_rng(seed)

    # DC slice: dominant positive rank-1 component plus small extra terms so
    # every sample stays in a [50, 205] brightness band after scaling.
    pos_u = 1.0 + 0.2 * _smooth(rng, m1)
    pos_v = 1.0 + 0.2 * _smooth(rng, n1)
    B1 = np.outer(pos_u, pos_v).astype(np.complex128)
    B1 += 0.04 * _rank_k(rng, m1, n1, rank - 1, complex_=False)
    C1 = np.outer(1.0 + 0.2 * _smooth(rng, m2), 1.0 + 0.2 * _smooth(rng, n2))
    C1 = C1.astype(np.complex128) + 0.02 * _rank_k(rng, m2, n2, min(rank, m2) - 1, False)
    M1 = np.kron(B1, C1)
    if M1.real.min() <= 0.0:
        raise AssertionError("DC slice lost positivity; adjust perturbation scale")
    scale = 3.0 * 205.0 / M1.real.max()
    B1 *= scale
    M1 *= scale

    # Oscillating slices: slice 3 is the conjugate of slice 2, so the inverse
    # DFT is real.  Amplitude capped to stay well inside 8-bit range.
    B2 = _rank_k(rng, m1, n1, rank, complex_=True)
    C2 = _rank_k(rng, m2, n2, min(rank, m2), complex_=True)
    M2 = np.kron(B2, C2)
    amp = 58.0 / np.abs(M2).max()
    B2 *= amp
    M2 *= amp

    Th = np.stack([M1, M2, np.conj(M2)], axis=2)
    T = idft3(Th)
    if np.max(np.abs(T.imag)) > 1e-9 * max(np.abs(T.real).max(), 1.0):
        raise AssertionError("generator produced a non-real tensor")
    return tensor_to_image(T.real)
