"""Deterministic synthetic images with exact low-rank Kronecker structure.

The generated tensor has mode-3 DFT slices of the form B_i ⊗ C_i with
rank(B_i) equal to a requested value, scaled into 8-bit range and quantized.
A truncated semi-tensor decomposition at that block rank should therefore
reproduce the image up to quantization noise, which makes these images a
sharp end-to-end check of the compression pipeline.
"""

from __future__ import annotations

import numpy as np

from .decomp import _SIN_2PI_3, _check_block_rank
from .imaging import ImageBuffer, _round_samples
from .nkp import _split

__all__ = ["structured_test_image"]

# Image entries per channel that one band of the inverse butterfly writes
# (whole rows of B2, so at least m2 image rows), so that its temporaries
# stay in cache.  Measured on 2 vCPU (numpy 2.4), median of 5-9 calls:
# 2^14 took 9.1 ms at 512^2 (m2 = 8), 27.2 ms at 1024^2 and 118 ms at
# 2048^2 (m2 = 32), 2^13 and 2^15 within 21% of that, 2^12 up to 1.4x
# slower, and one band of the whole image 12, 40 and 222 ms.
_BAND = 1 << 14


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
    slice 1 = M2 = B2 ⊗ C2, so the image is real and only the half
    spectrum is built, and M2 only band by band: the length-3 inverse DFT
    is pocketfft's backward butterfly in real arithmetic, run over bands of
    rows that are rounded straight into the uint8 output.  The samples are
    bitwise those of
    ``tensor_to_image(idft3(np.stack([M1, M2, conj(M2)], axis=2)).real)``,
    with no complex (m, n, 3) tensor.
    """
    m1, n1 = _split(height, width, m2, n2)
    _check_block_rank([rank], 1, min(m1, n1))
    rng = np.random.default_rng(seed)

    # DC slice: dominant positive rank-1 component plus small extra terms so
    # every sample stays in a [50, 205] brightness band after scaling.
    pos_u = 1.0 + 0.2 * _smooth(rng, m1)
    pos_v = 1.0 + 0.2 * _smooth(rng, n1)
    B1 = np.outer(pos_u, pos_v) + 0.04 * _rank_k(rng, m1, n1, rank - 1, complex_=False)
    C1 = np.outer(1.0 + 0.2 * _smooth(rng, m2), 1.0 + 0.2 * _smooth(rng, n2))
    C1 += 0.02 * _rank_k(rng, m2, n2, min(rank, m2) - 1, False)
    M1 = np.kron(B1, C1)
    if M1.min() <= 0.0:
        raise AssertionError("DC slice lost positivity; adjust perturbation scale")
    M1 *= 3.0 * 205.0 / M1.max()

    # Oscillating slice, amplitude capped to stay well inside 8-bit range.
    # M2 = B2 ⊗ C2 is formed band by band from whole rows of B2: one pass
    # for its largest modulus, one for the output.
    B2 = _rank_k(rng, m1, n1, rank, complex_=True)
    C2 = _rank_k(rng, m2, n2, min(rank, m2), complex_=True)
    kb = max(1, _BAND // (width * m2))
    bands = [slice(i, i + kb) for i in range(0, m1, kb)]
    scale = 58.0 / max(np.abs(np.kron(B2[i], C2)).max() for i in bands)

    # With a, b = Re, Im of M2, the butterfly's sums are t1 = 2a and
    # t2 = 2bi, and the real parts of its outputs are y0 = (M1 + 2a) / 3 and
    # y1, y2 = (ca +- cb) / 3, with ca = M1 + 2a (-1/2), cb = -2b sin(2 pi/3).
    out = np.empty((height, width, 3), dtype=np.uint8)
    for i in bands:
        band = slice(i.start * m2, i.stop * m2)
        M2 = np.kron(B2[i], C2)
        M2 *= scale
        x0, a, b = M1[band], M2.real, M2.imag
        t1 = a + a
        y = x0 + t1
        y *= 1 / 3
        _round_samples(y, out[band, :, 0])
        t1 *= -0.5
        ca = np.add(x0, t1, out=t1)
        cb = b + b
        np.negative(cb, out=cb)
        cb *= _SIN_2PI_3
        for k, combine in ((1, np.add), (2, np.subtract)):
            combine(ca, cb, out=y)
            y *= 1 / 3
            _round_samples(y, out[band, :, k])
    return ImageBuffer(out)
