"""Storage accounting, compression rates, and the STPZ binary container.

Storage counts are in stored scalars (complex entries count as one), matching
the abstract accounting of the decomposition methods; the container spends
16 bytes per complex scalar.  Compression rates are exact rationals.

Container layout ("STPZ" v1, little-endian, no padding):

    magic    4 bytes  b"STPZ"
    version  u8       1
    flags    u8       bit0 = originally-real input, other bits reserved 0
    reserved 2 bytes  0
    m1 m2 n1 n2 l     u32 each
    R        l x u32  per-slice retained rank, each in [1, min(m1, n1)]
    per slice i:      U_i (m1 x R_i complex), sigma_i (R_i f64),
                      C_i (m2 x n2 complex), V_i (n1 x R_i complex)

Complex scalars are (re, im) f64 pairs; matrices are column-major.  The
dims and ranks fix every field's shape, so they fix the file's exact length:
a file of any other length is a format error.  So is a header whose pixel
count m1*m2*n1*n2 exceeds MAX_PIXELS, 178,956,970 by default (Pillow's
DecompressionBombError threshold), which a library caller may raise.  Both
are checked before any payload byte is read.  A non-finite (NaN or Inf)
scalar is a format error at the offset of its field.
"""

from __future__ import annotations

import math
import struct
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .decomp import MatStpSvd, TensorStpSvd, _check_block_rank
from .errors import DimensionError, FormatError

__all__ = [
    "Method",
    "storage_count",
    "compression_rate",
    "serialize",
    "deserialize",
    "MAX_PIXELS",
]

MAGIC = b"STPZ"
VERSION = 1
FLAG_REAL_INPUT = 0x01
# The largest m1*m2*n1*n2 that deserialize accepts: 2 * Pillow's
# Image.MAX_IMAGE_PIXELS.
MAX_PIXELS = 178_956_970

# Magic, version, flags, reserved, and the dims m1 m2 n1 n2 l: 28 bytes.
_HEADER = struct.Struct("<4sBBH5I")
_COMPLEX, _REAL = np.dtype("<c16"), np.dtype("<f8")


class Method(str, Enum):
    RAW = "raw"
    FULL_TSVD = "full_tsvd"
    FULL_STPSVD = "full_stpsvd"
    TRUNC_TSVD = "trunc_tsvd"
    TRUNC_STPSVD = "trunc_stpsvd"


def _ranks(r, l: int, method: Method, rmax: int) -> list[int]:
    if r is None:
        raise DimensionError(f"method {method.value} requires a truncation rank")
    return _check_block_rank([r] * l if np.ndim(r) == 0 else r, l, rmax)


def storage_count(
    method: Method,
    m1: int,
    m2: int,
    n1: int,
    n2: int,
    l: int,
    r: int | Sequence[int] | None = None,
) -> int:
    """Number of stored scalars for the given method.

    ``r`` (an int, or one int per slice) is required for the truncated
    methods, each in [1, min(m1, n1)] for TRUNC_STPSVD and [1, min(m, n)]
    for TRUNC_TSVD.  m = m1*m2 and n = n1*n2 are the slice dimensions.
    """
    m, n = m1 * m2, n1 * n2
    if method is Method.RAW:
        return m * n * l
    if method is Method.FULL_TSVD:
        return (m + n + 1) * min(m, n) * l
    if method is Method.FULL_STPSVD:
        return ((m1 + n1 + 1) * min(m1, n1) + m2 * n2) * l
    if method is Method.TRUNC_TSVD:
        return sum((m + n + 1) * ri for ri in _ranks(r, l, method, min(m, n)))
    if method is Method.TRUNC_STPSVD:
        return sum((m1 + n1 + 1) * ri + m2 * n2 for ri in _ranks(r, l, method, min(m1, n1)))
    raise ValueError(f"unknown method {method!r}")


def compression_rate(
    method: Method,
    m1: int,
    m2: int,
    n1: int,
    n2: int,
    l: int,
    r: int | Sequence[int] | None = None,
) -> Fraction:
    """Stored-scalar count divided by the raw count, as an exact rational."""
    return Fraction(
        storage_count(method, m1, m2, n1, n2, l, r), m1 * m2 * n1 * n2 * l
    )


def _layout(dims: Sequence[int], R: Sequence[int]):
    """The payload's fields in file order, as (slice, name, shape, dtype):
    U (m1 x r), sigma (r), C (m2 x n2) and V (n1 x r) of each slice."""
    m1, m2, n1, n2, _ = dims
    for i, r in enumerate(R):
        yield i, "U", (m1, r), _COMPLEX
        yield i, "sigma", (r,), _REAL
        yield i, "C", (m2, n2), _COMPLEX
        yield i, "V", (n1, r), _COMPLEX


def serialize(F: TensorStpSvd) -> bytes:
    """Encode Fourier-domain factors into the STPZ v1 container."""
    R = F.block_rank
    flags = FLAG_REAL_INPUT if F.real_input else 0
    parts = [_HEADER.pack(MAGIC, VERSION, flags, 0, *F.dims), struct.pack(f"<{len(R)}I", *R)]
    for i, name, _, dtype in _layout(F.dims, R):
        parts.append(np.asarray(getattr(F.slices[i], name), dtype).tobytes("F"))
    return b"".join(parts)


def _header(data: bytes) -> tuple[int, list[int]]:
    """The flags and dims (m1, m2, n1, n2, l) of an STPZ v1 container, from
    its first 28 bytes, checked up to the pixel cap."""
    if data[:4] != MAGIC:
        raise FormatError("bad magic, not an STPZ container", 0)
    if len(data) < 28:
        raise FormatError("truncated container: expected header", 4)
    _, version, flags, reserved, *dims = _HEADER.unpack_from(data)
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}", 4)
    if flags & ~FLAG_REAL_INPUT:
        raise FormatError(f"unknown flag bits 0x{flags:02x}", 5)
    if reserved != 0:
        raise FormatError("reserved header bytes are nonzero", 6)
    if min(dims) < 1:
        raise FormatError(f"non-positive dimension in {tuple(dims)}", 8)
    pixels = math.prod(dims[:4])
    if pixels > MAX_PIXELS:
        raise FormatError(f"{pixels} pixels exceed the cap of {MAX_PIXELS} (codec.MAX_PIXELS)", 8)
    return flags, dims


def deserialize(data: bytes) -> TensorStpSvd:
    """Decode an STPZ v1 container, bytes or any bytes-like object; exact
    inverse of :func:`serialize`.  The header, the pixel cap and the file's
    exact length are checked before any payload byte is read, and each field
    is copied out of ``data``."""
    flags, dims = _header(data)
    m1, _, n1, _, l = dims
    at = 28 + 4 * l
    if len(data) < at:
        raise FormatError("truncated container: expected rank vector", 28)
    R = struct.unpack_from(f"<{l}I", data, 28)
    try:
        _check_block_rank(R, l, min(m1, n1))
    except DimensionError as exc:
        raise FormatError(str(exc), 28) from None
    size = at + sum(math.prod(shape) * dtype.itemsize for *_, shape, dtype in _layout(dims, R))
    if len(data) != size:
        raise FormatError(
            f"container is {len(data)} bytes, its header gives {size}", min(len(data), size)
        )
    fields = [{} for _ in R]
    for i, name, shape, dtype in _layout(dims, R):
        flat = np.frombuffer(data, dtype, math.prod(shape), at)
        if not np.isfinite(flat).all():
            raise FormatError(f"slice {i} {name} contains NaN or Inf", at)
        fields[i][name] = flat.astype(dtype.newbyteorder("=")).reshape(shape, order="F")
        at += flat.nbytes
    slices = [MatStpSvd(**f) for f in fields]
    return TensorStpSvd(slices=slices, real_input=bool(flags & FLAG_REAL_INPUT))
