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

Complex scalars are (re, im) f64 pairs; matrices are column-major.  Trailing
bytes and non-finite (NaN or Inf) scalars are format errors.
"""

from __future__ import annotations

import struct
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .decomp import MatStpSvd, TensorStpSvd, _check_block_rank, _check_dims
from .errors import DimensionError, FormatError

__all__ = [
    "Method",
    "storage_count",
    "compression_rate",
    "serialize",
    "deserialize",
]

MAGIC = b"STPZ"
VERSION = 1
FLAG_REAL_INPUT = 0x01


class Method(str, Enum):
    RAW = "raw"
    FULL_TSVD = "full_tsvd"
    FULL_STPSVD = "full_stpsvd"
    TRUNC_TSVD = "trunc_tsvd"
    TRUNC_STPSVD = "trunc_stpsvd"


def _ranks(r, l: int, method: Method, rmax: int) -> list[int]:
    if r is None:
        raise DimensionError(f"method {method.value} requires a truncation rank")
    return _check_block_rank([r] * l if isinstance(r, (int, np.integer)) else r, l, rmax)


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


def _mat_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a.ravel(order="F"), dtype="<c16").tobytes()


def serialize(F: TensorStpSvd) -> bytes:
    """Encode Fourier-domain factors into the STPZ v1 container."""
    m1, m2, n1, n2, l = F.dims
    flags = FLAG_REAL_INPUT if F.real_input else 0
    parts = [
        MAGIC,
        struct.pack("<BBH", VERSION, flags, 0),
        struct.pack("<5I", m1, m2, n1, n2, l),
        struct.pack(f"<{l}I", *F.block_rank),
    ]
    for s in F.slices:
        parts.append(_mat_bytes(s.U))
        parts.append(np.ascontiguousarray(s.sigma, dtype="<f8").tobytes())
        parts.append(_mat_bytes(s.C))
        parts.append(_mat_bytes(s.V))
    return b"".join(parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, size: int, what: str) -> bytes:
        if self.pos + size > len(self.data):
            raise FormatError(f"truncated container: expected {what}", self.pos)
        out = self.data[self.pos : self.pos + size]
        self.pos += size
        return out

    def array(self, count: int, dtype: str, what: str) -> np.ndarray:
        """The next ``count`` scalars of ``dtype``; NaN or Inf is a format
        error at the field's offset."""
        at, kind = self.pos, np.dtype(dtype)
        raw = self.take(kind.itemsize * count, what)
        flat = np.frombuffer(raw, dtype=kind).astype(kind.newbyteorder("="))
        if not np.all(np.isfinite(flat)):
            raise FormatError(f"{what} contains NaN or Inf", at)
        return flat

    def matrix(self, rows: int, cols: int, what: str) -> np.ndarray:
        return self.array(rows * cols, "<c16", what).reshape((rows, cols), order="F")


def _check_header(at: int, check, *args) -> None:
    """``check(*args)``, its DimensionError raised as a FormatError at ``at``."""
    try:
        check(*args)
    except DimensionError as exc:
        raise FormatError(str(exc), at) from None


def deserialize(data: bytes) -> TensorStpSvd:
    """Decode an STPZ v1 container; exact inverse of :func:`serialize`.  Its
    dims and ranks pass the factorization constructors' checks before any
    payload is read."""
    rd = _Reader(bytes(data))
    if rd.take(4, "magic") != MAGIC:
        raise FormatError("bad magic, not an STPZ container", 0)
    version, flags, reserved = struct.unpack("<BBH", rd.take(4, "header"))
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}", 4)
    if flags & ~FLAG_REAL_INPUT:
        raise FormatError(f"unknown flag bits 0x{flags:02x}", 5)
    if reserved != 0:
        raise FormatError("reserved header bytes are nonzero", 6)
    dims = struct.unpack("<5I", rd.take(20, "dimensions"))
    _check_header(8, _check_dims, dims)
    m1, m2, n1, n2, l = dims
    R = struct.unpack(f"<{l}I", rd.take(4 * l, "rank vector"))
    _check_header(28, _check_block_rank, R, l, min(m1, n1))
    slices = []
    for i, r in enumerate(R):
        U = rd.matrix(m1, r, f"slice {i} left factor")
        sigma = rd.array(r, "<f8", f"slice {i} singular values")
        C = rd.matrix(m2, n2, f"slice {i} Kronecker factor")
        V = rd.matrix(n1, r, f"slice {i} right factor")
        slices.append(MatStpSvd(U=U, sigma=sigma, C=C, V=V))
    if rd.pos != len(rd.data):
        raise FormatError(
            f"{len(rd.data) - rd.pos} trailing bytes after factor payload", rd.pos
        )
    return TensorStpSvd(slices=slices, real_input=bool(flags & FLAG_REAL_INPUT))
