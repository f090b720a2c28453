"""Raster image I/O (binary PPM/PGM), tensor conversion, and quality metrics.

Images are 8-bit with samples stored as a uint8 array of shape
(height, width, channels), channels interleaved row-major; maxval is fixed
at 255.  PSNR uses the 8-bit peak; PSNR and relative error sum squared
samples exactly, in integers.  SSIM uses the standard 11x11 Gaussian window
(sigma 1.5, unit sum), stabilizers C1 = (0.01*255)^2 and C2 = (0.03*255)^2,
valid-region cropping at the borders, and an unweighted mean over channels.
A tensor becomes an image by rounding its real part; the imaginary part is
not examined here (``stpz decompress`` judges it from the decoder's residue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError, NumericError
from .tensor import as_array3

__all__ = [
    "ImageBuffer",
    "load_ppm",
    "save_ppm",
    "image_to_tensor",
    "tensor_to_image",
    "psnr",
    "ssim",
    "relative_error",
]

_WINDOW = 11
_SIGMA = 1.5
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2
# SSIM output tile: rows per row-filter GEMM, columns per column-filter GEMM.
_ROW_TILE = 32
_COL_TILE = 64
_WHITESPACE = b" \t\r\n\x0b\x0c"


@dataclass(eq=False)
class ImageBuffer:
    """8-bit raster image; ``samples`` is uint8 (height, width, channels).

    A uint8 array is kept as it is, and an integer or bool one is cast when
    all its values lie in 0..255; any other dtype or value raises
    DimensionError rather than wrapping.
    """

    samples: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.samples)
        if x.dtype != np.uint8:
            if x.dtype.kind not in "biu":
                raise DimensionError(f"samples must be integers in 0..255, got dtype {x.dtype}")
            if x.size and (x.min() < 0 or x.max() > 255):
                raise DimensionError(
                    f"samples must lie in 0..255, got values in [{x.min()}, {x.max()}]"
                )
            x = x.astype(np.uint8)
        self.samples = x
        if self.samples.ndim != 3 or self.samples.shape[2] not in (1, 3):
            raise DimensionError(
                f"samples must be (height, width, 1|3), got {self.samples.shape}"
            )

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def channels(self) -> int:
        return self.samples.shape[2]


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise FormatError("unexpected end of image header", start)
    return data[start:pos], pos


def load_ppm(data: bytes) -> ImageBuffer:
    """Parse a binary PPM (P6) or PGM (P5) with maxval 255."""
    data = bytes(data)
    magic, pos = _next_token(data, 0)
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise FormatError(f"bad magic {magic!r}, expected P5 or P6", 0)
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _next_token(data, pos)
        # ASCII decimal digits only: int() would also take a sign or "_".
        if not tok.isdigit():
            raise FormatError(f"non-numeric {name} field {tok!r}", pos - len(tok))
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"non-positive image size {width}x{height}", 0)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, only 255", 0)
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise FormatError("missing whitespace after maxval", pos)
    pos += 1
    need = width * height * channels
    if len(data) - pos < need:
        raise FormatError(
            f"short payload: need {need} sample bytes, have {len(data) - pos}", pos
        )
    samples = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    return ImageBuffer(samples.reshape(height, width, channels).copy())


def save_ppm(img: ImageBuffer) -> bytes:
    """Encode with the canonical header 'P6\\n<w> <h>\\n255\\n' (P5 for gray)."""
    magic = "P6" if img.channels == 3 else "P5"
    header = f"{magic}\n{img.width} {img.height}\n255\n".encode("ascii")
    # One copy of the samples: join reads the array's buffer directly.
    return b"".join((header, np.ascontiguousarray(img.samples).data))


def image_to_tensor(img: ImageBuffer) -> np.ndarray:
    """Image as a height x width x channels complex tensor of values 0..255."""
    return img.samples.astype(np.complex128)


def _round_samples(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The 8-bit rounding floor(clip(x, 0, 255) + 0.5), in place on float64 x:
    x + 0.5 clamped to [0.5, 255.5] clamps x to [0, 255]; the cast floors.
    The samples go to a new uint8 array, or into ``out`` (of x's shape)."""
    x += 0.5
    np.clip(x, 0.5, 255.5, out=x)
    if out is None:
        return x.astype(np.uint8)
    np.copyto(out, x, casting="unsafe")
    return out


def tensor_to_image(A) -> ImageBuffer:
    """Inverse of :func:`image_to_tensor` for tensors with 1 or 3 slices.

    A float64 copy of the real part goes through :func:`_round_samples`, the
    rounding that :func:`stpz.decomp.decode_samples` also uses; the
    imaginary part is dropped unread.  A real tensor is taken as it is, with
    no complex copy, and ``A`` is never modified.  Infinities clamp to 0 and
    255; a NaN sample raises NumericError.
    """
    x = np.array(as_array3(A).real, dtype=np.float64)
    if np.isnan(x).any():
        raise NumericError("cannot convert a NaN sample to 8 bits")
    return ImageBuffer(_round_samples(x))


def _check_same_shape(ref: ImageBuffer, test: ImageBuffer) -> None:
    if ref.samples.shape != test.samples.shape:
        raise DimensionError(
            f"image shapes differ: {ref.samples.shape} vs {test.samples.shape}"
        )


def _sum_squares(samples: np.ndarray) -> int:
    """Exact sum of squares of uint8 samples; 255^2 fits in a uint16."""
    sq = samples.astype(np.uint16)
    sq *= sq
    return int(sq.sum(dtype=np.int64))


def _diff_sum_squares(ref: ImageBuffer, test: ImageBuffer) -> int:
    """Exact ||ref - test||_F^2 over the samples."""
    d = np.maximum(ref.samples, test.samples)
    d -= np.minimum(ref.samples, test.samples)
    return _sum_squares(d)


def psnr(ref: ImageBuffer, test: ImageBuffer) -> float:
    """10*log10(255^2 / MSE) over all samples; +inf for identical images."""
    _check_same_shape(ref, test)
    sq = _diff_sum_squares(ref, test)
    if sq == 0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / (sq / ref.samples.size))


def _gaussian_window() -> np.ndarray:
    x = np.arange(_WINDOW) - (_WINDOW - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * _SIGMA * _SIGMA))
    return g / g.sum()


def _band(rows: int) -> np.ndarray:
    """rows x (rows + 10) band whose row i holds the window in columns i..i+10.

    Its leading b x (b + 10) block is the band of b rows.
    """
    band = np.zeros((rows, rows + _WINDOW - 1))
    i = np.arange(rows)
    for k, gk in enumerate(_gaussian_window()):
        band[i, i + k] = gk
    return band


def ssim(ref: ImageBuffer, test: ImageBuffer) -> float:
    """Mean local structural similarity, averaged over channels.

    One pass over tiles of output rows.  Each tile's four maps x, y,
    x^2 + y^2 and xy (all channels, integers exact in float64) are filtered
    by the separable window as two banded GEMMs, and the tile's SSIM map is
    summed per channel at once; no full-size map is built.  var_x + var_y
    is taken as W(x^2 + y^2) - (mu_x^2 + mu_y^2): for x = y that is exactly
    2 (W(xy) - mu_x mu_y), so ssim(a, a) is exactly 1.
    """
    _check_same_shape(ref, test)
    h, w, c = ref.samples.shape
    if h < _WINDOW or w < _WINDOW:
        raise DimensionError(
            f"image {w}x{h} smaller than the {_WINDOW}x{_WINDOW} window"
        )
    oh, ow = h - _WINDOW + 1, w - _WINDOW + 1
    band = _band(max(_ROW_TILE, _COL_TILE))
    span = _ROW_TILE + _WINDOW - 1
    xi = np.empty((span, c, w), dtype=np.int32)
    yi = np.empty((span, c, w), dtype=np.int32)
    maps = np.empty((span, 4, c, w))
    filtered = np.empty((_ROW_TILE * 4 * c, ow))
    sums = np.zeros(c)
    for i0 in range(0, oh, _ROW_TILE):
        b = min(_ROW_TILE, oh - i0)
        rows = b + _WINDOW - 1
        x, y, m = xi[:rows], yi[:rows], maps[:rows]
        x[...] = ref.samples[i0 : i0 + rows].transpose(0, 2, 1)
        y[...] = test.samples[i0 : i0 + rows].transpose(0, 2, 1)
        m[:, 0] = x
        m[:, 1] = y
        np.multiply(x, y, out=m[:, 3])
        x *= x
        y *= y
        x += y
        m[:, 2] = x
        t = (band[:b, :rows] @ m.reshape(rows, -1)).reshape(b * 4 * c, w)
        f = filtered[: b * 4 * c]
        for j0 in range(0, ow, _COL_TILE):
            bc = min(_COL_TILE, ow - j0)
            np.matmul(
                t[:, j0 : j0 + bc + _WINDOW - 1],
                band[:bc, : bc + _WINDOW - 1].T,
                out=f[:, j0 : j0 + bc],
            )
        f = f.reshape(b, 4, c, ow)
        mu_x, mu_y, sq, xy = f[:, 0], f[:, 1], f[:, 2], f[:, 3]
        # In place: num = (2 mu_xy + C1)(2 (xy - mu_xy) + C2) and
        # den = (mu_sq + C1)(sq - mu_sq + C2), mu_sq = mu_x^2 + mu_y^2.
        mu_xy = mu_x * mu_y
        mu_sq = mu_x * mu_x
        mu_sq += mu_y * mu_y
        num = xy - mu_xy
        num *= 2.0
        num += _C2
        mu_xy *= 2.0
        mu_xy += _C1
        num *= mu_xy
        den = sq - mu_sq
        den += _C2
        mu_sq += _C1
        den *= mu_sq
        num /= den
        sums += num.sum(axis=(0, 2))
    return float(np.mean(sums / (oh * ow)))


def relative_error(ref: ImageBuffer, test: ImageBuffer) -> float:
    """||ref - test||_F / ||ref||_F over the raw samples."""
    _check_same_shape(ref, test)
    diff = _diff_sum_squares(ref, test)
    denom = _sum_squares(ref.samples)
    if denom == 0:
        return 0.0 if diff == 0 else math.inf
    return math.sqrt(diff) / math.sqrt(denom)
