"""Command-line interface: compress, decompress, metrics, bench, info.

``compress`` and ``bench`` need m2 to divide the image height and n2 the
width, and a ``--rank`` of 'full', one integer, or one per Fourier slice,
each in [1, min(m1, n1)] ([1, min(height, width)] for ``bench --method
tsvd``).  Keep r2 == r3 for an RGB image: its second and third Fourier
slices are a conjugate pair, and uneven ranks leave an imaginary part that
``decompress`` drops with a warning.

JSON results go to stdout, one strict (RFC 8259) document per command, in
which a non-finite number prints as a string: "inf" (as the PSNR of two
equal images, or the relative error against an all-black reference),
"-inf" or "nan".  Diagnostics go to stderr.  Exit codes: 0 success,
2 dimension/validation error, 3 I/O error, 4 malformed file or numerical
failure (including a container whose reconstruction overflows), 5 out of
memory; each prints one ``error:`` line on stderr.  Any other exception is a
bug and exits 1 with a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from .codec import Method, deserialize, serialize, storage_count
from .decomp import IMAG_TOL, decode_samples, reconstruct, t_svd_trunc, tensor_stp_svd_trunc
from .errors import DimensionError, FormatError, NumericError
from .nkp import _split
# image_to_tensor is no longer called here: the decompositions take the
# uint8 samples.  perfbench's tracer still wraps it as cli.image_to_tensor.
from .imaging import (  # noqa: F401
    ImageBuffer,
    image_to_tensor,
    load_ppm,
    psnr,
    relative_error,
    save_ppm,
    ssim,
    tensor_to_image,
)

__all__ = ["BenchReport", "main", "run_method"]


@dataclass
class BenchReport:
    """One benchmark row: method, timing, quality metrics, and storage."""

    method: str
    m2: int
    n2: int
    R: list[int]
    wall_time_seconds: float
    related_error: float
    psnr_db: float
    ssim: float
    storage_count: int
    cr: Fraction

    def to_json(self) -> dict:
        return _finite({**asdict(self), "cr": _cr_str(self.cr)})


def _threads(slices: int) -> int:
    # Every Fourier slice is factored on the calling thread.  The only caller
    # is perfbench/tests, which checks pooled spans when this exceeds 1.
    return 1


def _parse_rank(spec: str, slices: int, rmax: int) -> list[int]:
    # The decomposition checks the list's length and range.
    if spec == "full":
        return [rmax] * slices
    try:
        values = [int(tok) for tok in spec.split(",")]
    except ValueError:
        raise DimensionError(
            f"--rank must be 'full', an integer, or a comma list, got {spec!r}"
        )
    return values * slices if len(values) == 1 else values


def _emit(obj) -> None:
    # allow_nan=False: a non-finite float that reaches json is an error, not
    # an Infinity or NaN token, which RFC 8259 does not allow.
    print(json.dumps(_finite(obj), allow_nan=False))


def _finite(fields: dict) -> dict:
    # The one JSON rule for a non-finite float field: its str, "inf", "-inf"
    # or "nan".  No nested field is a float.
    return {
        k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in fields.items()
    }


def _cr_str(cr: Fraction) -> str:
    return str(float(cr))


def _stored(F) -> dict:
    # The scalar count and rate of what a container stores, read from its
    # factors, so that compress and info report the same for one file.
    count = storage_count(Method.TRUNC_STPSVD, *F.dims, F.block_rank)
    return {"storage_count": count, "cr": _cr_str(Fraction(count, math.prod(F.dims)))}


def cmd_compress(args) -> int:
    img = load_ppm(Path(args.input).read_bytes())
    h, w, c = img.samples.shape
    m1, n1 = _split(h, w, args.m2, args.n2)
    R = _parse_rank(args.rank, c, min(m1, n1))
    t0 = time.perf_counter()
    F = tensor_stp_svd_trunc(img.samples, args.m2, args.n2, R)
    elapsed = time.perf_counter() - t0
    Path(args.output).write_bytes(serialize(F))
    _emit({**_stored(F), "wall_time_seconds": elapsed})
    return 0


def cmd_decompress(args) -> int:
    F = deserialize(Path(args.input).read_bytes())
    l = F.dims[4]
    if l not in (1, 3):
        # 24 is the byte offset of the container's l field.
        raise FormatError(f"container has {l} slices; an image needs 1 or 3", 24)
    samples, residue = decode_samples(F)
    warn = residue > IMAG_TOL
    if warn:
        print("warning: reconstruction had non-negligible imaginary part", file=sys.stderr)
    Path(args.output).write_bytes(save_ppm(ImageBuffer(samples)))
    _emit({"imag_residue": residue, "imag_warning": warn})
    return 0


def cmd_metrics(args) -> int:
    ref = load_ppm(Path(args.ref).read_bytes())
    test = load_ppm(Path(args.test).read_bytes())
    _emit(
        {
            "psnr": psnr(ref, test),
            "ssim": ssim(ref, test),
            "related_error": relative_error(ref, test),
        }
    )
    return 0


def run_method(img: ImageBuffer, method: str, m2: int, n2: int, R: list[int]) -> BenchReport:
    """Decompose ``img`` with one truncated method ("stpsvd" or "tsvd") at
    per-slice rank R, decode it to uint8, and score that against ``img``.

    STP decodes by :func:`decode_samples`, as ``stpz decompress`` does; T-SVD
    by ``reconstruct`` and ``tensor_to_image``.  The wall time covers both
    steps, not scoring.  Any other method raises ValueError.
    """
    if method not in ("stpsvd", "tsvd"):
        raise ValueError(f"method must be 'stpsvd' or 'tsvd', got {method!r}")
    h, w, c = img.samples.shape
    m1, n1 = _split(h, w, m2, n2)
    t0 = time.perf_counter()
    if method == "stpsvd":
        F = tensor_stp_svd_trunc(img.samples, m2, n2, R)
        test, kind = ImageBuffer(decode_samples(F)[0]), Method.TRUNC_STPSVD
    else:
        test = tensor_to_image(reconstruct(t_svd_trunc(img.samples, R)))
        kind = Method.TRUNC_TSVD
    elapsed = time.perf_counter() - t0
    count = storage_count(kind, m1, m2, n1, n2, c, R)
    return BenchReport(
        method=method,
        m2=m2,
        n2=n2,
        R=R,
        wall_time_seconds=elapsed,
        related_error=relative_error(img, test),
        psnr_db=psnr(img, test),
        ssim=ssim(img, test),
        storage_count=count,
        cr=Fraction(count, h * w * c),
    )


def cmd_bench(args) -> int:
    img = load_ppm(Path(args.input).read_bytes())
    h, w, c = img.samples.shape
    m1, n1 = _split(h, w, args.m2, args.n2)
    rmax = min(m1, n1) if args.method == "stpsvd" else min(h, w)
    R = _parse_rank(args.rank, c, rmax)
    _emit(run_method(img, args.method, args.m2, args.n2, R).to_json())
    return 0


def cmd_info(args) -> int:
    F = deserialize(Path(args.input).read_bytes())
    m1, m2, n1, n2, l = F.dims
    _emit(
        {
            "m1": m1,
            "m2": m2,
            "n1": n1,
            "n2": n2,
            "l": l,
            "R": F.block_rank,
            "flags": {"real_input": F.real_input},
            **_stored(F),
        }
    )
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once.  It binds no handler: main looks up cmd_<command> on every
    # call, so a handler wrapped or patched later is the one that runs.
    parser = argparse.ArgumentParser(
        prog="stpz",
        description="Lossy third-order tensor compression via semi-tensor-product decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a PPM/PGM image to an STPZ container")
    p.add_argument("--input", required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--rank", required=True, help="'full', an integer, or r1,r2,...")
    p.add_argument("--output", required=True)

    p = sub.add_parser("decompress", help="reconstruct a PPM/PGM image from a container")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("metrics", help="PSNR / SSIM / relative error of two images")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)

    p = sub.add_parser("bench", help="time one method and report quality metrics")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("stpsvd", "tsvd"), required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--rank", required=True)

    p = sub.add_parser("info", help="dump a container header")
    p.add_argument("--input", required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (FormatError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
