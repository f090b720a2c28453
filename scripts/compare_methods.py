#!/usr/bin/env python3
"""Compare truncated STP-SVD against truncated T-SVD on an image.

Runs both decompositions over a list of ranks and prints one row per run
with timing, relative error, PSNR, SSIM, and the compression rate.  Without
--input, a synthetic structured image is generated on the fly.
"""

import argparse

from stpz.cli import run_method
from stpz.imaging import load_ppm
from stpz.synthetic import structured_test_image


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", help="PPM/PGM image (default: synthetic 96x96x3)")
    ap.add_argument("--m2", type=int, default=4)
    ap.add_argument("--n2", type=int, default=4)
    ap.add_argument("--ranks", default="2,4,8")
    args = ap.parse_args(argv)

    if args.input:
        with open(args.input, "rb") as fh:
            img = load_ppm(fh.read())
    else:
        img = structured_test_image(m2=args.m2, n2=args.n2)
    ranks = [int(r) for r in args.ranks.split(",")]
    # One untimed run per method, so the first row does not carry the
    # process's lazy BLAS set-up.
    for method in ("stpsvd", "tsvd"):
        run_method(img, method, args.m2, args.n2, [ranks[0]] * img.channels)

    header = f"{'method':8} {'r':>4} {'time_s':>9} {'rel_err':>10} {'psnr_db':>9} {'ssim':>7} {'count':>9} {'cr':>9}"
    print(header)
    print("-" * len(header))
    for r in ranks:
        for method in ("stpsvd", "tsvd"):
            rep = run_method(img, method, args.m2, args.n2, [r] * img.channels)
            print(
                f"{rep.method:8} {r:>4d} {rep.wall_time_seconds:>9.4f} "
                f"{rep.related_error:>10.4g} {rep.psnr_db:>9.3f} {rep.ssim:>7.4f} "
                f"{rep.storage_count:>9d} {float(rep.cr):>9.5f}"
            )


if __name__ == "__main__":
    main()
