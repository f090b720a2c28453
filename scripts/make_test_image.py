#!/usr/bin/env python3
"""Generate a synthetic PPM test image with exact per-DFT-slice Kronecker
structure (see stpz.synthetic)."""

import argparse

from stpz.imaging import save_ppm
from stpz.synthetic import structured_test_image


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output", default="structured.ppm")
    ap.add_argument("--height", type=int, default=96)
    ap.add_argument("--width", type=int, default=96)
    ap.add_argument("--m2", type=int, default=4)
    ap.add_argument("--n2", type=int, default=4)
    ap.add_argument("--rank", type=int, default=4)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args(argv)

    img = structured_test_image(
        height=args.height, width=args.width, m2=args.m2, n2=args.n2,
        rank=args.rank, seed=args.seed,
    )
    with open(args.output, "wb") as fh:
        fh.write(save_ppm(img))
    print(f"wrote {args.output} ({args.width}x{args.height}, rank {args.rank})")


if __name__ == "__main__":
    main()
