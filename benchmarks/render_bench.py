#!/usr/bin/env python3
"""Benchmark the escape-time kernel on one slice.

Usage: python3 benchmarks/render_bench.py [--size 256] [--max-iter 50]

Prints the best wall time of the repeats and the pixel-iterations per
second: an escaped pixel counts its escape step, a bounded one max_iter.
"""

import argparse
import time

import numpy as np

from ocpoly.algebra import AlgebraParams, Octonion
from ocpoly.opoly import OPolynomial
from ocpoly.render import SliceSpec, escape_steps
from ocpoly.scalars import REAL


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=256)
    ap.add_argument("--max-iter", type=int, default=50)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    params = AlgebraParams.octonions(REAL)
    one = Octonion.one(params)
    i = Octonion.basis(params, 1)
    j = Octonion.basis(params, 2)
    f = OPolynomial.make(params, [i * (-0.5) - one * 0.25, i, one])
    spec = SliceSpec(base=j * 0.1, dir_u=one, dir_v=i,
                     width=args.size, height=args.size,
                     scale=4 / args.size, max_iter=args.max_iter,
                     escape_radius=4.0)

    escape_steps(f, spec)  # warm-up
    times = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        steps = escape_steps(f, spec)
        times.append(time.perf_counter() - t0)
    best = min(times)
    iters = int(np.where(steps > 0, steps, args.max_iter).sum())
    print(f"best of {args.repeats}: {best * 1e3:9.2f} ms, "
          f"{iters / best:.3g} pixel-iterations/s "
          f"({args.size}x{args.size}, max_iter={args.max_iter})")


if __name__ == "__main__":
    main()
