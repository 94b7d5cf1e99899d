#!/usr/bin/env python3
"""Benchmark the escape-time kernel on one slice.

Usage: python3 benchmarks/render_bench.py [--size 256] [--max-iter 50]

Times x^2 + ix - i/2 - 1/4, then fixed seeded polynomials of degrees 3, 5
and 8 (the kernel's work grows as 9n+1 features per pixel at degree n).
Prints, per polynomial, the best wall time of the repeats and the
pixel-iterations per second: an escaped pixel counts its escape step, a
bounded one max_iter.  That is the work of the answer, not the steps the
kernel executed: a pixel retired on a fixed point still counts max_iter.
"""

import argparse
import random
import time

import numpy as np

from ocpoly.algebra import AlgebraParams, Octonion, random_octonion
from ocpoly.opoly import OPolynomial
from ocpoly.render import SliceSpec, escape_steps
from ocpoly.scalars import REAL


def best_time(f, spec, repeats):
    """(best wall seconds, pixel-iterations) of escape_steps(f, spec)."""
    escape_steps(f, spec)  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        steps = escape_steps(f, spec)
        times.append(time.perf_counter() - t0)
    iters = int(np.where(steps > 0, steps, spec.max_iter).sum())
    return min(times), iters


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
    polys = [("x^2 + ix - i/2 - 1/4",
              OPolynomial.make(params, [i * (-0.5) - one * 0.25, i, one]))]
    rng = random.Random(8)
    for degree in (3, 5, 8):
        coeffs = [random_octonion(params, rng, span=1) * 0.15
                  for _ in range(degree)]
        polys.append((f"degree {degree}",
                      OPolynomial.make(params, coeffs + [one])))
    spec = SliceSpec(base=j * 0.1, dir_u=one, dir_v=i,
                     width=args.size, height=args.size,
                     scale=4 / args.size, max_iter=args.max_iter,
                     escape_radius=4.0)
    print(f"{args.size}x{args.size}, max_iter={args.max_iter}, "
          f"best of {args.repeats}:")
    for name, f in polys:
        best, iters = best_time(f, spec, args.repeats)
        print(f"  {name:22s} {best * 1e3:9.2f} ms, "
              f"{iters / best:.3g} pixel-iterations/s")


if __name__ == "__main__":
    main()
