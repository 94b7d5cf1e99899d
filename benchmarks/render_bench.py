#!/usr/bin/env python3
"""Benchmark the escape-time kernel on one slice.

Usage: python3 benchmarks/render_bench.py [--size 256] [--max-iter 50]

Times x^2 + ix - i/2 - 1/4, then fixed seeded polynomials of degrees 3, 5
and 8 (the kernel's work grows as 9n+1 features per pixel at degree n).
Each call is timed in process CPU time (``time.process_time``), which
other processes on a shared host do not inflate as they do wall time.
Prints, per polynomial, the best and the median CPU time of the repeats
and, at the best, two rates of pixel-iterations per second.  "answered"
counts, per pixel, its escape step or max_iter when bounded: the work of
the answer.  "executed" counts the active pixels summed over the steps the
kernel ran (plus the one column of the certificate's bound).  A pixel
retired early stops counting there: one whose iterate repeats exactly, or
one whose orbit the contraction certificate of ``escape_steps`` traps in a
ball that f maps into itself.
The quadratic has |a_1| = 1, for which there is no certificate.  Only
escape_steps is timed, not the writing of an image.
"""

import argparse
import random
import statistics
import time

import numpy as np

from ocpoly.algebra import AlgebraParams, Octonion, random_octonion
from ocpoly.opoly import OPolynomial
import ocpoly.render as render_mod
from ocpoly.render import SliceSpec, escape_steps, substitute
from ocpoly.scalars import REAL


def executed_iters(f, spec):
    """Columns of all substitute calls of one escape_steps(f, spec)."""
    columns = []

    def counted(mat, lam, norm):
        columns.append(lam.shape[1])
        return substitute(mat, lam, norm)

    render_mod.substitute = counted
    try:
        escape_steps(f, spec)
    finally:
        render_mod.substitute = substitute
    return sum(columns)


def cpu_times(f, spec, repeats):
    """(best and median CPU seconds, answered pixel-iterations, executed
    ones) of escape_steps(f, spec)."""
    executed = executed_iters(f, spec)  # also the warm-up
    times = []
    for _ in range(repeats):
        t0 = time.process_time()
        steps = escape_steps(f, spec)
        times.append(time.process_time() - t0)
    iters = int(np.where(steps > 0, steps, spec.max_iter).sum())
    return min(times), statistics.median(times), iters, executed


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
    print(f"{args.size}x{args.size}, max_iter={args.max_iter}, CPU time "
          f"of {args.repeats} runs, best and median:")
    for name, f in polys:
        best, median, iters, executed = cpu_times(f, spec, args.repeats)
        print(f"  {name:22s} {best * 1e3:9.2f} ms {median * 1e3:9.2f} ms, "
              f"pixel-iterations/s: {iters / best:.3g} answered, "
              f"{executed / best:.3g} executed")


if __name__ == "__main__":
    main()
