#!/usr/bin/env python3
"""Interleaved A/B timing of ``roots`` between two checkouts, in one process.

Usage: python3 benchmarks/ab_inprocess.py A B [--workload real-queries]
           [--kinds roots,roots_rmult] [--seed 11] [--count 315]
           [--rounds 3]

A and B are checkout roots (A the baseline, B the change).  Each one's
src/ocpoly is copied into a temporary directory as the packages
``ocpoly_a`` and ``ocpoly_b`` and both are imported here.  The workload's
queries are drawn by perfbench, which imports ocpoly from this script's own
checkout; the first ``--count`` whose kind is in ``--kinds``, that call
``roots`` and are not hard queries, are rebuilt in both trees from their
coordinates.  A warm-up call per tree and query comes first.  In each round
every query is timed in both trees, best of 5 calls, the tree that goes
first alternating from query to query and from round to round.
Each round prints both medians in microseconds and the median of the
per-query ratios B/A.  Both trees run on the same host in the same process
at the same time, so slow drifts of the host's speed, which move separate
benchmark runs, cancel in the ratio.  perfbench's modules are imported,
never changed.
"""

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (perfbench/run.py; it pins BLAS to one thread)

REPEATS = 5  # calls per query and tree in a round; the least time counts


def load_tree(checkout: str, name: str, tmp: Path) -> dict:
    """checkout's src/ocpoly imported as the package name: its modules."""
    src = Path(checkout).resolve() / "src" / "ocpoly"
    if not (src / "__init__.py").is_file():
        sys.exit(f"error: no ocpoly sources under {src}")
    shutil.copytree(src, tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("algebra", "errors", "opoly", "scalars", "roots")}


def rebuild(tree: dict, q, params: dict):
    """q's polynomial in tree, from its coordinates; params caches one
    AlgebraParams per mode and structure constants."""
    exact, gammas = q.params.field.exact, q.params.gammas
    if (exact, gammas) not in params:
        S = tree["scalars"]
        params[exact, gammas] = tree["algebra"].AlgebraParams(
            S.EXACT if exact else S.REAL, *gammas)
    P, make = params[exact, gammas], tree["algebra"].Octonion.make
    return tree["opoly"].OPolynomial.make(P, [make(P, c) for c in q.f])


def select(workload: str, seed: int, kinds: set, count: int) -> list:
    """The first count non-hard roots queries of the given kinds."""
    import workloads
    outdir = tempfile.mkdtemp(prefix="ab-inprocess-")
    try:
        wl = workloads.WORKLOADS[workload](seed, outdir)
        out = []
        for i in range(1, count * len(wl.CYCLE) + 1):
            q = wl.query(i)
            if q.kind in kinds and q.roots_call and not q.hard:
                out.append(q)
                if len(out) == count:
                    break
        return out
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def roots_call(tree: dict, f):
    """A call of tree's roots on f; a typed refusal (NoConvergence, ...) is
    an answer too, timed like one that returns."""
    roots, refused = tree["roots"].roots, tree["errors"].OcpolyError

    def call():
        try:
            roots(f)
        except refused:
            pass
    return call


def best_of(call) -> float:
    """The least wall time of REPEATS calls, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("A", help="baseline checkout root")
    ap.add_argument("B", help="changed checkout root")
    ap.add_argument("--workload", choices=run.WORKLOAD_NAMES,
                    default="real-queries")
    ap.add_argument("--kinds", default="roots,roots_rmult",
                    help="comma-separated query kinds")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--count", type=int, default=315,
                    help="number of queries to time")
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    if min(args.count, args.rounds) < 1:
        ap.error("--count and --rounds must be at least 1")
    run.load_ocpoly()
    tmp = Path(tempfile.mkdtemp(prefix="ab-inprocess-trees-"))
    try:
        sys.path.insert(0, str(tmp))
        trees = [load_tree(args.A, "ocpoly_a", tmp),
                 load_tree(args.B, "ocpoly_b", tmp)]
        queries = select(args.workload, args.seed,
                         set(args.kinds.split(",")), args.count)
        if not queries:
            sys.exit(f"error: no roots queries of kinds {args.kinds} in "
                     f"{args.workload}")
        calls, params_of = [], ({}, {})
        for q in queries:
            pair = [roots_call(tree, rebuild(tree, q, params))
                    for tree, params in zip(trees, params_of)]
            for call in pair:
                call()  # warm-up
            calls.append(pair)
        print(f"{args.workload} seed {args.seed}: {len(queries)} queries of "
              f"kinds {args.kinds}, best of {REPEATS}")
        for r in range(args.rounds):
            times = [[0.0, 0.0] for _ in calls]
            gc.disable()
            try:
                for k, pair in enumerate(calls):
                    order = (0, 1) if (k + r) % 2 == 0 else (1, 0)
                    for t in order:
                        times[k][t] = best_of(pair[t])
            finally:
                gc.enable()
            a, b = (statistics.median(t[side] for t in times) * 1e6
                    for side in (0, 1))
            ratio = statistics.median(tb / ta for ta, tb in times)
            print(f"round {r + 1}: A median {a:.1f} us, B median {b:.1f} us, "
                  f"median per-query ratio B/A {ratio:.3f}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
