#!/usr/bin/env python3
"""One sha256 over the checked answers of a perfbench workload.

Usage: python3 benchmarks/answer_digest.py exact-oracle [--seed 11]
           [--expect SHA] [--list]

Runs queries 1..n of the workload, where n is the count that
``perfbench/run.py`` checks on every run, imports ocpoly from this
checkout's src/ exactly as that script does, and hashes each query's index,
kind, answer and the oracle's verdict.  Floats are written as hex,
Fractions as p/q, a raised exception as its type and text, numpy arrays as
dtype, shape and bytes, and objects by their class name and fields, so two
checkouts print the same digest only if every checked answer is the same
to the last bit.  With ``--expect SHA`` the script exits 1 when the digest
differs from SHA.  With ``--list`` it first prints one line per query:
index, kind, verdict and a short sha256 of the serialized answer, so a
diff of two lists names the queries that moved.  perfbench's modules are
imported, never changed.
"""

import argparse
import dataclasses
import hashlib
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (perfbench/run.py)


def serialize(x) -> str:
    """A text form of an answer that fixes every bit of it."""
    if x is None or isinstance(x, (bool, int, str)):
        return repr(x)
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, np.ndarray):
        data = hashlib.sha256(x.tobytes()).hexdigest()
        return f"array({x.dtype},{x.shape},{data})"
    if isinstance(x, np.generic):
        return serialize(x.item())
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(serialize(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{serialize(k)}:{serialize(v)}"
                              for k, v in x.items()) + "}"
    if isinstance(x, BaseException):
        return f"raise {type(x).__name__}({str(x)!r})"
    name = type(x).__name__
    if dataclasses.is_dataclass(x):
        fields = [(f.name, getattr(x, f.name)) for f in dataclasses.fields(x)]
    elif hasattr(type(x), "coords"):  # an octonion: its coordinates only
        fields = [("coords", x.coords)]
    else:
        raise TypeError(f"no serialization for {name}")
    return name + "(" + ",".join(f"{k}={serialize(v)}"
                                 for k, v in fields) + ")"


def digest(workload: str, seed: int, listing: bool = False) -> tuple:
    """(sha256 hex digest, number of queries) of the checked answers; with
    ``listing``, print each query's line of the ``--list`` output."""
    run.load_ocpoly()
    import workloads
    outdir = tempfile.mkdtemp(prefix="answer-digest-")
    try:
        wl = workloads.WORKLOADS[workload](seed, outdir)
        count = run.CHECKED_CYCLES[workload] * len(wl.CYCLE)
        h = hashlib.sha256()
        for i in range(1, count + 1):
            q = wl.query(i)
            _, _, answer, exc = run.run_query(q)
            verdict = run.judge(q, answer, exc, workloads)
            body = serialize(exc if exc is not None else answer)
            h.update(f"{i} {q.kind} {verdict} {body}\n".encode())
            if listing:
                short = hashlib.sha256(body.encode()).hexdigest()[:16]
                print(f"{i} {q.kind} {verdict} {short}")
        return h.hexdigest(), count
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=run.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--expect", metavar="SHA",
                    help="exit 1 unless the digest is SHA")
    ap.add_argument("--list", action="store_true",
                    help="first print index, kind, verdict and a short "
                    "sha256 of the answer for each query")
    args = ap.parse_args(argv)
    sha, count = digest(args.workload, args.seed, args.list)
    print(f"{sha}  {args.workload} seed {args.seed}, {count} checked queries")
    if args.expect is not None and sha != args.expect:
        print(f"digest mismatch: expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
