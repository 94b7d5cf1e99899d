#!/usr/bin/env python3
"""Benchmark of the ocpoly library: seeded query workloads against its
public API, every answer checked by an independent oracle.

    python3 perfbench/run.py --workload real-queries --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

Load comes from one caller in a closed loop: the next query is sent only
after the last one returned.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same queries untraced, then again traced, and reports
per-layer metrics.  The last line of standard output is one JSON object.
``--self-check`` plants wrong answers and exits 1 unless the oracle rejects
every one of them.  See NOTES.md for the workloads and metrics.
"""

import os

# One caller, one thread: BLAS and OpenMP pools would otherwise spread over
# the cores and make a run depend on the machine's other load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse                # noqa: E402
import hashlib                 # noqa: E402
import importlib.metadata      # noqa: E402
import importlib.util          # noqa: E402
import json                    # noqa: E402
import math                    # noqa: E402
import platform                # noqa: E402
import random                  # noqa: E402
import resource                # noqa: E402
import shutil                  # noqa: E402
import statistics              # noqa: E402
import subprocess              # noqa: E402
import sys                     # noqa: E402
import tempfile                # noqa: E402
import time                    # noqa: E402
import traceback               # noqa: E402
from pathlib import Path       # noqa: E402

import oracle                  # noqa: E402
import spans                   # noqa: E402
import speed                   # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("real-queries", "exact-oracle", "render-slices")
SETUP_REPEATS = 7
PLANT_COUNTS = {"real-queries": 64, "exact-oracle": 20, "render-slices": 5}
# Cycles of the query mix in one window of the timings: about 100 queries,
# so that the 90th percentile has ten above it.  render-slices renders the
# same five images every cycle, so one cycle is a window.
WINDOW_CYCLES = {"real-queries": 1, "exact-oracle": 3, "render-slices": 1}
# Cycles of the query mix that every run answers, however long it takes:
# about half of a 20 s run today.  Only these queries count in
# ``attempted``, ``failed`` and the failure fractions, so those are the same
# on every run of a seed.
CHECKED_CYCLES = {"real-queries": 4, "exact-oracle": 6, "render-slices": 12}


def load_ocpoly():
    """Import ocpoly from this checkout's src/, never from elsewhere."""
    if not (SRC / "ocpoly" / "__init__.py").is_file():
        sys.exit(f"error: no ocpoly sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ocpoly
    if SRC.resolve() not in Path(ocpoly.__file__).resolve().parents:
        sys.exit(f"error: imported ocpoly from {ocpoly.__file__}, "
                 f"not from {SRC}")


class Record:
    """One query: wall seconds ``dt`` from ``start``, CPU seconds ``cpu``,
    and ``norm``, the CPU time at the reference host speed (see
    speed.py)."""

    __slots__ = ("index", "query", "start", "dt", "cpu", "norm", "cause")

    def __init__(self, index, query, start, dt, cpu, cause):
        self.index, self.query, self.start = index, query, start
        self.dt, self.cpu, self.cause = dt, cpu, cause
        self.norm = cpu


_reported = set()


def _report(exc, where):
    """Print the traceback of each unexpected exception type once."""
    key = (where, type(exc).__name__)
    if key not in _reported:
        _reported.add(key)
        print(f"# {where} raised:", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)


def run_query(q):
    """(wall seconds, CPU seconds, answer, exception) of the query's ocpoly
    calls."""
    answer = exc = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        answer = q.run()
    except Exception as err:   # a failed query is a result, not a crash
        exc = err
    return (time.perf_counter() - t0, time.process_time() - c0, answer,
            exc)


def judge(q, answer, exc, workloads):
    """None if the oracle accepts the answer, else the failure cause."""
    if exc is not None:
        cause = workloads.error_cause(exc)
        if cause == "other_error":
            _report(exc, f"query {q.kind}")
        return cause
    try:
        return q.check(answer)
    except Exception as err:   # a malformed answer the oracle cannot read
        _report(err, f"check of {q.kind}")
        return "other_wrong"


def timed_pass(wl, seconds, checked, workloads, ref):
    """Queries 1, 2, ... until the deadline, and at least the first
    ``checked`` of them."""
    records = []
    i = 1                      # query 0 is the untimed warm-up
    deadline = time.perf_counter() + seconds
    while i <= checked or time.perf_counter() < deadline:
        ref.tick()
        q = wl.query(i)
        start = time.perf_counter()
        dt, cpu, answer, exc = run_query(q)
        records.append(Record(i, q, start, dt, cpu,
                              judge(q, answer, exc, workloads)))
        i += 1
    ref.sample()
    for r in records:
        r.norm = r.cpu * ref.factor(r.start)
    return records


def planted_check(q, answer, workloads):
    """True if q answered correctly and the oracle rejects a perturbed copy
    of that answer."""
    if judge(q, answer, None, workloads) is not None:
        return False
    return judge(q, q.plant(answer), None, workloads) in workloads.WRONG


def child_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload, seed, ref):
    """Median CPU time, at the reference host speed, of a fresh interpreter
    that imports ocpoly and answers the workload's first query."""
    times = []
    for _ in range(SETUP_REPEATS):
        around = [ref.sample() for _ in range(3)]
        c0 = child_cpu_s()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        dt = child_cpu_s() - c0
        around += [ref.sample() for _ in range(3)]
        times.append(dt * speed.NOMINAL_S / statistics.median(around))
    return statistics.median(times)


def windows(records, size):
    """The run cut into whole windows of ``size`` queries; the rest is
    dropped.  A window is a whole number of cycles of the query mix, so it
    holds every query kind in its share."""
    return [records[k:k + size]
            for k in range(0, len(records) - size + 1, size)]


def rate(window, attr="norm"):
    """Queries answered and accepted per second of the window's time."""
    return (sum(r.cause is None for r in window)
            / sum(getattr(r, attr) for r in window))


def percentile_ms(window, p, attr="norm"):
    """Nearest-rank percentile.  A failed query counts as never answered,
    and a percentile that lands on one reads as the window's whole time."""
    lat = sorted(getattr(r, attr) * 1e3 if r.cause is None else math.inf
                 for r in window)
    v = lat[max(0, math.ceil(p / 100 * len(lat)) - 1)]
    return v if math.isfinite(v) else sum(getattr(r, attr)
                                          for r in window) * 1e3


def timings(wins, attr="norm"):
    """Throughput and latency percentiles: each the median over the
    windows, so that a host slowdown spanning a few windows moves it
    little."""
    med = statistics.median
    return {
        "queries_per_s": (med(rate(w, attr) for w in wins), "1/s"),
        "latency_p50_ms": (med(percentile_ms(w, 50, attr) for w in wins),
                           "ms"),
        "latency_p90_ms": (med(percentile_ms(w, 90, attr) for w in wins),
                           "ms"),
    }


def end_to_end(wins, checked, setup_s, wrong_causes):
    n = len(checked)
    wrong = sum(r.cause in wrong_causes for r in checked)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        **timings(wins),
        "ok_frac": (sum(r.cause is None for r in checked) / n, "frac"),
        "not_wrong_frac": (1 - wrong / n, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def wall_report(wins, ref):
    """The unscaled wall-clock figures, for reading alongside the metrics."""
    return {
        **{"wall." + k: v for k, v in timings(wins, "dt").items()},
        "speed.reference_ms": (ref.median_s() * 1e3, "ms"),
        "latency.windows": (len(wins), "count"),
    }


def failure_metrics(records, checked, workloads):
    """Failures among the checked queries; ``latency.samples`` counts every
    timed query."""
    n = len(checked)
    out = {f"fail.{c}": (sum(r.cause == c for r in checked), "count")
           for c in workloads.ERRORS + workloads.WRONG}
    out["fail_frac"] = (sum(r.cause is not None for r in checked) / n,
                        "frac")
    out["wrong_frac"] = (sum(r.cause in workloads.WRONG for r in checked)
                         / n, "frac")
    out["latency.samples"] = (len(records), "count")
    return out


def time_products(pairs, repeats=5):
    """Median over repeats of the mean time of one product, in us."""
    per = []
    for _ in range(repeats):
        t0 = time.process_time()
        for a, b in pairs:
            a * b
        per.append((time.process_time() - t0) / len(pairs) * 1e6)
    return statistics.median(per)


def traced_layers(records, seed, workloads, reference):
    """Re-run the untraced pass's queries with spans on; per-layer
    metrics."""
    tracer = spans.Tracer()
    ref = speed.SpeedReference(reference)
    traced = {}
    tracer.install()
    try:
        for r in records:
            ref.tick()
            answer = exc = None
            with tracer.query(r.index, r.query.kind) as span:
                try:
                    answer = r.query.run()
                except Exception as err:   # judged like the first pass
                    exc = err
            traced[r.index] = span
            # the same untimed work between queries as in the first pass
            judge(r.query, answer, exc, workloads)
    finally:
        tracer.uninstall()
    ref.sample()
    if tracer.missing:
        print("# not traced (missing in ocpoly): " + ", ".join(tracer.missing),
              file=sys.stderr)
    factor = {qid: ref.factor(span.at) for qid, span in traced.items()}
    out = spans.layer_metrics(tracer)
    traced_s = sum(span.dur * factor[qid] for qid, span in traced.items())
    out["trace.overhead_frac"] = (
        traced_s / sum(r.norm for r in records) - 1, "frac")
    # share of untraced roots() time that its four stages account for
    stages = spans.stage_seconds(tracer)
    roots_recs = [r for r in records if r.query.roots_call]
    untraced_roots_s = sum(r.norm for r in roots_recs)
    out["trace.coverage"] = (
        sum(stages.get(r.index, 0.0) * factor[r.index] for r in roots_recs)
        / untraced_roots_s if untraced_roots_s else 0.0, "frac")
    real_pairs, exact_pairs = workloads.product_pairs(seed)
    out["algebra.mul_real_us"] = (time_products(real_pairs), "us")
    out["algebra.mul_exact_us"] = (time_products(exact_pairs), "us")
    return out


def metadata(args):
    import numpy
    render = sys.modules["ocpoly.render"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "ocpoly").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": importlib.metadata.version("sympy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "render_backend": "numba" if getattr(render, "HAS_NUMBA", False)
        else "numpy",
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def emit(meta, metrics, report, attempted, failed, correct):
    print("# meta " + json.dumps(meta))
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


def self_check(seed, outdir, workloads):
    """Plant a perturbed answer into every query that can take one; each
    must be counted wrong.  Also checks the oracle's own algebra."""
    ok = True
    for name, alg in [("real", workloads.REAL_ALG)] + \
            [(f"exact {g}", a) for g, a in workloads.EXACT_ALG.items()]:
        laws = oracle.check_laws(alg, random.Random(seed))
        print(f"oracle laws {name:24s} {'ok' if laws else 'FAILED'}")
        ok &= laws
    for name in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name](seed, outdir)
        planted = caught = 0
        for i in range(PLANT_COUNTS[name]):
            q = wl.query(i)
            if not hasattr(q, "plant"):
                continue
            _, _, answer, exc = run_query(q)
            if exc is not None or judge(q, answer, None, workloads):
                continue
            planted += 1
            caught += judge(q, q.plant(answer), None, workloads) \
                in workloads.WRONG
        wrong_frac = caught / PLANT_COUNTS[name]
        print(f"planted {name:16s} {planted:3d}  counted wrong {caught:3d}"
              f"  wrong_frac {wrong_frac:.3f}")
        ok &= planted > 0 and caught == planted and wrong_frac > 0
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")

    load_ocpoly()
    import workloads

    outdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.self_check:
            return self_check(args.seed, outdir, workloads)
        wl = workloads.WORKLOADS[args.workload](args.seed, outdir)
        first = wl.query(0)
        if args.setup_probe:
            first.run()
            return 0
        ref = speed.SpeedReference(wl.reference)
        setup_s = 0.0 if args.trace else measure_setup(args.workload,
                                                       args.seed, ref)
        _, _, answer, exc = run_query(first)
        planted_ok = exc is None and planted_check(first, answer, workloads)
        cycle = len(wl.CYCLE)
        checked_n = CHECKED_CYCLES[args.workload] * cycle
        records = timed_pass(wl, args.seconds, checked_n, workloads, ref)
        checked = records[:checked_n]
        failures = failure_metrics(records, checked, workloads)
        wins = windows(records, WINDOW_CYCLES[args.workload] * cycle)
        if args.trace:
            metrics = {**traced_layers(records, args.seed, workloads,
                                       wl.reference), **failures}
            report = {}
        else:
            metrics = end_to_end(wins, checked, setup_s, workloads.WRONG)
            report = {**wall_report(wins, ref), **failures}
        failed = sum(r.cause is not None for r in checked)
        emit(metadata(args), metrics, report, len(checked), failed,
             planted_ok)
        return 0
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
